"""Per-party wiring consumed by the protocol engines."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.crypto.prng import RandomSource, SystemRandomSource
from repro.crypto.signature import Signer, Verifier
from repro.crypto.timestamp import TimestampService
from repro.obs.hooks import NULL_INSTRUMENTATION, Instrumentation
from repro.obs.trace import PartyTraceContext
from repro.storage.backends import RecordStore
from repro.storage.checkpoint import CheckpointStore
from repro.storage.journal import MessageJournal
from repro.storage.log import NonRepudiationLog
from repro.util.clocks import Clock, SystemClock

VerifierResolver = Callable[[str], Verifier]


@dataclass
class PartyContext:
    """Everything a protocol engine needs about the local party.

    One context is shared by all engines (state coordination and
    membership) of one party, so they see one evidence log, one journal
    and one checkpoint store — matching Figure 3, where certificate
    management, non-repudiation and check-pointing are per-organisation
    middleware services.
    """

    party_id: str
    signer: Signer
    resolver: VerifierResolver
    tsa: "Optional[TimestampService]" = None
    tsa_verifier: "Optional[Verifier]" = None
    rng: RandomSource = field(default_factory=SystemRandomSource)
    clock: Clock = field(default_factory=SystemClock)
    evidence: NonRepudiationLog = None  # type: ignore[assignment]
    journal: MessageJournal = None  # type: ignore[assignment]
    checkpoints: CheckpointStore = None  # type: ignore[assignment]
    obs: Instrumentation = NULL_INSTRUMENTATION
    trace: PartyTraceContext = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.trace is None:
            self.trace = PartyTraceContext(self.party_id)
        if self.evidence is None:
            self.evidence = NonRepudiationLog(self.party_id, obs=self.obs)
        if self.journal is None:
            self.journal = MessageJournal(self.party_id, obs=self.obs)
        if self.checkpoints is None:
            self.checkpoints = CheckpointStore()
        if self.tsa is not None and self.tsa_verifier is None:
            self.tsa_verifier = self.tsa.verifier

    def _stores(self) -> "tuple[RecordStore, RecordStore, RecordStore]":
        return (self.evidence.store, self.checkpoints.store,
                self.journal.store)

    def adopt_stores(self) -> None:
        """Form this party's commit group from its three stores.

        From here on an append only queues its record and :meth:`commit`
        is what makes it durable, so whoever adopts the stores owes a
        ``commit`` before any consequence of a record leaves the party.
        """
        for store in self._stores():
            store.deferred = True

    def commit(self) -> None:
        """The write-ahead barrier: make every record appended so far
        durable, evidence first, then checkpoints, then the journal.

        The journal goes last because it is what recovery reads first: a
        run it shows closed is never looked at again, so the decision
        evidence and the checkpoint that close implies must already be
        on disk; a run it shows open is re-driven, which re-creates
        whatever the crash cut off.  Handlers append in the same order,
        and the extent of each file's sync is fixed last file first, so
        a shard worker appending beside this commit cannot get a journal
        record inside the barrier whose evidence or checkpoint is
        outside it.
        """
        stores = self._stores()
        extents = [len(store) for store in reversed(stores)][::-1]
        started = time.perf_counter()
        synced = [store.sync(extent)
                  for store, extent in zip(stores, extents)]
        if self.obs.enabled and any(synced):
            self.obs.storage_sync(
                self.party_id, sum(1 for count in synced if count),
                sum(synced), time.perf_counter() - started,
            )
