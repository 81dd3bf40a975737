"""Per-party wiring consumed by the protocol engines."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.crypto.prng import RandomSource, SystemRandomSource
from repro.crypto.signature import Signer, Verifier
from repro.crypto.timestamp import TimestampService
from repro.errors import ConfigurationError
from repro.obs.hooks import NULL_INSTRUMENTATION, Instrumentation
from repro.obs.trace import PartyTraceContext
from repro.storage.backends import MemoryRecordStore, RecordStore
from repro.storage.checkpoint import CheckpointStore
from repro.storage.journal import MessageJournal
from repro.storage.log import NonRepudiationLog
from repro.util.clocks import Clock, SystemClock

VerifierResolver = Callable[[str], Verifier]


def open_views(owner: str, store: RecordStore,
               obs: Instrumentation = NULL_INSTRUMENTATION) -> dict:
    """The evidence log, journal and checkpoints of the party whose
    records *store* holds, as :class:`PartyContext` keywords, filled by
    one pass that decodes each record once.

    A store whose journal records embed whole messages (written before
    records referred to evidence entries) is refused, and closed: it
    stays readable through the views (``repro audit``), but appending
    would mix formats.
    """
    with store.opening():
        views = {"evidence": NonRepudiationLog(owner, store, obs=obs),
                 "journal": MessageJournal(owner, store, obs=obs),
                 "checkpoints": CheckpointStore(store)}
    if views["journal"].embeds_messages:
        store.close()
        raise ConfigurationError(
            f"{owner}: the party's log holds journal records that embed "
            f"whole messages: readable (repro audit), not appendable")
    return views


@dataclass
class PartyContext:
    """Everything a protocol engine needs about the local party.

    One context is shared by all engines (state coordination and
    membership) of one party, so they see one evidence log, one journal
    and one checkpoint store — matching Figure 3, where certificate
    management, non-repudiation and check-pointing are per-organisation
    middleware services.  The three are views of one record store: a
    view that is not given is built over the store of one that is.
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
        given = [view.store for view in
                 (self.evidence, self.journal, self.checkpoints)
                 if view is not None]
        store = given[0] if given else MemoryRecordStore()
        if self.evidence is None:
            self.evidence = NonRepudiationLog(self.party_id, store,
                                              obs=self.obs)
        if self.journal is None:
            self.journal = MessageJournal(self.party_id, store, obs=self.obs)
        if self.checkpoints is None:
            self.checkpoints = CheckpointStore(store)
        if not (self.evidence.store is self.journal.store
                is self.checkpoints.store):
            raise ConfigurationError(
                f"{self.party_id}: evidence log, journal and checkpoints "
                f"must share one record store")
        if self.tsa is not None and self.tsa_verifier is None:
            self.tsa_verifier = self.tsa.verifier

    def adopt_store(self) -> None:
        """Take over the durability of this party's record store.

        From here on an append only queues its record and :meth:`commit`
        is what makes it durable, so whoever adopts the store owes a
        ``commit`` before any consequence of a record leaves the party.
        """
        self.evidence.store.deferred = True

    def commit(self) -> None:
        """The write-ahead barrier: one ``sync`` of the party's store
        makes every record appended so far durable.

        The records sit in one file in the order the handlers appended
        them (a run's decision evidence, then its checkpoint, then the
        journal close), so a crash leaves a byte prefix of that order:
        a run the journal shows closed has its decision and checkpoint
        before the close, and a run it shows open is re-driven, which
        re-creates whatever the crash cut off.
        """
        started = time.perf_counter()
        synced = self.evidence.store.sync()
        if synced and self.obs.enabled:
            self.obs.storage_sync(self.party_id, 1, synced,
                                  time.perf_counter() - started)
