"""Deployment helper: build a complete multi-organisation community.

Wires everything the paper assumes exists around the protocol — a
certificate authority all parties trust, a time-stamping service, per-
organisation keys/certificates/stores, a network and one
:class:`~repro.core.node.OrganisationNode` per organisation — so that
examples, tests and benchmarks can start from "three organisations share
an order object" in a few lines.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional

from repro.core.controller import B2BObjectController
from repro.core.modes import SYNCHRONOUS
from repro.core.node import OrganisationNode
from repro.core.object import B2BObject
from repro.core.runtime import Runtime, SimRuntime
from repro.crypto.certificates import Certificate, CertificateAuthority, CertificateStore
from repro.crypto.prng import DeterministicRandomSource
from repro.crypto.signature import (
    InstrumentedSigner,
    InstrumentedVerifier,
    Verifier,
    generate_party_keypair,
)
from repro.crypto.timestamp import TimestampService
from repro.errors import ConfigurationError
from repro.obs.hooks import NULL_INSTRUMENTATION, Instrumentation
from repro.protocol.context import PartyContext, open_views
from repro.protocol.group import ROTATING
from repro.storage.backends import (
    MemoryRecordStore,
    RecordStore,
    open_party_store,
)
from repro.util.clocks import Clock, SystemClock

DEFAULT_KEY_BITS = 512


class Community:
    """A set of organisations sharing a PKI, TSA and network."""

    def __init__(self, names: "list[str]",
                 runtime: "Runtime | None" = None,
                 seed: "int | str" = 0,
                 key_bits: int = DEFAULT_KEY_BITS,
                 retransmit_interval: float = 0.05,
                 clock: "Clock | None" = None,
                 storage_dir: "str | None" = None,
                 obs: "Instrumentation | None" = None,
                 num_shards: int = 1) -> None:
        if len(set(names)) != len(names):
            raise ConfigurationError("organisation names must be unique")
        self.obs = obs if obs is not None else NULL_INSTRUMENTATION
        self.runtime = runtime if runtime is not None else SimRuntime(seed=seed)
        if clock is not None:
            self.clock = clock
        elif isinstance(self.runtime, SimRuntime):
            # Share the simulation's virtual clock so evidence timestamps
            # line up with simulated time.
            self.clock = _SimNetworkClock(self.runtime)
        else:
            self.clock = SystemClock()
        # Instrumentation built before the community (the CLI's) stamps
        # its trace records by the community clock from here on, so a
        # simulated run records virtual time, never a wall/virtual mix.
        tracer = getattr(self.obs, "tracer", None)
        if tracer is not None:
            tracer.bind_clock(self.clock)
        # Kept for benchmarks/e2e/workloads.py, which passes
        # num_shards=1; the benchmark follow-up that stops passing it
        # deletes the argument.  A node has one engine lock.
        if num_shards != 1:
            raise ConfigurationError(
                "num_shards must be 1: a node has one engine lock")
        self._rng = DeterministicRandomSource(f"community:{seed}")
        self._key_bits = key_bits
        self.ca = CertificateAuthority(
            "CA", clock=self.clock,
            keypair=self._keypair("CA", self._rng.fork("CA")),
        )
        self.tsa = TimestampService(
            "TSA", clock=self.clock,
            keypair=self._keypair("TSA", self._rng.fork("TSA")),
        )
        self.nodes: "dict[str, OrganisationNode]" = {}
        self.certificates: "dict[str, Certificate]" = {}
        self._stores: "dict[str, CertificateStore]" = {}
        self._retransmit_interval = retransmit_interval
        # When set, every organisation's evidence log, journal and
        # checkpoints live in one crash-safe file,
        # ``storage_dir/<org>/log.jsonl`` — the durable-deployment
        # configuration the restart machinery (restart_node /
        # restore_object) expects.
        self.storage_dir = storage_dir
        for name in names:
            self.add_organisation(name)

    # ------------------------------------------------------------------
    # membership of the community (PKI level, not object level)
    # ------------------------------------------------------------------

    def add_organisation(self, name: str) -> OrganisationNode:
        """Enrol an organisation: keys, certificate, store, node."""
        if name in self.nodes:
            raise ConfigurationError(f"organisation {name!r} already exists")
        keypair = self._keypair(name, self._rng.fork(f"key:{name}"))
        certificate = self.ca.issue(name, keypair.public_key)
        self.certificates[name] = certificate

        store = CertificateStore(clock=self.clock)
        store.trust_authority(self.ca.name, self.ca.verifier)
        # Founding certificates are pre-distributed; late joiners carry
        # theirs in the connection request.
        for cert in self.certificates.values():
            store.add_certificate(cert)
        for other_store in self._stores.values():
            other_store.add_certificate(certificate)
        self._stores[name] = store

        signer = keypair.signer()
        resolver = store.verifier_for
        if self.obs.enabled:
            signer = InstrumentedSigner(signer, self.obs)

            def resolver(party_id: str,
                         _store: CertificateStore = store) -> Verifier:
                return InstrumentedVerifier(_store.verifier_for(party_id),
                                            self.obs)

        ctx = PartyContext(
            party_id=name,
            signer=signer,
            resolver=resolver,
            tsa=self.tsa,
            rng=self._rng.fork(f"rng:{name}"),
            clock=self.clock,
            obs=self.obs,
            **open_views(name, self._record_store(name), self.obs),
        )

        def certificate_resolver(party_id: str,
                                 cert_dict: "dict | None",
                                 _store: CertificateStore = store) -> Verifier:
            if cert_dict is not None:
                certificate = Certificate.from_dict(cert_dict)
                if certificate.subject != party_id:
                    raise ConfigurationError(
                        f"certificate subject {certificate.subject!r} != {party_id!r}"
                    )
                _store.add_certificate(certificate)
            verifier = _store.verifier_for(party_id)
            if self.obs.enabled:
                verifier = InstrumentedVerifier(verifier, self.obs)
            return verifier

        node = OrganisationNode(
            ctx, self.runtime,
            certificate_resolver=certificate_resolver,
            certificate=certificate.to_dict(),
            retransmit_interval=self._retransmit_interval,
        )
        self.nodes[name] = node
        return node

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------

    def node(self, name: str) -> OrganisationNode:
        return self.nodes[name]

    def names(self) -> "list[str]":
        return list(self.nodes)

    def resolver(self, party_id: str) -> Verifier:
        """Community-wide verifier lookup (used by arbiters in tests)."""
        certificate = self.certificates.get(party_id)
        if certificate is None:
            raise ConfigurationError(f"unknown party {party_id!r}")
        return certificate.verifier()

    def public_keys(self) -> dict:
        """All public keys in the ``verify-bundle``/``audit`` keys format.

        Written to a ``keys.json`` next to exported evidence, this is
        everything an offline auditor needs to re-verify signatures.
        """
        return {
            "parties": {name: dict(cert.public_key)
                        for name, cert in self.certificates.items()},
            "tsa": self.tsa.public_key,
        }

    # ------------------------------------------------------------------
    # object founding
    # ------------------------------------------------------------------

    def found_object(self, object_name: str,
                     objects: "dict[str, B2BObject]",
                     mode: str = SYNCHRONOUS,
                     sponsor_mode: str = ROTATING,
                     reject_null_transitions: bool = True,
                     engine_cls: "Optional[type]" = None
                     ) -> "dict[str, B2BObjectController]":
        """Found a shared object among the given organisations.

        *objects* maps each founding organisation to its local B2BObject
        replica; all replicas must report identical initial state.
        """
        members = list(objects)
        states = {name: obj.get_state() for name, obj in objects.items()}
        reference = states[members[0]]
        for name, state in states.items():
            if state != reference:
                raise ConfigurationError(
                    f"founding replicas disagree on initial state ({name!r})"
                )
        controllers = {}
        for name, obj in objects.items():
            controllers[name] = self.nodes[name].register_object(
                object_name, obj, members, mode=mode,
                sponsor_mode=sponsor_mode,
                reject_null_transitions=reject_null_transitions,
                engine_cls=engine_cls,
            )
        return controllers

    def examine(self, name: str, object_name: str,
                read_mode=None):
        """One organisation's validated read of a shared object.

        Convenience for ``community.node(name).examine(...)`` — returns
        a :class:`~repro.core.readcache.ReadResult`.
        """
        return self.nodes[name].examine(object_name, read_mode)

    def _keypair(self, name: str, rng):
        """Generate a key pair, timing it only when observability is on.

        Timing wraps the call rather than forwarding an ``obs`` keyword so
        test/benchmark fixtures may monkeypatch
        :func:`generate_party_keypair` with simpler signatures.
        """
        if not self.obs.enabled:
            return generate_party_keypair(name, bits=self._key_bits, rng=rng)
        import time

        started = time.perf_counter()
        keypair = generate_party_keypair(name, bits=self._key_bits, rng=rng)
        self.obs.keygen_timing(self._key_bits, 1, time.perf_counter() - started)
        return keypair

    def _record_store(self, name: str) -> RecordStore:
        """The one store behind an organisation's evidence log, journal
        and checkpoints."""
        if self.storage_dir is None:
            return MemoryRecordStore()
        return open_party_store(os.path.join(self.storage_dir, name))

    def restart_node(self, name: str) -> OrganisationNode:
        """Simulate a full process restart of one organisation.

        The old node's endpoint is stopped and a fresh node is built over
        the *same* durable store and keys, its evidence log, journal and
        checkpoints re-opened from the records as a new process would.
        The caller then re-registers each shared object with
        :meth:`OrganisationNode.restore_object`, which resumes in-flight
        runs from the journal.
        """
        old = self.nodes.get(name)
        if old is None:
            raise ConfigurationError(f"unknown organisation {name!r}")
        old.endpoint.stop()
        old.ctx.commit()
        ctx = dataclasses.replace(
            old.ctx, **open_views(name, old.ctx.evidence.store, self.obs))
        node = OrganisationNode(
            ctx, self.runtime,
            certificate_resolver=old.party.certificate_resolver,
            certificate=old.certificate,
            retransmit_interval=self._retransmit_interval,
        )
        self.nodes[name] = node
        return node

    def settle(self, duration: "float | None" = None) -> None:
        self.runtime.settle(duration)

    def close(self) -> None:
        self.runtime.close()
        for node in self.nodes.values():
            node.ctx.commit()


class _SimNetworkClock(Clock):
    """Clock view over a simulation runtime's virtual time."""

    def __init__(self, runtime: SimRuntime) -> None:
        self._runtime = runtime

    def now(self) -> float:
        return self._runtime.network.now()
