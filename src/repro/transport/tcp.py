"""TCP transport (standard-library sockets).

The original prototype used Java RMI between organisations; this module is
the real-network counterpart of the simulated substrate: one listener
socket per registered party.  Frames are produced by :mod:`repro.wire` —
the length-prefixed binary codec by default, or canonical-JSON lines when
constructed with ``codec="json"``, the one framing a seed peer can read
(signatures and evidence stay on canonical JSON either way; the codec is
framing only, and the inbound codec is detected per connection).

There is one socket engine: a :mod:`selectors` event-loop thread
(:mod:`repro.transport.reactor`) owns every listener, inbound connection,
outbound channel and retransmission timer, so the thread count is one
however many peers a process fronts.  ``TcpNetwork`` itself is the address
directory, the seeded drop injection, frame encoding and the synchronous
listener bind.

Delivery is best-effort — connection failures drop frames and the
reliable layer's retransmission recovers, exactly as over the simulated
lossy network.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Callable

from repro.errors import TransportError
from repro.obs.hooks import NULL_INSTRUMENTATION, Instrumentation
from repro.transport.base import Envelope, MessageHandler, Network, TimerHandle
from repro.transport.reactor import _Reactor
from repro.util.clocks import MonotonicClock
from repro.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    CODECS,
    MAX_FRAME,
    EnvelopeEncoder,
)


class TcpNetwork(Network):
    """Real-socket network hosting any number of party endpoints.

    In a single process it is self-contained: ``register`` assigns an
    ephemeral port and records it in the address directory.  For
    multi-process deployments, pre-populate the directory with
    ``add_remote_party`` (and pass an explicit ``port`` to ``register``
    so peers can find this process after a restart).
    """

    def __init__(self, host: str = "127.0.0.1", connect_timeout: float = 2.0,
                 obs: "Instrumentation | None" = None,
                 drop_probability: float = 0.0,
                 drop_seed: "int | None" = None,
                 codec: str = CODEC_BINARY,
                 reactor: bool = True,
                 max_frame: int = MAX_FRAME) -> None:
        if codec not in CODECS:
            raise ValueError(f"unknown wire codec {codec!r}")
        # `reactor` selects nothing: it is accepted only because
        # benchmarks/e2e/workloads.py (frozen by BENCHMARK.json) passes
        # reactor=True; a benchmark-only follow-up deletes it.
        if reactor is not True:
            raise ValueError("the selector reactor is the only TCP transport")
        self._host = host
        self._obs = obs if obs is not None else NULL_INSTRUMENTATION
        self._codec = codec
        self._encoder = EnvelopeEncoder(codec)
        self._max_frame = max_frame
        # Optional fault injection: drop outbound data frames before they
        # reach the socket, so demos and tests can exercise the reliable
        # layer's retransmission over real sockets deterministically.
        # Each (sender, recipient) link draws from its own seeded stream,
        # so the k-th send on a link is dropped (or not) independently of
        # how sender threads interleave across links.
        self._drop_probability = drop_probability
        self._drop_seed = drop_seed
        self._drop_rngs: "dict[tuple[str, str], random.Random]" = {}
        self._drop_lock = threading.Lock()
        self._directory: "dict[str, tuple[str, int]]" = {}
        self._local: "set[str]" = set()
        self._lock = threading.Lock()
        # Retransmission pacing and timeouts are interval arithmetic, so
        # the network clock must not step backwards under NTP corrections.
        self._clock = MonotonicClock()
        self._reactor = _Reactor(
            obs=self._obs, preamble=self._encoder.preamble,
            connect_timeout=connect_timeout, max_frame=max_frame,
            address_of=self.address_of,
        )
        self._closed = False

    @property
    def codec(self) -> str:
        """Wire codec frames leave this network in ("json" / "binary")."""
        return self._codec

    @property
    def max_frame(self) -> int:
        """Upper bound accepted for one inbound frame, in bytes."""
        return self._max_frame

    def add_remote_party(self, party_id: str, host: str, port: int) -> None:
        """Record the address of a party hosted by another process."""
        with self._lock:
            self._directory[party_id] = (host, port)

    def address_of(self, party_id: str) -> "tuple[str, int]":
        with self._lock:
            address = self._directory.get(party_id)
        if address is None:
            raise TransportError(f"no known address for party {party_id!r}")
        return address

    def register(self, party_id: str, handler: MessageHandler,
                 port: int = 0) -> None:
        """Start listening for *party_id*; ``port=0`` picks an ephemeral one.

        A fixed *port* lets a restarted process resume the address its
        peers already hold, so their connections can reconnect.
        """
        with self._lock:
            if self._closed:
                raise TransportError("network is closed")
            if party_id in self._local:
                self._reactor.set_handler(party_id, handler)
                return
            # Bind synchronously so the port is in the directory before
            # register() returns; the reactor loop adopts the socket for
            # accepting.
            server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((self._host, port))
            server.listen(128)
            server.setblocking(False)
            self._local.add(party_id)
            self._directory[party_id] = (self._host, server.getsockname()[1])
            self._reactor.add_listener(party_id, server, handler)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send(self, envelope: Envelope) -> "int | None":
        try:
            self.address_of(envelope.recipient)
        except TransportError:
            return None  # unknown party: drop, retransmission may find it
        if self._should_drop(envelope):
            if self._obs.enabled:
                self._obs.raw_send(envelope.sender, envelope.recipient,
                                   0, False)
            return None  # injected loss: the reliable layer retransmits
        frame = self._encode_frame(envelope)
        self._reactor.enqueue(envelope.sender, envelope.recipient, frame)
        # Reported size excludes the newline terminator for JSON (the
        # historical accounting) and is the whole frame for binary.
        return len(frame) - 1 if self._codec == CODEC_JSON else len(frame)

    def _encode_frame(self, envelope: Envelope) -> bytes:
        obs = self._obs
        if not obs.enabled:
            return self._encoder.encode(envelope)
        started = time.perf_counter()
        frame = self._encoder.encode(envelope)
        obs.frame_encoded(self._codec, len(frame),
                          time.perf_counter() - started)
        return frame

    def _should_drop(self, envelope: Envelope) -> bool:
        if self._drop_probability <= 0.0:
            return False
        link = (envelope.sender, envelope.recipient)
        with self._drop_lock:
            rng = self._drop_rngs.get(link)
            if rng is None:
                # String seeding is hash-randomisation-proof, so the same
                # drop_seed reproduces the same per-link pattern across
                # processes and thread interleavings.
                rng = random.Random(
                    f"{self._drop_seed}|{envelope.sender}->{envelope.recipient}"
                )
                self._drop_rngs[link] = rng
            return rng.random() < self._drop_probability

    # ------------------------------------------------------------------
    # timers / lifecycle
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        # The reliable layer arms a retransmit timer on *every* send and
        # cancels almost all of them, so arming must cost a heap push on
        # the reactor loop, not a thread spawn.
        return self._reactor.schedule(delay, callback)

    def now(self) -> float:
        return self._clock.now()

    def when_idle(self, callback: Callable[[], None]) -> None:
        # On the loop thread, once a poll finds no posted command, no
        # due timer and no ready socket: everything received so far has
        # been handled.
        self._reactor.when_idle(callback)

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self._reactor.stop()
