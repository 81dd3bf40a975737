"""Single-threaded selector reactor: the socket engine of ``TcpNetwork``.

**One** event-loop thread owns every socket, so the thread count stays
constant however many peers one process fronts:

* listeners, inbound connections and outbound channels are all
  non-blocking and multiplexed through one :mod:`selectors` selector;
* write interest is toggled per channel — a drained channel costs
  nothing until the next frame is queued;
* the retransmission timer heap is folded into the loop's ``select``
  timeout, so timers need no thread of their own;
* cross-thread entry points (``enqueue``, ``schedule``,
  ``call_in_loop``, listener registration) post closures to a command
  queue and tap a self-pipe, never touching socket state from outside
  the loop (a post made *on* the loop thread skips the tap: the loop
  re-checks the queue before it blocks);
* ``when_idle`` callbacks run once a turn of the loop found nothing to
  do — no posted command, no due timer, no ready socket.

Delivery is best-effort: frames queued to a dead peer are dropped (the
reliable layer retransmits), reconnects back off briefly, and a
connection opens with the preamble of :mod:`repro.wire`.  Inbound
envelopes are dispatched to the party handler *inline* on the loop
thread — protocol handlers are sans-IO and non-blocking by
construction, and any send they trigger is itself just a queue append.
"""

from __future__ import annotations

import collections
import errno
import heapq
import itertools
import selectors
import socket
import threading
import time
from typing import Callable, Optional

from repro.errors import TransportError
from repro.obs.hooks import Instrumentation
from repro.transport.base import Envelope, TimerHandle
from repro.wire import (
    PREAMBLE,
    FrameDecoder,
    FrameError,
    FrameTooLargeError,
    WireError,
)

#: Frames coalesced into one outbound buffer per channel visit; bounds
#: the memory copied around by ``del out[:sent]`` on partial writes.
_WRITE_CHUNK_FRAMES = 64

#: recv() calls per readable connection per loop visit.  The selector is
#: level-triggered, so a firehose connection resurfaces next iteration
#: instead of starving every other socket.
_READ_BURSTS = 16

_CONNECT_OK = (0, errno.EINPROGRESS, errno.EWOULDBLOCK, errno.EALREADY)

#: Minimum delay between reconnect attempts to a peer that refused the
#: last connection.  Frames arriving inside the window are dropped
#: immediately (best-effort); retransmission recovers once the peer is
#: back.
RECONNECT_BACKOFF = 0.05


class _TimerEntry:
    __slots__ = ("callback",)

    def __init__(self, callback: Callable[[], None]) -> None:
        self.callback: "Optional[Callable[[], None]]" = callback

    def cancel(self) -> None:
        # Frees what the callback holds (a retransmit timer: its whole
        # message) now, not at the deadline.
        self.callback = None


class _Channel:
    """Outbound connection state for one recipient (loop-thread only)."""

    __slots__ = ("recipient", "sock", "connecting", "registered", "fresh",
                 "ever_connected", "next_attempt", "pending", "out",
                 "unreported")

    def __init__(self, recipient: str) -> None:
        self.recipient = recipient
        self.sock: "Optional[socket.socket]" = None
        self.connecting = False
        self.registered = False
        self.fresh = False
        self.ever_connected = False
        self.next_attempt = 0.0
        # (sender, frame) queue -> coalesced out buffer -> the socket.
        self.pending: "collections.deque[tuple[str, bytes]]" = collections.deque()
        self.out = bytearray()
        # Frames merged into `out` but not yet fully on the wire; their
        # raw_send outcome is reported when the buffer drains or breaks.
        self.unreported: "list[tuple[str, int]]" = []


class _Inbound:
    """One accepted connection and its incremental frame decoder."""

    __slots__ = ("sock", "party", "decoder")

    def __init__(self, sock: socket.socket, party: str,
                 decoder: FrameDecoder) -> None:
        self.sock = sock
        self.party = party
        self.decoder = decoder


class _Reactor:
    """The event loop.  Owned by a :class:`~repro.transport.tcp.TcpNetwork`;
    the thread starts lazily on the first listener, frame or timer."""

    def __init__(self, obs: Instrumentation,
                 connect_timeout: float, max_frame: int,
                 address_of: "Callable[[str], tuple[str, int]]") -> None:
        self._obs = obs
        self._connect_timeout = connect_timeout
        self._max_frame = max_frame
        self._address_of = address_of
        self._selector = selectors.DefaultSelector()
        wake_r, wake_w = socket.socketpair()
        wake_r.setblocking(False)
        wake_w.setblocking(False)
        self._wake_r = wake_r
        self._wake_w = wake_w
        self._selector.register(wake_r, selectors.EVENT_READ, ("wake", None))
        # Guards the command queue, handler map, stop flag and thread
        # handle; every socket/heap structure is loop-thread-only.
        self._lock = threading.Lock()
        self._commands: "collections.deque[Callable[[], None]]" = collections.deque()
        #: One-shot callbacks awaiting a turn that finds nothing to do.
        self._idle: "list[Callable[[], None]]" = []
        self._handlers: "dict[str, Callable[[Envelope], None]]" = {}
        self._heap: "list[tuple[float, int, _TimerEntry]]" = []
        self._tie = itertools.count()
        self._channels: "dict[str, _Channel]" = {}
        self._listen_socks: "dict[str, socket.socket]" = {}
        self._inbound: "set[_Inbound]" = set()
        self._thread: "Optional[threading.Thread]" = None
        self._loop_ident: "Optional[int]" = None
        self._stopped = False

    # ------------------------------------------------------------------
    # cross-thread entry points
    # ------------------------------------------------------------------

    def add_listener(self, party_id: str, sock: socket.socket,
                     handler: Callable[[Envelope], None]) -> None:
        """Adopt a bound+listening non-blocking socket for *party_id*."""
        with self._lock:
            self._handlers[party_id] = handler
        self._post(lambda: self._register_listener(party_id, sock))

    def set_handler(self, party_id: str,
                    handler: Callable[[Envelope], None]) -> None:
        with self._lock:
            self._handlers[party_id] = handler

    def enqueue(self, sender: str, recipient: str, frame: bytes) -> None:
        """Queue one encoded frame for best-effort delivery."""
        self._post(lambda: self._enqueue_frame(sender, recipient, frame))

    def schedule(self, delay: float,
                 callback: Callable[[], None]) -> TimerHandle:
        entry = _TimerEntry(callback)
        deadline = time.monotonic() + max(0.0, delay)
        self._post(lambda: heapq.heappush(
            self._heap, (deadline, next(self._tie), entry)))
        return TimerHandle(entry.cancel)

    def when_idle(self, callback: Callable[[], None]) -> None:
        """Run *callback* once, on the loop thread, after a turn of the
        loop that found no posted command, no due timer and no ready
        socket (its own wake pipe aside)."""
        self._post(callback, idle=True)

    def call_in_loop(self, callback: Callable[[], None]) -> None:
        """Run *callback* on the loop thread: now if this is it, or if
        the loop is stopped (there is none), else as a posted command."""
        if threading.get_ident() == self._loop_ident or self._stopped:
            callback()
        else:
            self._post(callback)

    def stop(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            thread = self._thread
        self._wake()
        if thread is not None:
            thread.join(timeout=1.0)
        else:
            self._teardown_all()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    # posting machinery
    # ------------------------------------------------------------------

    def _post(self, command: Callable[[], None], idle: bool = False) -> None:
        with self._lock:
            if self._stopped:
                return
            (self._idle if idle else self._commands).append(command)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, daemon=True, name="tcp-reactor",
                )
                self._thread.start()
        # The loop looks at both queues again before it blocks, so a
        # post from one of its own handlers (every send a handler makes)
        # needs no wake-up: that would be a second system call per frame
        # and one more turn of the loop to drain the pipe.
        if threading.get_ident() != self._loop_ident:
            self._wake()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # a wakeup is already pending (or we are shutting down)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------

    def _loop(self) -> None:
        self._loop_ident = threading.get_ident()
        while True:
            with self._lock:
                if self._stopped:
                    break
                commands = list(self._commands)
                self._commands.clear()
            for command in commands:
                try:
                    command()
                except Exception:  # noqa: BLE001 - a bad command must not kill I/O
                    self._obs.handler_error("", "command")
            busy = bool(commands)  # did this turn find anything to do?
            now = time.monotonic()
            heap = self._heap
            while heap and heap[0][0] <= now:
                callback = heapq.heappop(heap)[2].callback
                if callback is None:  # cancelled
                    continue
                busy = True
                try:
                    callback()
                except Exception:  # noqa: BLE001 - a timer bug must not kill the loop
                    self._obs.handler_error("", "timer")
            timeout: "Optional[float]" = None
            if heap:
                timeout = max(0.0, heap[0][0] - time.monotonic())
            with self._lock:
                if self._commands or self._idle:
                    # Work arrived while callbacks ran, or someone waits
                    # to hear that none is left: look, do not block.
                    timeout = 0.0
            try:
                events = self._selector.select(timeout)
            except OSError:
                events = []
            for key, mask in events:
                kind, data = key.data
                if kind == "wake":
                    self._drain_wake()
                    continue
                busy = True
                if kind == "listener":
                    self._accept(key.fileobj, data)
                elif kind == "in":
                    self._readable(data)
                elif kind == "out":
                    self._channel_event(data)
            if not busy and self._idle:
                self._run_idle()
        self._teardown_all()

    def _run_idle(self) -> None:
        with self._lock:
            if self._commands or self._stopped or (
                    self._heap and self._heap[0][0] <= time.monotonic()):
                return  # not idle after all; the next turn decides
            callbacks = list(self._idle)
            self._idle.clear()
        for callback in callbacks:
            try:
                callback()
            except Exception:  # noqa: BLE001 - a bad callback must not kill the loop
                self._obs.handler_error("", "idle")

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    # ------------------------------------------------------------------
    # listeners and inbound connections
    # ------------------------------------------------------------------

    def _register_listener(self, party_id: str,
                           sock: socket.socket) -> None:
        old = self._listen_socks.pop(party_id, None)
        if old is not None:
            self._unregister(old)
            _close(old)
        self._listen_socks[party_id] = sock
        self._selector.register(sock, selectors.EVENT_READ,
                                ("listener", party_id))

    def _accept(self, server: socket.socket, party_id: str) -> None:
        while True:
            try:
                conn, _ = server.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            conn.setblocking(False)
            inbound = _Inbound(
                conn, party_id,
                FrameDecoder(max_frame=self._max_frame),
            )
            self._inbound.add(inbound)
            self._selector.register(conn, selectors.EVENT_READ,
                                    ("in", inbound))

    def _readable(self, inbound: _Inbound) -> None:
        closed = False
        for _ in range(_READ_BURSTS):
            try:
                chunk = inbound.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                closed = True
                break
            if not chunk:
                closed = True
                break
            inbound.decoder.feed(chunk)
            try:
                while True:
                    frame = inbound.decoder.next_frame()
                    if frame is None:
                        break
                    self._dispatch(inbound, frame)
            except FrameError as exc:
                reason = ("oversized" if isinstance(exc, FrameTooLargeError)
                          else "framing")
                self._obs.malformed_frame(inbound.party, reason)
                closed = True
                break
        if closed:
            self._close_inbound(inbound)

    def _dispatch(self, inbound: _Inbound, frame: bytes) -> None:
        obs = self._obs
        started = time.perf_counter() if obs.enabled else 0.0
        try:
            data = inbound.decoder.decode(frame)
        except WireError:
            obs.malformed_frame(inbound.party, "decode")
            return
        if obs.enabled:
            obs.frame_decoded(len(frame), time.perf_counter() - started)
        try:
            envelope = Envelope.from_dict(data)
        except (KeyError, TypeError, ValueError, AttributeError):
            obs.malformed_frame(inbound.party, "bad-envelope")
            return
        with self._lock:
            handler = self._handlers.get(inbound.party)
        if handler is None:
            return
        try:
            handler(envelope)
        except Exception:  # noqa: BLE001 - a handler bug must not kill the loop
            obs.handler_error(inbound.party, "dispatch")

    def _close_inbound(self, inbound: _Inbound) -> None:
        self._inbound.discard(inbound)
        self._unregister(inbound.sock)
        _close(inbound.sock)

    # ------------------------------------------------------------------
    # outbound channels
    # ------------------------------------------------------------------

    def _enqueue_frame(self, sender: str, recipient: str,
                       frame: bytes) -> None:
        channel = self._channels.get(recipient)
        if channel is None:
            channel = self._channels[recipient] = _Channel(recipient)
        if channel.sock is None:
            if time.monotonic() < channel.next_attempt:
                self._report_frames(recipient, [(sender, len(frame))],
                                    ok=False)
                return
            if not self._start_connect(channel, sender):
                self._report_frames(recipient, [(sender, len(frame))],
                                    ok=False)
                return
        channel.pending.append((sender, frame))
        if not channel.connecting:
            self._flush_channel(channel)
        else:
            self._want_write(channel, True)

    def _start_connect(self, channel: _Channel, sender: str) -> bool:
        try:
            host, port = self._address_of(channel.recipient)
        except TransportError:
            self._note_connect_failure(channel, sender)
            return False
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        err = sock.connect_ex((host, port))
        if err not in _CONNECT_OK:
            _close(sock)
            self._note_connect_failure(channel, sender)
            return False
        channel.sock = sock
        channel.connecting = True
        channel.fresh = True
        self._want_write(channel, True)
        # Fold the connect timeout into the timer heap: if the peer has
        # not answered by then, treat the attempt as failed.
        deadline = time.monotonic() + self._connect_timeout
        entry = _TimerEntry(
            lambda: self._connect_deadline(channel, sock, sender))
        heapq.heappush(self._heap, (deadline, next(self._tie), entry))
        return True

    def _connect_deadline(self, channel: _Channel, sock: socket.socket,
                          sender: str) -> None:
        if channel.sock is sock and channel.connecting:
            self._fail_channel(channel, sender)

    def _channel_event(self, channel: _Channel) -> None:
        sock = channel.sock
        if sock is None:
            return
        sender = channel.pending[0][0] if channel.pending else ""
        if channel.connecting:
            err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err != 0:
                self._fail_channel(channel, sender)
                return
            channel.connecting = False
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            if self._obs.enabled:
                self._obs.connection_opened(
                    sender, channel.recipient, channel.ever_connected)
            channel.ever_connected = True
            # The preamble leads every connection.
            channel.out += PREAMBLE
        self._flush_channel(channel)

    def _flush_channel(self, channel: _Channel) -> None:
        sock = channel.sock
        if sock is None or channel.connecting:
            return
        obs = self._obs
        while True:
            if not channel.out:
                if not channel.pending:
                    break
                frames: "list[bytes]" = []
                merged: "list[tuple[str, int]]" = []
                while channel.pending and len(frames) < _WRITE_CHUNK_FRAMES:
                    sender, frame = channel.pending.popleft()
                    frames.append(frame)
                    merged.append((sender, len(frame)))
                if obs.enabled:
                    if len(frames) > 1:
                        obs.frames_coalesced(merged[0][0], channel.recipient,
                                             len(frames))
                    if channel.fresh:
                        channel.fresh = False
                    else:
                        obs.connection_reused(merged[0][0],
                                              channel.recipient)
                channel.out += b"".join(frames)
                channel.unreported.extend(merged)
            try:
                sent = sock.send(channel.out)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._fail_channel(
                    channel,
                    channel.unreported[0][0] if channel.unreported else "")
                return
            if sent <= 0:
                break
            del channel.out[:sent]
            if not channel.out and channel.unreported:
                self._report_frames(channel.recipient, channel.unreported,
                                    ok=True)
                channel.unreported = []
        self._want_write(channel,
                         bool(channel.out or channel.pending
                              or channel.connecting))

    def _fail_channel(self, channel: _Channel, sender: str) -> None:
        """Tear down a broken/unreachable channel; frames are lost (the
        reliable layer retransmits) and the next enqueue reconnects
        after a short backoff."""
        lost = channel.unreported + [(s, len(f)) for s, f in channel.pending]
        channel.unreported = []
        channel.pending.clear()
        channel.out = bytearray()
        sock = channel.sock
        channel.sock = None
        channel.connecting = False
        if sock is not None:
            self._unregister(sock)
            _close(sock)
        channel.registered = False
        channel.next_attempt = time.monotonic() + RECONNECT_BACKOFF
        if self._obs.enabled:
            self._obs.connection_failed(sender, channel.recipient)
        if lost:
            self._report_frames(channel.recipient, lost, ok=False)

    def _note_connect_failure(self, channel: _Channel, sender: str) -> None:
        channel.next_attempt = time.monotonic() + RECONNECT_BACKOFF
        if self._obs.enabled:
            self._obs.connection_failed(sender, channel.recipient)

    def _report_frames(self, recipient: str,
                       frames: "list[tuple[str, int]]", ok: bool) -> None:
        obs = self._obs
        if not obs.enabled:
            return
        for sender, size in frames:
            obs.raw_send(sender, recipient, size, ok)

    def _want_write(self, channel: _Channel, want: bool) -> None:
        sock = channel.sock
        if sock is None:
            return
        if want and not channel.registered:
            self._selector.register(sock, selectors.EVENT_WRITE,
                                    ("out", channel))
            channel.registered = True
        elif not want and channel.registered:
            self._unregister(sock)
            channel.registered = False

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def _unregister(self, sock: socket.socket) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError, OSError):
            pass

    def _teardown_all(self) -> None:
        for sock in self._listen_socks.values():
            _shutdown_close(sock)
        self._listen_socks.clear()
        for inbound in list(self._inbound):
            _shutdown_close(inbound.sock)
        self._inbound.clear()
        for channel in self._channels.values():
            if channel.sock is not None:
                _close(channel.sock)
                channel.sock = None
        self._channels.clear()
        _close(self._wake_r)
        _close(self._wake_w)
        try:
            self._selector.close()
        except OSError:
            pass


def _close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


def _shutdown_close(sock: socket.socket) -> None:
    # shutdown() before close(): a peer blocked in recv() on the other
    # end must observe EOF, and the in-kernel reference must not keep a
    # restarted listener from rebinding the port.
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    _close(sock)
