"""The instrumentation hook interface threaded through the runtime layers.

Every layer that does observable work — protocol engines, the reliable
transport, the crypto substrate, the storage stores — holds an
:class:`Instrumentation` and calls its hook methods at the
interesting moments.  The base class is a complete no-op with
``enabled = False``; hot paths guard any measurement work (sizing a
message, reading a performance counter) behind that flag, so an
uninstrumented deployment pays one attribute read per hook site and
nothing else.

The hooks themselves are described once, in :mod:`repro.obs.catalogue`;
the no-op methods here and the production implementation,
:class:`~repro.obs.recording.RecordingInstrumentation`, are both derived
from it.  Tests may subclass :class:`Instrumentation` directly to probe
a single hook.
"""

from __future__ import annotations

from repro.obs.catalogue import CATALOGUE

# Protocol phases of the state-coordination run (sections 4.3/4.4).
PHASE_M1 = "m1"  # propose
PHASE_M2 = "m2"  # respond
PHASE_M3 = "m3"  # commit

SENT = "sent"
RECEIVED = "received"


# Decimal digits per bit, for sizing integers without str() allocation.
_DIGITS_PER_BIT = 0.30103


def _approx(value) -> int:
    # Exact-type dispatch with scalar leaves inlined in the container
    # loops: this walks every protocol message when recording, so per-
    # node function calls and isinstance chains are what it must avoid.
    kind = type(value)
    if kind is str:
        return len(value) + 2
    if kind is bool:
        return 4 if value else 5
    if kind is int:
        return 1 + int(value.bit_length() * _DIGITS_PER_BIT) + (value < 0)
    if value is None:
        return 4
    if kind is dict:
        total = 2 + max(0, len(value) - 1)
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError("canonical encoding requires str keys")
            inner = type(item)
            if inner is str:
                total += len(key) + len(item) + 5
            elif inner is int:
                total += (len(key) + 4 + (item < 0)
                          + int(item.bit_length() * _DIGITS_PER_BIT))
            else:
                total += len(key) + 3 + _approx(item)
        return total
    if kind is list or kind is tuple:
        total = 2 + max(0, len(value) - 1)
        for item in value:
            inner = type(item)
            if inner is str:
                total += len(item) + 2
            elif inner is int:
                total += (1 + int(item.bit_length() * _DIGITS_PER_BIT)
                          + (item < 0))
            else:
                total += _approx(item)
        return total
    if kind is bytes:
        # {"__b64__":"<base64>"} wrapper around the padded encoding.
        return 14 + 4 * ((len(value) + 2) // 3)
    if kind is float:
        # {"__float__":"<repr>"} wrapper.
        return 15 + len(repr(value))
    if isinstance(value, (str, int, dict, list, tuple, bytes, float)):
        # Subclasses (rare in protocol data) take the generic path.
        if isinstance(value, str):
            return len(value) + 2
        if isinstance(value, bool):
            return 4 if value else 5
        if isinstance(value, int):
            return (1 + int(value.bit_length() * _DIGITS_PER_BIT)
                    + (value < 0))
        if isinstance(value, dict):
            return _approx(dict(value))
        if isinstance(value, (list, tuple)):
            return _approx(list(value))
        if isinstance(value, bytes):
            return 14 + 4 * ((len(value) + 2) // 3)
        return 15 + len(repr(float(value)))
    raise TypeError("not canonically encodable")


def approx_size(value) -> int:
    """Approximate canonical-encoding size of a message, 0 when unencodable.

    Structural estimate of ``len(canonical_bytes(value))`` — exact for
    ASCII payloads bar integer-digit rounding — computed without
    serialising anything: this runs on the protocol hot path for every
    message when instrumentation is recording, and a full JSON encode
    per event is where an instrumented run loses most of its time.
    """
    try:
        return _approx(value)
    except TypeError:
        return 0


#: Single-slot identity memo for :func:`approx_size_cached`.  Holding a
#: strong reference to the last-sized object pins it, so its id cannot
#: be recycled while the memo entry is alive — an ``is`` hit is always
#: the same object, never a lookalike at a reused address.
_last_sized: "tuple | None" = None


def approx_size_cached(value) -> int:
    """:func:`approx_size` with a memo for the immediately-repeated case.

    A protocol broadcast shares one message dict between the sender's
    accounting and (in-process transports) every recipient's, so the
    same object is sized several times in a row.  The memo only ever
    remembers the most recent object: sized dicts are treated as frozen
    by the protocol layer once they are on the wire, and a single slot
    cannot go stale across unrelated messages.
    """
    global _last_sized
    memo = _last_sized
    if memo is not None and memo[0] is value:
        return memo[1]
    size = approx_size(value)
    _last_sized = (value, size)
    return size


class Instrumentation:
    """No-op hook interface; override any subset of methods.

    One method per :data:`~repro.obs.catalogue.CATALOGUE` entry, called
    positionally with the entry's parameters.  All hooks must stay cheap
    and exception-free: they run inline on protocol hot paths.
    ``enabled`` gates the *callers'* measurement work — an
    implementation that records must set it True, and code producing
    hook arguments that cost anything (sizes, timings) must skip that
    work when it is False.
    """

    enabled = False


def _noop(event):
    def hook(self, *args) -> None:
        pass

    hook.__name__ = event.hook
    hook.__doc__ = f"{event.signature}: {event.when}."
    return hook


for _entry in CATALOGUE:
    setattr(Instrumentation, _entry.hook, _noop(_entry))

#: Shared default instance: every layer's "observability off" value.
NULL_INSTRUMENTATION = Instrumentation()
