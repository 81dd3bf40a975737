"""Exception hierarchy for the B2BObjects middleware.

Every error raised by the library derives from :class:`B2BError` so that
applications can catch middleware failures with a single ``except`` clause
while still being able to discriminate the individual failure classes the
paper distinguishes (validation failure, protocol subversion, evidence
tampering, transport faults, ...).
"""

from __future__ import annotations


class B2BError(Exception):
    """Base class for all middleware errors."""


class ConfigurationError(B2BError):
    """The middleware was wired together inconsistently."""


class CryptoError(B2BError):
    """Base class for failures in the cryptographic substrate."""


class KeyGenerationError(CryptoError):
    """A key pair could not be generated with the requested parameters."""


class SignatureError(CryptoError):
    """A signature failed verification or could not be produced."""


class CertificateError(CryptoError):
    """A certificate is invalid, expired, revoked or untrusted."""


class TimestampError(CryptoError):
    """A time-stamp token failed verification."""


class StorageError(B2BError):
    """Base class for persistence failures."""


class LogCorruptionError(StorageError):
    """A non-repudiation log failed its hash-chain integrity check."""


class CheckpointError(StorageError):
    """A checkpoint could not be stored or recovered."""


class TransportError(B2BError):
    """Base class for communication failures."""


class DeliveryError(TransportError):
    """A message could not be delivered within the configured bounds."""


class PartitionError(TransportError):
    """An endpoint is currently unreachable due to a network partition."""


class ProtocolError(B2BError):
    """Base class for coordination-protocol failures."""


class InconsistentMessageError(ProtocolError):
    """Signed and unsigned parts of a protocol message disagree (section 4.4)."""


class ReplayError(ProtocolError):
    """A message from a prior protocol run was replayed."""


class ValidationFailed(ProtocolError):
    """A proposed state transition was vetoed by one or more parties.

    Raised to the application by synchronous-mode ``leave``/``connect``
    calls when the coordination outcome is *invalid*.
    """

    def __init__(self, message: str, diagnostics: "list[str] | None" = None) -> None:
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class ProtocolBlocked(ProtocolError):
    """A protocol run cannot make progress (a party stopped responding).

    The paper deliberately does not guarantee termination under
    misbehaviour; the middleware surfaces the blocked run together with
    the evidence needed for extra-protocol dispute resolution.
    """


class ConcurrencyError(ProtocolError):
    """A coordination request conflicts with an active protocol run."""


class PipelineSaturatedError(ProtocolError):
    """A proposal pipeline's local queue reached its configured bound.

    Raised by :meth:`~repro.protocol.pipeline.ProposalPipeline.submit`
    when ``max_depth`` updates are already queued, so a flooding caller
    (typically a gateway) gets explicit backpressure instead of
    unbounded memory growth.  The update was *not* enqueued; retrying
    after in-flight runs settle is safe.
    """


class MembershipError(ProtocolError):
    """A connection/disconnection request was malformed or illegitimate."""


class NotConnectedError(ProtocolError):
    """An operation requires the controller to be connected to a group."""


class DisputeError(B2BError):
    """Extra-protocol arbitration could not reach a ruling."""


class GatewayError(B2BError):
    """Base class for front-door gateway admission failures.

    All gateway rejections are *pre-coordination*: the update never
    reached the proposal pipeline, so retrying later is always safe.
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        #: Hint, in seconds, for when a retry might be admitted.
        self.retry_after = retry_after


class RateLimitedError(GatewayError):
    """A client exhausted its token bucket; retry after the refill."""


class GatewayOverloadedError(GatewayError):
    """The object's write queue is full; the request was shed."""


class ApplicationError(B2BError):
    """Base class for errors raised by the bundled example applications."""


class RuleViolation(ApplicationError):
    """An application-level validation rule rejected a state change."""
