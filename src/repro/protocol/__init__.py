"""Coordination protocols: the paper's core contribution.

* :mod:`repro.protocol.coordination` — the non-repudiable state
  coordination protocol (section 4.3, overwrite and update variants).
* :mod:`repro.protocol.membership` — connection, voluntary disconnection
  and eviction protocols with sponsor roles (section 4.5).
* :mod:`repro.protocol.evidence` / :mod:`repro.protocol.dispute` —
  stand-alone evidence verification and extra-protocol arbitration.
* :mod:`repro.protocol.baseline` — plain 2PC comparator for benchmarks.
"""

from repro.protocol.baseline import PlainTwoPhaseEngine
from repro.protocol.context import PartyContext
from repro.protocol.coordination import (
    OUTCOME_INVALID,
    OUTCOME_VALID,
    RunState,
    StateCoordinationEngine,
    freeze,
)
from repro.protocol.dispute import (
    RULING_REJECTED,
    RULING_UNDECIDABLE,
    RULING_UPHELD,
    Arbiter,
    Ruling,
)
from repro.protocol.events import (
    ConnectionDecided,
    DisconnectionDecided,
    Event,
    MembershipChanged,
    MisbehaviourEvent,
    Output,
    RunBlocked,
    RunCompleted,
    StateInstalled,
    StateRolledBack,
)
from repro.protocol.evidence import (
    VerifiedDecision,
    find_equivocation,
    verify_authenticated_decision,
)
from repro.protocol.group import FIXED, ROTATING, GroupView
from repro.protocol.ids import (
    GroupId,
    StateId,
    initial_group_id,
    initial_state_id,
    new_group_id,
    new_state_id,
)
from repro.protocol.membership import JoinClient, MembershipEngine, MembershipRun
from repro.protocol.party import ObjectSession, ProtocolParty, extract_object_name
from repro.protocol.pipeline import (
    Overwrite,
    PipelineTicket,
    ProposalPipeline,
    Ticket,
    is_transient_rejection,
)
from repro.protocol.validation import (
    ACCEPT,
    REJECT,
    AcceptAllValidator,
    CallbackValidator,
    Decision,
    StateMerger,
    Validator,
)

__all__ = [
    "PlainTwoPhaseEngine",
    "PartyContext",
    "OUTCOME_INVALID",
    "OUTCOME_VALID",
    "RunState",
    "StateCoordinationEngine",
    "freeze",
    "RULING_REJECTED",
    "RULING_UNDECIDABLE",
    "RULING_UPHELD",
    "Arbiter",
    "Ruling",
    "ConnectionDecided",
    "DisconnectionDecided",
    "Event",
    "MembershipChanged",
    "MisbehaviourEvent",
    "Output",
    "RunBlocked",
    "RunCompleted",
    "StateInstalled",
    "StateRolledBack",
    "VerifiedDecision",
    "find_equivocation",
    "verify_authenticated_decision",
    "FIXED",
    "ROTATING",
    "GroupView",
    "GroupId",
    "StateId",
    "initial_group_id",
    "initial_state_id",
    "new_group_id",
    "new_state_id",
    "JoinClient",
    "MembershipEngine",
    "MembershipRun",
    "ObjectSession",
    "ProtocolParty",
    "extract_object_name",
    "Overwrite",
    "PipelineTicket",
    "ProposalPipeline",
    "Ticket",
    "is_transient_rejection",
    "ACCEPT",
    "REJECT",
    "AcceptAllValidator",
    "CallbackValidator",
    "Decision",
    "StateMerger",
    "Validator",
]
