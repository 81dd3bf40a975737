"""B2BObjects: distributed object middleware for dependable information
sharing between organisations.

A from-scratch Python reproduction of N. Cook, S. Shrivastava and
S. Wheater, "Distributed Object Middleware to Support Dependable
Information Sharing between Organisations", DSN 2002.

The middleware presents the abstraction of object state shared between
mutually distrusting organisations.  Every state change is a proposal
validated by *all* sharing parties via a non-repudiable coordination
protocol; signed, time-stamped evidence of every action is hash-chain
logged, so safety holds even against misbehaving parties, while liveness
holds under bounded temporary failures.

Package map:

``repro.core``       public API: Community, B2BObject, controllers, nodes
``repro.protocol``   coordination + membership protocols, evidence, dispute
``repro.crypto``     RSA signatures, PKI, TSA, hashing, PRNG (from scratch)
``repro.transport``  simulated + TCP networks, once-only reliable layer
``repro.storage``    non-repudiation logs, checkpoints, message journal
``repro.agents``     trusted agents and TTP relays (indirect interaction)
``repro.apps``       Tic-Tac-Toe, order processing, auction, whiteboard
``repro.gateway``    client front door: rate limit, queue bound, idempotency
``repro.faults``     crash/partition injection, byzantine parties, intruder
``repro.extensions`` majority-vote and deadline/TTP termination (sec. 7)
``repro.bench``      workload driver for ``repro simulate`` and the benches
"""

from repro import errors
from repro.core import (
    ASYNCHRONOUS,
    B2BObject,
    B2BObjectController,
    Community,
    CompositeB2BObject,
    DEFERRED_SYNCHRONOUS,
    DictB2BObject,
    OrganisationNode,
    SYNCHRONOUS,
    SimRuntime,
    ThreadedRuntime,
    wrap_object,
)
from repro.errors import ValidationFailed
from repro.protocol import Decision, PipelineTicket, ProposalPipeline

__version__ = "1.0.0"

__all__ = [
    "errors",
    "ASYNCHRONOUS",
    "B2BObject",
    "B2BObjectController",
    "Community",
    "CompositeB2BObject",
    "DEFERRED_SYNCHRONOUS",
    "DictB2BObject",
    "OrganisationNode",
    "SYNCHRONOUS",
    "SimRuntime",
    "ThreadedRuntime",
    "wrap_object",
    "Decision",
    "PipelineTicket",
    "ProposalPipeline",
    "ValidationFailed",
    "__version__",
]
