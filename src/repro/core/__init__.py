"""The B2BObjects public API (Figure 4).

Typical usage::

    from repro.core import Community, DictB2BObject

    community = Community(["OrgA", "OrgB"])
    controllers = community.found_object(
        "order", {"OrgA": DictB2BObject(), "OrgB": DictB2BObject()}
    )
    controller = controllers["OrgA"]
    obj = controller.b2b_object
    controller.enter()
    controller.overwrite()
    obj.set_attribute("widget1", {"quantity": 2})
    controller.leave()          # coordinates; raises ValidationFailed on veto
"""

from repro.core.community import Community, two_party_community
from repro.core.composite import (
    CompositeB2BObject,
    CompositeTicket,
    submit_transaction,
)
from repro.core.controller import (
    B2BObjectController,
    CoordinationTicket,
    ObjectMergerAdapter,
    ObjectValidatorAdapter,
)
from repro.core.modes import (
    ALL_MODES,
    ASYNCHRONOUS,
    DEFERRED_SYNCHRONOUS,
    SYNCHRONOUS,
    validate_mode,
)
from repro.core.locks import (
    LockingController,
    LockManager,
    ReadersWriterLock,
    install_locking,
)
from repro.core.node import OrganisationNode
from repro.core.object import B2BObject, DictB2BObject
from repro.core.readcache import (
    ReadCache,
    ReadMode,
    ReadResult,
    Snapshot,
    bounded,
    cached,
    parse_read_mode,
    settled,
)
from repro.core.runtime import Runtime, SimRuntime, ThreadedRuntime
from repro.core.shards import Shard, ShardMap, ShardScheduler
from repro.core.wrapper import CoordinatedProxy, WrappedB2BObject, wrap_object

__all__ = [
    "Community",
    "two_party_community",
    "CompositeB2BObject",
    "CompositeTicket",
    "submit_transaction",
    "B2BObjectController",
    "CoordinationTicket",
    "ObjectMergerAdapter",
    "ObjectValidatorAdapter",
    "ALL_MODES",
    "ASYNCHRONOUS",
    "DEFERRED_SYNCHRONOUS",
    "SYNCHRONOUS",
    "validate_mode",
    "LockingController",
    "LockManager",
    "ReadersWriterLock",
    "install_locking",
    "OrganisationNode",
    "B2BObject",
    "DictB2BObject",
    "ReadCache",
    "ReadMode",
    "ReadResult",
    "Snapshot",
    "bounded",
    "cached",
    "parse_read_mode",
    "settled",
    "Runtime",
    "SimRuntime",
    "ThreadedRuntime",
    "Shard",
    "ShardMap",
    "ShardScheduler",
    "CoordinatedProxy",
    "WrappedB2BObject",
    "wrap_object",
]
