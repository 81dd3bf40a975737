"""Composite transactions across a node's objects: all-or-nothing at
admission under the node's one engine lock, and what survives a restart."""

from __future__ import annotations

import pytest

from repro.core import Community, DictB2BObject, submit_transaction
from repro.core.object import B2BObject
from repro.core.runtime import SimRuntime
from repro.errors import ConfigurationError
from repro.protocol.validation import Decision
from repro.transport.inmemory import LinkProfile


def sim_community(names_or_count, seed=0, **kwargs):
    if isinstance(names_or_count, int):
        names = [f"Org{i + 1}" for i in range(names_or_count)]
    else:
        names = list(names_or_count)
    runtime = SimRuntime(seed=seed, profile=LinkProfile(latency=0.005))
    return Community(names, runtime=runtime, **kwargs)


class CounterObject(B2BObject):
    """Additive-merge counter: double application is visible."""

    def __init__(self) -> None:
        super().__init__()
        self._state = {"applied": 0, "total": 0}

    def get_state(self) -> dict:
        return dict(self._state)

    def apply_state(self, state) -> None:
        self._state = dict(state)

    def merge_update(self, state, update):
        amount = int(update.get("n", 1)) if isinstance(update, dict) else 1
        return {"applied": state["applied"] + 1,
                "total": state["total"] + amount}


class PickyObject(CounterObject):
    """Counter that vetoes negative amounts at validation time."""

    def validate_update(self, update, resulting, current, proposer):
        if isinstance(update, dict) and update.get("n", 1) < 0:
            return Decision.reject("negative amounts forbidden")
        return Decision.accept()


class TestCompositeTransactions:
    def _community(self, seed, cls=CounterObject, objects=("alpha", "beta"),
                   **kwargs):
        community = sim_community(3, seed=seed, **kwargs)
        names = community.names()
        for object_name in objects:
            community.found_object(
                object_name, {name: cls() for name in names})
        return community

    def test_transaction_settles_atomically(self):
        community = self._community(21)
        node = community.node("Org1")
        ticket = node.submit_composite({"alpha": {"n": 3}, "beta": {"n": 5}})
        assert not ticket.aborted
        assert set(ticket.children) == {"alpha", "beta"}
        community.settle()
        assert ticket.done and ticket.valid and not ticket.partial
        for name in community.names():
            controllers = community.node(name).controllers
            assert controllers["alpha"].b2b_object.get_state() == \
                {"applied": 1, "total": 3}
            assert controllers["beta"].b2b_object.get_state() == \
                {"applied": 1, "total": 5}

    def test_rejected_child_aborts_with_nothing_applied(self):
        community = self._community(22, cls=PickyObject)
        node = community.node("Org1")
        ticket = node.submit_composite({"alpha": {"n": 3}, "beta": {"n": -1}})
        assert ticket.aborted
        assert ticket.done and ticket.valid is False
        assert any("beta" in diag and "negative" in diag
                   for diag in ticket.child_diagnostics())
        assert ticket.children == {}
        community.settle()
        # All-or-nothing: the valid sibling was not applied either.
        for name in community.names():
            controllers = community.node(name).controllers
            assert controllers["alpha"].b2b_object.get_state() == \
                {"applied": 0, "total": 0}
            assert controllers["beta"].b2b_object.get_state() == \
                {"applied": 0, "total": 0}

    def test_transaction_atomic_under_concurrent_child_traffic(self):
        community = self._community(23)
        node = community.node("Org1")
        other = community.node("Org2")
        side = [other.submit_update("alpha", {"n": 1}) for _ in range(3)]
        side += [other.submit_update("beta", {"n": 1}) for _ in range(3)]
        ticket = node.submit_composite({"alpha": {"n": 10}, "beta": {"n": 20}})
        community.settle()
        assert ticket.done and ticket.valid and not ticket.partial
        assert all(t.done and t.valid for t in side)
        alpha = node.controllers["alpha"].b2b_object.get_state()
        beta = node.controllers["beta"].b2b_object.get_state()
        # Each child applied the transaction exactly once plus the side
        # traffic — no partial or double application anywhere.
        assert alpha == {"applied": 4, "total": 13}
        assert beta == {"applied": 4, "total": 23}

    def test_composite_object_under_batched_pipeline(self):
        from repro.core import CompositeB2BObject

        community = sim_community(2, seed=26)
        names = community.names()
        composites = {
            name: CompositeB2BObject(
                {"left": CounterObject(), "right": CounterObject()})
            for name in names
        }
        community.found_object("bundle", composites)
        node = community.node("Org1")
        node.pipeline("bundle", max_batch=8)
        tickets = [
            node.submit_update("bundle", {"left": {"n": 1}})
            for _ in range(5)
        ] + [
            node.submit_update("bundle", {"right": {"n": 2}})
            for _ in range(5)
        ]
        community.settle()
        assert all(t.done and t.valid for t in tickets)
        # The queued updates coalesced into batched runs, and the batch
        # folded through the composite merge child by child.
        engine = node.party.session("bundle").state
        assert engine.agreed_sid.seq < len(tickets)
        for name in names:
            state = composites[name].get_state()
            assert state["left"] == {"applied": 5, "total": 5}
            assert state["right"] == {"applied": 5, "total": 10}

    def test_empty_transaction_rejected(self):
        community = self._community(24)
        with pytest.raises(ConfigurationError):
            submit_transaction(community.node("Org1"), {})

    def test_children_admitted_in_name_order(self):
        community = self._community(25, objects=tuple(
            f"obj-{i}" for i in (3, 0, 5, 1, 4, 2)))
        node = community.node("Org1")
        updates = {f"obj-{i}": {"n": 1} for i in (5, 2, 0, 4, 1, 3)}
        ticket = node.submit_composite(updates)
        assert ticket.object_names == sorted(updates)
        community.settle()
        assert ticket.valid

    def test_restart_restores_every_child(self, tmp_path):
        community = self._community(14, storage_dir=str(tmp_path))
        ticket = community.node("Org1").submit_composite(
            {"alpha": {"n": 3}, "beta": {"n": 5}})
        community.settle()
        assert ticket.valid
        replacement = community.restart_node("Org1")
        restored = {name: CounterObject() for name in ("alpha", "beta")}
        for name, replica in restored.items():
            replacement.restore_object(name, replica)
        community.settle()
        assert restored["alpha"].get_state() == {"applied": 1, "total": 3}
        assert restored["beta"].get_state() == {"applied": 1, "total": 5}


def test_many_objects_settle_on_one_engine_lock():
    community = sim_community(3, seed=11)
    names = community.names()
    objects = [f"obj-{i}" for i in range(12)]
    for object_name in objects:
        community.found_object(
            object_name, {name: DictB2BObject() for name in names})
    node = community.node("Org1")
    tickets = [node.submit_update(object_name, {"k": object_name})
               for object_name in objects]
    community.settle()
    assert all(t.done and t.valid for t in tickets)
    assert sorted(node.pipelines) == sorted(objects)
    for object_name in objects:
        for name in names:
            state = community.node(name).controllers[
                object_name].b2b_object.get_state()
            assert state == {"k": object_name}
