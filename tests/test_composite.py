"""Agreement across objects is one write to a :class:`CompositeB2BObject`:
one run settles every child it names, or none of them, at every party,
and what settled survives a restart."""

from __future__ import annotations

from repro.core import Community, CompositeB2BObject, DictB2BObject
from repro.core.object import B2BObject
from repro.core.runtime import SimRuntime
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


class NoFives(CounterObject):
    """Counter that vetoes an amount of five."""

    def validate_update(self, update, resulting, current, proposer):
        if isinstance(update, dict) and update.get("n") == 5:
            return Decision.reject("no fives")
        return Decision.accept()


def counters(alpha=CounterObject, beta=CounterObject):
    return CompositeB2BObject({"alpha": alpha(), "beta": beta()})


def zero():
    return {"applied": 0, "total": 0}


class TestCompositeTransactions:
    """Two counters, ``alpha`` and ``beta``, as the children of one
    composite object ``pair`` shared by three organisations."""

    def _community(self, seed, make=counters, **kwargs):
        community = sim_community(3, seed=seed, **kwargs)
        community.found_object(
            "pair", {name: make() for name in community.names()})
        return community

    @staticmethod
    def states(community):
        return [community.node(name).controllers["pair"].b2b_object
                .get_state() for name in community.names()]

    def test_transaction_settles_atomically(self):
        community = self._community(21)
        ticket = community.node("Org1").submit_update(
            "pair", {"alpha": {"n": 3}, "beta": {"n": 5}})
        community.settle()
        assert ticket.done and ticket.valid
        assert self.states(community) == [
            {"alpha": {"applied": 1, "total": 3},
             "beta": {"applied": 1, "total": 5}}] * 3

    def test_rejected_child_aborts_with_nothing_applied(self):
        community = self._community(
            22, make=lambda: counters(PickyObject, PickyObject))
        ticket = community.node("Org1").submit_update(
            "pair", {"alpha": {"n": 3}, "beta": {"n": -1}})
        community.settle()
        assert ticket.done and ticket.valid is False
        assert any("beta: negative" in diag for diag in ticket.diagnostics)
        # All-or-nothing: the valid sibling was not applied either.
        assert self.states(community) == [
            {"alpha": zero(), "beta": zero()}] * 3

    def test_remote_child_veto_applies_nothing_anywhere(self):
        """Only Org2's ``beta`` replica refuses a five: the write naming
        both children is refused as one, at every party."""
        community = sim_community(3, seed=27)
        community.found_object("pair", {
            name: counters(beta=NoFives if name == "Org2" else CounterObject)
            for name in community.names()})
        node = community.node("Org1")
        vetoed = node.submit_update(
            "pair", {"alpha": {"n": 3}, "beta": {"n": 5}})
        community.settle()
        assert vetoed.done and vetoed.valid is False
        assert vetoed.diagnostics == ["Org2: beta: no fives"]
        assert self.states(community) == [
            {"alpha": zero(), "beta": zero()}] * 3
        settled = node.submit_update(
            "pair", {"alpha": {"n": 3}, "beta": {"n": 4}})
        community.settle()
        assert settled.valid
        assert self.states(community) == [
            {"alpha": {"applied": 1, "total": 3},
             "beta": {"applied": 1, "total": 4}}] * 3

    def test_all_children_or_none_under_rival_traffic(self):
        """Org2 writes each child on its own while Org1's write names
        both, and so does Org3's, with a ``beta`` every replica refuses."""
        community = self._community(
            23, make=lambda: counters(PickyObject, PickyObject))
        other = community.node("Org2")
        side = [other.submit_update("pair", {"alpha": {"n": 1}})
                for _ in range(3)]
        side += [other.submit_update("pair", {"beta": {"n": 1}})
                 for _ in range(3)]
        ticket = community.node("Org1").submit_update(
            "pair", {"alpha": {"n": 10}, "beta": {"n": 20}})
        vetoed = community.node("Org3").submit_update(
            "pair", {"alpha": {"n": 100}, "beta": {"n": -1}})
        community.settle()
        assert ticket.done and ticket.valid
        assert vetoed.done and vetoed.valid is False
        assert any("beta: negative" in diag for diag in vetoed.diagnostics)
        assert all(t.done and t.valid for t in side)
        # Each child applied Org1's write exactly once plus the side
        # traffic, and nothing of Org3's: no partial or double
        # application anywhere.
        assert self.states(community) == [
            {"alpha": {"applied": 4, "total": 13},
             "beta": {"applied": 4, "total": 23}}] * 3

    def test_composite_object_under_batched_pipeline(self):
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

    def test_restart_restores_every_child(self, tmp_path):
        community = self._community(14, storage_dir=str(tmp_path))
        ticket = community.node("Org1").submit_update(
            "pair", {"alpha": {"n": 3}, "beta": {"n": 5}})
        community.settle()
        assert ticket.valid
        replacement = community.restart_node("Org1")
        restored = counters()
        replacement.restore_object("pair", restored)
        community.settle()
        assert restored.child("alpha").get_state() == \
            {"applied": 1, "total": 3}
        assert restored.child("beta").get_state() == \
            {"applied": 1, "total": 5}


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
