"""The public B2BObjects API: controller scoping, modes, wrappers."""

from __future__ import annotations

import inspect
import pathlib
import re
import threading
import time

import pytest

import repro
from repro.core import (
    ASYNCHRONOUS,
    DEFERRED_SYNCHRONOUS,
    SYNCHRONOUS,
    Community,
    CompositeB2BObject,
    DictB2BObject,
    OrganisationNode,
    ThreadedRuntime,
    wrap_object,
)
from repro.core.controller import B2BObjectController, CoordinationTicket
from repro.core.modes import validate_mode
from repro.errors import (
    ConfigurationError,
    PipelineSaturatedError,
    ProtocolBlocked,
    ProtocolError,
    ValidationFailed,
)
from repro.faults.byzantine import SelectiveCommit, SuppressCommits
from repro.protocol.events import RunCompleted
from repro.protocol.pipeline import is_transient_rejection
from repro.protocol.validation import Decision


def found_dict(community, names=None, object_name="shared", **kwargs):
    names = names or community.names()
    objects = {name: DictB2BObject() for name in names}
    controllers = community.found_object(object_name, objects, **kwargs)
    return controllers, objects


class TestScoping:
    def test_overwrite_scope_coordinates_on_final_leave(self, community2):
        controllers, objects = found_dict(community2)
        controller = controllers["Org1"]
        controller.enter()
        controller.overwrite()
        objects["Org1"].set_attribute("k", 1)
        controller.leave()
        community2.settle()
        assert objects["Org2"].get_attribute("k") == 1

    def test_nested_scopes_roll_up_to_one_coordination(self, community2):
        controllers, objects = found_dict(community2)
        controller = controllers["Org1"]
        network = community2.runtime.network
        before = network.stats.sent
        controller.enter()
        controller.overwrite()
        objects["Org1"].set_attribute("a", 1)
        controller.enter()
        objects["Org1"].set_attribute("b", 2)
        controller.leave()  # inner: no coordination yet
        assert objects["Org2"].get_attribute("a") is None
        controller.leave()  # outer: coordinates both changes at once
        community2.settle()
        assert objects["Org2"].attributes() == {"a": 1, "b": 2}
        # exactly one protocol run: one proposal evidence record
        log = community2.node("Org1").ctx.evidence
        assert len(list(log.entries("proposal-sent"))) == 1

    def test_examine_scope_does_not_coordinate(self, community2):
        controllers, objects = found_dict(community2)
        controller = controllers["Org1"]
        log = community2.node("Org1").ctx.evidence
        controller.enter()
        controller.examine()
        _ = objects["Org1"].attributes()
        assert controller.leave() is None
        assert list(log.entries("proposal-sent")) == []

    def test_plain_scope_defaults_to_read(self, community2):
        controllers, _ = found_dict(community2)
        controller = controllers["Org1"]
        controller.enter()
        assert controller.leave() is None

    def test_mixing_update_and_overwrite_rejected(self, community2):
        controllers, _ = found_dict(community2)
        controller = controllers["Org1"]
        controller.enter()
        controller.overwrite()
        with pytest.raises(ProtocolError, match="mix"):
            controller.update()
        controller._access = None
        controller.leave()

    def test_access_outside_scope_rejected(self, community2):
        controllers, _ = found_dict(community2)
        controller = controllers["Org1"]
        with pytest.raises(ProtocolError, match="outside"):
            controller.overwrite()
        with pytest.raises(ProtocolError, match="outside"):
            controller.leave()

    def test_update_scope_sends_delta(self, community2):
        controllers, objects = found_dict(community2)
        c1 = controllers["Org1"]
        c1.enter(); c1.overwrite()
        objects["Org1"].set_attribute("base", 1)
        c1.leave()
        community2.settle()
        c1.enter(); c1.update()
        objects["Org1"].set_attribute("delta", 2)
        c1.leave()
        community2.settle()
        assert objects["Org2"].attributes() == {"base": 1, "delta": 2}

    def test_sync_coord_forces_coordination(self, community2):
        controllers, objects = found_dict(community2)
        objects["Org1"]._attributes["direct"] = 1  # out-of-band mutation
        controllers["Org1"].sync_coord()
        community2.settle()
        assert objects["Org2"].get_attribute("direct") == 1

    def test_validation_response_hook_records_decisions(self, community2):
        controllers, objects = found_dict(community2)
        c1 = controllers["Org1"]
        c1.enter(); c1.overwrite()
        objects["Org1"].set_attribute("k", 1)
        c1.leave()
        community2.settle()
        # the *responder* ran validation
        assert controllers["Org2"].last_validation is not None
        kind, decision = controllers["Org2"].last_validation
        assert kind == "state" and decision.accepted


class TestModes:
    def test_validate_mode(self):
        assert validate_mode(SYNCHRONOUS) == SYNCHRONOUS
        with pytest.raises(ValueError):
            validate_mode("psychic")

    def test_synchronous_raises_on_veto(self, community2):
        controllers, objects = found_dict(community2)

        class Veto(DictB2BObject):
            def validate_state(self, proposed, current, proposer):
                return Decision.reject("nope")

        community2.node("Org2").party.session("shared").state.validator = (
            __import__("repro.protocol.validation",
                       fromlist=["CallbackValidator"]).CallbackValidator(
                state=lambda p, c, pr: Decision.reject("nope"))
        )
        c1 = controllers["Org1"]
        c1.enter(); c1.overwrite()
        objects["Org1"].set_attribute("k", 1)
        with pytest.raises(ValidationFailed) as excinfo:
            c1.leave()
        assert any("nope" in d for d in excinfo.value.diagnostics)
        assert objects["Org1"].get_attribute("k") is None  # rolled back

    def test_deferred_mode_returns_pending_ticket(self, community2):
        controllers, objects = found_dict(community2)
        c1 = controllers["Org1"]
        c1.mode = DEFERRED_SYNCHRONOUS
        c1.enter(); c1.overwrite()
        objects["Org1"].set_attribute("k", 1)
        ticket = c1.leave()
        assert isinstance(ticket, CoordinationTicket)
        assert not ticket.done
        c1.coord_commit(ticket)
        assert ticket.done and ticket.valid

    def test_deferred_mode_commit_raises_on_veto(self, community2):
        controllers, objects = found_dict(community2)
        community2.node("Org2").party.session("shared").state.validator = (
            __import__("repro.protocol.validation",
                       fromlist=["CallbackValidator"]).CallbackValidator(
                state=lambda p, c, pr: Decision.reject("vetoed"))
        )
        c1 = controllers["Org1"]
        c1.mode = DEFERRED_SYNCHRONOUS
        c1.enter(); c1.overwrite()
        objects["Org1"].set_attribute("k", 1)
        ticket = c1.leave()
        with pytest.raises(ValidationFailed):
            c1.coord_commit(ticket)

    def test_asynchronous_mode_invokes_coord_callback(self, community2):
        controllers, objects = found_dict(community2)
        received = []

        c1 = controllers["Org1"]
        c1.mode = ASYNCHRONOUS
        objects["Org1"].coord_callback = received.append
        c1.enter(); c1.overwrite()
        objects["Org1"].set_attribute("k", 1)
        ticket = c1.leave()
        community2.settle()
        assert ticket.done and ticket.valid
        assert any(isinstance(e, RunCompleted) for e in received)

    def test_two_deferred_writers_at_one_instant_both_settle(
            self, make_community):
        """Both propose, veto each other ``busy:`` and retry in the
        queue; neither veto reaches the application."""
        community = make_community(3, seed=5)
        controllers, objects = found_dict(community,
                                          mode=DEFERRED_SYNCHRONOUS)
        started = community.runtime.now()
        tickets = []
        for name in ("Org1", "Org2"):
            controller = controllers[name]
            controller.enter(); controller.update()
            objects[name].set_attribute(name, 1)
            tickets.append(controller.leave())
        assert community.runtime.now() == started
        community.settle()
        assert [(t.valid, t.diagnostics) for t in tickets] == [(True, [])] * 2
        for name in community.names():
            assert objects[name].attributes() == {"Org1": 1, "Org2": 1}

    def test_asynchronous_leave_does_not_wait_for_a_busy_engine(
            self, community3):
        controllers, objects = found_dict(community3)
        received = []
        c1 = controllers["Org1"]
        c1.mode = ASYNCHRONOUS
        objects["Org1"].coord_callback = received.append
        c1.enter(); c1.update()
        objects["Org1"].set_attribute("mine", 1)
        community3.node("Org2").submit_update("shared", {"theirs": 2})
        engine = community3.node("Org1").party.session("shared").state
        assert community3.runtime.wait_until(lambda: engine.busy, 5.0)
        now = community3.runtime.now()
        ticket = c1.leave()  # Org1 is mid-run as a responder
        assert community3.runtime.now() == now and not ticket.done
        assert ticket.run_id is None  # queued: no run carries it yet
        community3.settle()
        assert ticket.done and ticket.valid
        mine = [e for e in received if isinstance(e, RunCompleted)
                and e.role == "proposer"]
        assert [(e.run_id, e.valid) for e in mine] == [(ticket.run_id, True)]
        assert objects["Org3"].attributes() == {"mine": 1, "theirs": 2}


class TestOneWritePath:
    """A controller's write queues where ``submit_update`` does."""

    def test_two_synchronous_writers_over_tcp(self):
        """2 x 50 ``leave()`` to one object: no ``ConcurrencyError`` or
        ``busy:`` veto reaches a caller, and nobody sleeps a fixed delay
        (25 s and a leaked error before controllers used the queue)."""
        community = Community(["Org1", "Org2", "Org3"],
                              runtime=ThreadedRuntime())
        try:
            controllers, objects = found_dict(community)
            errors = []

            def writer(name):
                controller = controllers[name]
                try:
                    for index in range(50):
                        controller.enter(); controller.update()
                        objects[name].set_attribute(f"{name}-{index}", index)
                        controller.leave()
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(name,))
                       for name in ("Org1", "Org2")]
            started = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            elapsed = time.monotonic() - started
            assert not errors, errors
            assert not any(thread.is_alive() for thread in threads)
            assert elapsed < 10.0, elapsed
            assert community.runtime.wait_until(
                lambda: all(len(objects[name].attributes()) == 100
                            for name in community.names()), 5.0)
            assert (objects["Org1"].attributes()
                    == objects["Org2"].attributes()
                    == objects["Org3"].attributes())
        finally:
            community.close()

    def test_synchronous_leave_waits_on_the_tickets_signal(self,
                                                           monkeypatch):
        community = Community(["Org1", "Org2", "Org3"],
                              runtime=ThreadedRuntime())
        try:
            controllers, objects = found_dict(community)
            monkeypatch.setattr(ThreadedRuntime, "POLL_INTERVAL", 5.0)
            controller = controllers["Org1"]
            started = time.monotonic()
            controller.enter(); controller.update()
            objects["Org1"].set_attribute("k", 1)
            controller.leave()
            assert time.monotonic() - started < 2.0
            assert controller.agreed_state() == {"k": 1}
        finally:
            community.close()

    def test_one_queue_bound_whoever_writes(self, community2):
        controllers, objects = found_dict(community2,
                                          mode=DEFERRED_SYNCHRONOUS)
        node = community2.node("Org1")
        controller = controllers["Org1"]
        controller.enter(); controller.update()
        objects["Org1"].set_attribute("k", 1)
        session = node.gateway(queue_capacity=2).session("client")
        for index in range(3):  # one in flight, two queued: at the bound
            session.submit("shared", {f"g{index}": index})
        pipe = node.pipeline_for("shared")
        assert pipe.depth == pipe.max_depth == 2
        with pytest.raises(PipelineSaturatedError):
            controller.leave()
        assert pipe.depth == 2
        community2.settle()
        assert "k" not in controllers["Org2"].agreed_state()

    def test_exhausted_busy_retries_raise_validation_failed(self,
                                                            community3):
        """Org1 withholds its m3 from Org2 only, which stays busy for
        good; Org3 is free, so its write is proposed, vetoed ``busy:``
        by Org2 and retried until the pipeline's attempts are spent."""
        controllers, objects = found_dict(community3)
        SelectiveCommit(community3.node("Org1"), excluded=["Org2"])
        community3.node("Org1").submit_update("shared", {"stuck": 1})
        community3.settle(1.0)
        assert community3.node("Org2").party.session("shared").state.busy
        controller = controllers["Org3"]
        controller.enter(); controller.update()
        objects["Org3"].set_attribute("k", 1)
        with pytest.raises(ValidationFailed) as excinfo:
            controller.leave()
        assert excinfo.value.diagnostics[0] == (
            "Org2: busy: concurrent coordination run active")
        assert is_transient_rejection(excinfo.value.diagnostics)
        pipe = community3.node("Org3").pipeline_for("shared")
        assert pipe.busy_retries == pipe.max_busy_retries == 20
        assert pipe.depth == 0 and pipe.inflight_run_id is None
        assert community3.node("Org3")._own_runs == 0

    def test_blocked_write_says_where_it_is(self, community3):
        controllers, objects = found_dict(community3,
                                          mode=DEFERRED_SYNCHRONOUS)
        SuppressCommits(community3.node("Org1"))

        def write(name):
            controller = controllers[name]
            controller.enter(); controller.update()
            objects[name].set_attribute(name, 1)
            return controller, controller.leave()

        controller, ticket = write("Org1")
        community3.settle(1.0)  # Org2 and Org3 now wait for m3 for good
        queued_controller, queued = write("Org2")
        assert ticket.run_id and queued.run_id is None
        with pytest.raises(ProtocolBlocked, match="still queued"):
            queued_controller.coord_commit(queued, timeout=1.0)
        controller.coord_commit(ticket)  # its proposer counts it settled
        controller, ticket = write("Org1")  # in flight: vetoed, retried
        with pytest.raises(ProtocolBlocked,
                           match=f"run {ticket.run_id[:12]}"):
            controller.coord_commit(ticket, timeout=0.001)


class TestWrapper:
    class Ledger:
        def __init__(self):
            self._state = {"total": 0}

        def get_state(self):
            return dict(self._state)

        def apply_state(self, state):
            self._state = dict(state)

        def deposit(self, amount):
            self._state["total"] += amount
            return self._state["total"]

        def total(self):
            return self._state["total"]

    def test_wrapped_write_method_coordinates(self, community2):
        from repro.core.wrapper import WrappedB2BObject
        ledgers = {n: self.Ledger() for n in community2.names()}
        objects = {n: WrappedB2BObject(ledger)
                   for n, ledger in ledgers.items()}
        controllers = community2.found_object("ledger", objects)
        proxy = wrap_object(ledgers["Org1"], controllers["Org1"],
                            write_methods=["deposit"], read_methods=["total"])
        assert proxy.deposit(10) == 10
        community2.settle()
        assert ledgers["Org2"].total() == 10
        assert proxy.total() == 10

    def test_wrapped_validation_rule(self, community2):
        from repro.core.wrapper import WrappedB2BObject

        def no_negative(proposed, current, proposer):
            if proposed["total"] < 0:
                return Decision.reject("negative balance")
            return Decision.accept()

        ledgers = {n: self.Ledger() for n in community2.names()}
        objects = {n: WrappedB2BObject(ledger, validate_state=no_negative)
                   for n, ledger in ledgers.items()}
        controllers = community2.found_object("ledger", objects)
        proxy = wrap_object(ledgers["Org1"], controllers["Org1"],
                            write_methods=["deposit"])
        with pytest.raises(ValidationFailed):
            proxy.deposit(-5)
        community2.settle()
        assert ledgers["Org1"].total() == 0  # rolled back
        assert ledgers["Org2"].total() == 0

    def test_wrapper_requires_accessors(self):
        from repro.core.wrapper import WrappedB2BObject
        with pytest.raises(ConfigurationError):
            WrappedB2BObject(object())

    def test_proxy_rejects_unknown_methods(self, community2):
        ledgers = {n: self.Ledger() for n in community2.names()}
        from repro.core.wrapper import WrappedB2BObject
        objects = {n: WrappedB2BObject(ledger) for n, ledger in ledgers.items()}
        controllers = community2.found_object("ledger", objects)
        with pytest.raises(ConfigurationError):
            wrap_object(ledgers["Org1"], controllers["Org1"],
                        write_methods=["no_such_method"])

    def test_proxy_failure_inside_method_closes_scope(self, community2):
        ledgers = {n: self.Ledger() for n in community2.names()}
        from repro.core.wrapper import WrappedB2BObject
        objects = {n: WrappedB2BObject(ledger) for n, ledger in ledgers.items()}
        controllers = community2.found_object("ledger", objects)
        proxy = wrap_object(ledgers["Org1"], controllers["Org1"],
                            write_methods=["deposit"])
        with pytest.raises(TypeError):
            proxy.deposit("not-a-number")
        # scope was unwound; a subsequent good call works
        proxy.deposit(5)
        community2.settle()
        assert ledgers["Org2"].total() == 5


class TestComposite:
    def test_composite_coordinates_children_atomically(self, community2):
        composites = {}
        children = {}
        for name in community2.names():
            order = DictB2BObject()
            invoice = DictB2BObject()
            children[name] = (order, invoice)
            composites[name] = CompositeB2BObject(
                {"order": order, "invoice": invoice}
            )
        controllers = community2.found_object("bundle", composites)
        c1 = controllers["Org1"]
        order1, invoice1 = children["Org1"]
        c1.enter(); c1.overwrite()
        order1.set_attribute("widget", 2)
        invoice1.set_attribute("amount", 20)
        c1.leave()
        community2.settle()
        order2, invoice2 = children["Org2"]
        assert order2.get_attribute("widget") == 2
        assert invoice2.get_attribute("amount") == 20

    def test_child_veto_rejects_whole_composite(self, community2):
        class PickyChild(DictB2BObject):
            def validate_state(self, proposed, current, proposer):
                if proposed.get("bad"):
                    return Decision.reject("child says no")
                return Decision.accept()

        composites = {}
        children = {}
        for name in community2.names():
            good = DictB2BObject()
            picky = PickyChild()
            children[name] = (good, picky)
            composites[name] = CompositeB2BObject({"good": good, "picky": picky})
        controllers = community2.found_object("bundle", composites)
        c1 = controllers["Org1"]
        good1, picky1 = children["Org1"]
        c1.enter(); c1.overwrite()
        good1.set_attribute("x", 1)
        picky1.set_attribute("bad", True)
        with pytest.raises(ValidationFailed) as excinfo:
            c1.leave()
        assert any("picky: child says no" in d
                   for d in excinfo.value.diagnostics)
        community2.settle()
        good2, picky2 = children["Org2"]
        assert good2.get_attribute("x") is None  # atomicity: nothing landed

    def test_composite_requires_children(self):
        with pytest.raises(ConfigurationError):
            CompositeB2BObject({})

    def test_composite_state_shape_enforced(self):
        composite = CompositeB2BObject({"a": DictB2BObject()})
        with pytest.raises(ConfigurationError):
            composite.apply_state({"b": {}})

    def test_composite_update_merge(self):
        composite = CompositeB2BObject(
            {"a": DictB2BObject({"x": 1}), "b": DictB2BObject()}
        )
        merged = composite.merge_update(
            {"a": {"x": 1}, "b": {}}, {"a": {"y": 2}}
        )
        assert merged == {"a": {"x": 1, "y": 2}, "b": {}}


class TestTicketRegistry:
    def test_resolved_tickets_leave_the_registry(self, make_community):
        """Every synchronous ``leave()`` tracks a ticket by run id; the
        node forgets it once resolved instead of pinning the ticket and
        its ``RunCompleted`` event for the life of the node."""
        community = make_community(["A", "B", "C"])
        objects = {"A": DictB2BObject(), "B": DictB2BObject()}
        controllers = community.found_object("shared", objects)
        node = community.node("A")
        controller = controllers["A"]
        for index in range(200):
            controller.enter()
            controller.update()
            objects["A"].set_attribute("k", index)
            controller.leave()
        community.settle()
        assert objects["B"].get_attribute("k") == 199
        assert node._tickets == {}
        # Membership tickets resolve through the same registry.
        joiner = community.node("C")
        join = joiner.propagate_connect("shared", DictB2BObject(), "B")
        assert joiner.wait_for_ticket(join) and join.valid
        assert join.kind == "connect" and joiner._tickets == {}
        community.settle()
        leave = joiner.propagate_disconnect("shared")
        assert joiner.wait_for_ticket(leave) and leave.valid
        community.settle()
        evict = node.propagate_eviction("shared", ["B"])
        assert node.wait_for_ticket(evict) and evict.valid
        assert controller.members() == ["A"]
        assert node._tickets == {} and joiner._tickets == {}


class TestOptionRatchet:
    """The constructor options of the write path, pinned.  Adding a knob
    means editing this list and saying which two callers need different
    values; a value the code can derive is not an option."""

    PINNED = {
        "repro.gateway.gateway:Gateway": (
            "node", "queue_capacity", "rate", "burst", "breaker",
            "idempotency_capacity", "pipeline_options"),
        "repro.protocol.pipeline:ProposalPipeline": (
            "engine", "max_batch", "max_busy_retries", "base_retry_delay",
            "max_retry_delay", "max_depth"),
        "repro.core.node:OrganisationNode": (
            "ctx", "runtime", "certificate_resolver", "certificate",
            "retransmit_interval", "default_timeout"),
        "repro.core.community:Community": (
            "names", "runtime", "seed", "key_bits", "retransmit_interval",
            "clock", "storage_dir", "obs", "num_shards"),
        # No retry settings: a write is retried by the queue it waits in.
        "repro.core.controller:B2BObjectController": (
            "node", "object_name", "b2b_object", "mode", "timeout"),
        "repro.agents.relay:StateRelay": (
            "node", "source", "target", "transform"),
        "repro.agents.trusted_agent:TrustedAgent": (
            "node", "inner_object", "outer_object", "policy"),
        "repro.agents.ttp:ValidatingTTP": ("node", "side_objects"),
        # `codec` and `reactor` accept one value each, only for the
        # end-to-end benchmark; one framing, so no frame options.
        "repro.transport.tcp:TcpNetwork": (
            "host", "connect_timeout", "obs", "drop_probability",
            "drop_seed", "codec", "reactor", "max_frame"),
        "repro.wire.framing:EnvelopeEncoder": (),
        "repro.wire.framing:FrameDecoder": ("max_frame",),
    }

    #: Bytes of ``src/repro/**/*.py``.
    SOURCE_BYTES = 780_610

    @pytest.mark.parametrize("target", sorted(PINNED))
    def test_constructor_parameters(self, target):
        module_name, _, class_name = target.partition(":")
        cls = getattr(__import__(module_name, fromlist=[class_name]),
                      class_name)
        parameters = tuple(inspect.signature(cls.__init__).parameters)[1:]
        assert parameters == self.PINNED[target]

    def test_a_node_has_one_engine_lock(self):
        """``num_shards`` and ``node.shards`` stay only for the end-to-end
        benchmark, which passes 1 and asks ``node.shards.pipeline_for``."""
        community = Community(["A"], num_shards=1)
        found_dict(community)
        node = community.node("A")
        node.submit_update("shared", {"k": 1})
        assert node.shards.pipeline_for("shared") is node.pipelines["shared"]
        with pytest.raises(ConfigurationError, match="one engine lock"):
            Community(["A"], num_shards=2)

    def test_source_bytes_are_pinned(self):
        """``src/repro``'s size, exactly: a change that shrinks it lowers
        the constant, one that grows it says by how much and why."""
        root = pathlib.Path(repro.__file__).parent
        size = sum(len(path.read_bytes()) for path in root.rglob("*.py"))
        assert size == self.SOURCE_BYTES

    def test_the_controller_has_no_retry_policy_of_its_own(self):
        assert not hasattr(B2BObjectController, "max_transient_retries")
        assert not hasattr(B2BObjectController, "transient_retry_delay")

    def test_one_way_to_agree_across_objects(self):
        """Atomic multi-object agreement is a ``CompositeB2BObject``
        settled by one run; there is no per-child transaction path."""
        assert not hasattr(OrganisationNode, "submit_composite")
        assert not hasattr(repro.core, "submit_transaction")
        assert not hasattr(repro.core, "CompositeTicket")

    def test_only_the_pipeline_proposes(self):
        """One write path: nothing else under ``src/repro`` starts a
        state run."""
        root = pathlib.Path(repro.__file__).parent
        call = re.compile(r"\.propose_(update|update_batch|overwrite)\(")
        callers = {path.relative_to(root).as_posix()
                   for path in root.rglob("*.py")
                   if call.search(path.read_text(encoding="utf-8"))}
        assert callers == {"protocol/pipeline.py"}
