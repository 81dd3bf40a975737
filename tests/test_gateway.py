"""Tests for repro.gateway: rate limiting, load leveling, idempotency,
back-pressure and the closed-loop load simulator."""

from __future__ import annotations

import pytest

from repro.apps.auction import AuctionObject
from repro.apps.orders import (
    ROLE_CUSTOMER,
    ROLE_DISPATCHER,
    ROLE_SUPPLIER,
    OrderClient,
    OrderObject,
)
from repro.core.community import Community
from repro.crypto.prng import DeterministicRandomSource
from repro.errors import (
    GatewayOverloadedError,
    NotConnectedError,
    PipelineSaturatedError,
    RateLimitedError,
)
from repro.faults import FaultSchedule
from repro.gateway import (
    CounterObject,
    IdempotencyCache,
    LoadSimConfig,
    RateLimiter,
    TokenBucket,
    build_gateway_community,
    run_load_sim,
)
from repro.obs.recording import RecordingInstrumentation
from repro.protocol.validation import Decision


class FakeClock:
    def __init__(self) -> None:
        self.time = 0.0

    def now(self) -> float:
        return self.time

    def advance(self, seconds: float) -> None:
        self.time += seconds


def counter_state(community, object_name, org="Org1"):
    return community.node(org).controllers[object_name].b2b_object.get_state()


# ---------------------------------------------------------------------------
# unit: token bucket / rate limiter
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0, now=0.0)
        assert all(bucket.try_acquire(0.0) for _ in range(3))
        assert not bucket.try_acquire(0.0)
        # Half a second refills one token at 2 tokens/s.
        assert bucket.retry_after(0.0) == pytest.approx(0.5)
        assert bucket.try_acquire(0.5)
        assert not bucket.try_acquire(0.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        bucket.try_acquire(0.0)
        assert bucket.try_acquire(100.0)
        assert bucket.try_acquire(100.0)
        assert not bucket.try_acquire(100.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=2.0, now=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5, now=0.0)


class TestRateLimiter:
    def test_per_client_isolation(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        ok, _ = limiter.admit("hot")
        assert ok
        ok, retry_after = limiter.admit("hot")
        assert not ok and retry_after > 0.0
        ok, _ = limiter.admit("cold")
        assert ok  # an exhausted neighbour does not starve this client

    def test_lru_bound_on_clients(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock, max_clients=2)
        for client in ("a", "b", "c"):
            limiter.admit(client)
        assert len(limiter) == 2
        # "a" was evicted; it starts over with a full bucket.
        ok, _ = limiter.admit("a")
        assert ok


# ---------------------------------------------------------------------------
# unit: idempotency cache
# ---------------------------------------------------------------------------

class TestIdempotencyCache:
    def test_pending_then_completed(self):
        cache = IdempotencyCache(capacity=4)
        cache.note_pending("alice", "k1", "ticket")
        assert cache.lookup("alice", "k1") == "ticket"
        assert cache.lookup("bob", "k1") is None
        cache.complete("alice", "k1", "ticket")
        assert cache.pending_count == 0
        assert cache.lookup("alice", "k1") == "ticket"

    def test_completed_window_is_bounded(self):
        cache = IdempotencyCache(capacity=2)
        for index in range(3):
            cache.complete("alice", f"k{index}", index)
        assert cache.lookup("alice", "k0") is None  # evicted
        assert cache.lookup("alice", "k1") == 1
        assert cache.lookup("alice", "k2") == 2


# ---------------------------------------------------------------------------
# integration: gateway over a simulated community
# ---------------------------------------------------------------------------

class TestGatewayIntegration:
    def test_submission_settles_exactly_once(self):
        community, gateway, name = build_gateway_community(seed=10)
        session = gateway.session("alice")
        ticket = session.submit(name, {"client": "alice", "n": 5})
        assert gateway.wait(ticket, 30.0)
        assert ticket.valid and ticket.run_id and ticket.latency > 0.0
        community.settle()  # let the commit reach the responder too
        for org in ("Org1", "Org2"):
            assert counter_state(community, name, org) == {
                "applied": 1, "total": 5,
            }
        community.close()

    def test_idempotent_retry_pending_and_settled(self):
        community, gateway, name = build_gateway_community(seed=11)
        session = gateway.session("alice")
        first = session.submit(name, {"client": "alice", "n": 1}, key="op-1")
        # Retry while pending: the very same ticket comes back.
        assert session.retry(first) is first
        assert gateway.wait(first, 30.0)
        # Retry after settlement: a replayed view of the original outcome.
        replay = session.retry(first)
        assert replay.replayed and replay.done
        assert replay.valid == first.valid
        assert replay.run_id == first.run_id
        community.settle()
        assert counter_state(community, name)["applied"] == 1
        community.close()

    def test_retry_spans_reconnect(self):
        community, gateway, name = build_gateway_community(seed=12)
        session = gateway.session("alice")
        ticket = session.submit(name, {"client": "alice", "n": 1}, key="op-9")
        assert gateway.wait(ticket, 30.0)
        # A fresh session (reconnect) retrying the same ticket replays.
        reconnected = gateway.session("alice")
        replay = reconnected.retry(ticket)
        assert replay.replayed and replay.run_id == ticket.run_id
        community.settle()
        assert counter_state(community, name)["applied"] == 1
        community.close()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_idempotency_property_random_retries(self, seed):
        """Random submit/retry interleavings across reconnects: every
        ticket for a key observes the original outcome and each key is
        applied exactly once."""
        community, gateway, name = build_gateway_community(seed=seed)
        rng = DeterministicRandomSource(f"gateway-prop:{seed}")
        sessions = [gateway.session("alice") for _ in range(2)]
        keys = [f"op{index}" for index in range(6)]
        submissions = []
        for _ in range(20):
            key = keys[rng.random_below(len(keys))]
            session = sessions[rng.random_below(len(sessions))]
            ticket = session.submit(name, {"client": "alice", "n": 1},
                                    key=key)
            submissions.append((key, ticket))
            if rng.random_below(3) == 0:
                community.settle()  # let some settle between retries
        community.settle()
        original = {}
        for key, ticket in submissions:
            assert ticket.done
            original.setdefault(key, ticket)
            assert ticket.valid == original[key].valid
            assert ticket.run_id == original[key].run_id
        used_keys = {key for key, _ in submissions}
        assert counter_state(community, name)["applied"] == len(used_keys)
        community.close()

    def test_rate_limit_caps_hot_client_without_starving_others(self):
        community, gateway, name = build_gateway_community(
            seed=13, rate=1.0, burst=2.0)
        hot = gateway.session("hot")
        cold = gateway.session("cold")
        hot.submit(name, {"client": "hot", "n": 1})
        hot.submit(name, {"client": "hot", "n": 1})
        with pytest.raises(RateLimitedError) as excinfo:
            hot.submit(name, {"client": "hot", "n": 1})
        assert excinfo.value.retry_after > 0.0
        ticket = cold.submit(name, {"client": "cold", "n": 1})
        assert gateway.wait(ticket, 30.0)
        assert gateway.stats()["rejected"]["rate_limited"] == 1
        community.close()

    def test_full_queue_sheds_with_overload_error(self):
        community, gateway, name = build_gateway_community(
            seed=14, queue_capacity=1)
        session = gateway.session("alice")
        first = session.submit(name, {"client": "alice", "n": 1})
        session.submit(name, {"client": "alice", "n": 1})  # queued
        with pytest.raises(GatewayOverloadedError):
            session.submit(name, {"client": "alice", "n": 1})
        assert gateway.stats()["rejected"]["overloaded"] == 1
        community.settle()
        assert first.done
        community.close()

    def test_pipeline_max_depth_backpressure(self):
        obs = RecordingInstrumentation()
        community, gateway, name = build_gateway_community(seed=15, obs=obs)
        node = community.node("Org1")
        pipe = node.pipeline(name, max_depth=2)
        # First submission goes straight in flight; the next two queue.
        node.submit_update(name, {"n": 1})
        node.submit_update(name, {"n": 1})
        node.submit_update(name, {"n": 1})
        assert pipe.depth == 2
        with pytest.raises(PipelineSaturatedError):
            node.submit_update(name, {"n": 1})
        assert obs.registry.counter_value("pipeline.saturated") == 1
        community.settle()
        community.close()

    def test_shed_write_retried_after_retry_after_settles_once(self):
        """The gateway does not hide pipeline back-pressure behind a
        second queue: a write that meets a full queue is shed, and the
        client's retry after ``retry_after`` settles it exactly once."""
        community, gateway, name = build_gateway_community(
            seed=16, queue_capacity=1, pipeline_options={"max_batch": 1})
        session = gateway.session("alice")
        update = {"client": "alice", "n": 1}
        tickets = [session.submit(name, update) for _ in range(2)]
        with pytest.raises(GatewayOverloadedError) as shed:
            session.submit(name, update, key="third")
        assert shed.value.retry_after > 0.0
        assert gateway.idempotency.pending_count == 2  # the key stays free
        for _ in range(200):
            community.settle(shed.value.retry_after)
            try:
                tickets.append(session.submit(name, update, key="third"))
                break
            except GatewayOverloadedError:
                continue
        community.settle()
        assert len(tickets) == 3 and all(ticket.valid for ticket in tickets)
        assert not tickets[2].replayed
        assert session.retry(tickets[2]).replayed
        assert counter_state(community, name)["applied"] == 3
        community.close()

    def test_write_is_one_ticket_in_one_queue(self):
        """The ticket the client holds *is* the pipeline's entry."""
        community, gateway, name = build_gateway_community(seed=19)
        session = gateway.session("alice")
        tickets = [session.submit(name, {"client": "alice", "n": 1})
                   for _ in range(3)]
        pipe = community.node("Org1").pipeline_for(name)
        run_id, inflight = pipe._inflight
        assert [t for _, t in inflight] == [tickets[0]]
        assert inflight[0][1] is tickets[0]
        assert [t for _, t in pipe._queue] == tickets[1:]
        assert all(queued is held for (_, queued), held
                   in zip(pipe._queue, tickets[1:]))
        assert pipe.depth == 2
        community.settle()
        assert all(t.done and t.valid for t in tickets)
        assert tickets[0].run_id == run_id
        # Kept in the replay window, so it must not pin the run's evidence.
        assert tickets[0].event is None
        community.close()

    def test_unmergeable_write_fails_its_batch_and_frees_its_keys(self):
        """A write the object's merge cannot apply resolves invalid with
        ``merge-failed:`` -- alone, or with the batch it was taken into
        -- instead of vanishing with its idempotency key pending."""
        community, gateway, name = build_gateway_community(seed=24)
        session = gateway.session("alice")
        alone = session.submit(name, {"n": "NaN"})
        assert alone.done and alone.valid is False  # proposed inline
        first = session.submit(name, {"n": 1})
        bad = session.submit(name, {"n": "NaN"}, key="bad")
        innocent = session.submit(name, {"n": 2}, key="innocent")
        assert gateway.idempotency.pending_count == 3
        community.settle()
        assert first.done and first.valid
        for ticket in (alone, bad, innocent):
            assert ticket.done and ticket.valid is False
            assert ticket.diagnostics[0].startswith("merge-failed: ValueError")
        assert gateway.idempotency.pending_count == 0
        assert gateway.stats()["settled_invalid"] == 3
        assert session.submit(name, {"n": 2}, key="innocent").replayed
        again = session.submit(name, {"n": 2})
        community.settle()
        assert again.valid
        assert counter_state(community, name) == {"applied": 2, "total": 3}
        community.close()

    def test_bound_holds_however_the_pipeline_came_to_exist(self):
        """A pipeline created by ``node.submit_update`` before the
        gateway existed still sheds at the gateway's bound."""
        community = Community(["Org1", "Org2"], seed=22)
        community.found_object(
            "shared", {org: CounterObject() for org in community.names()})
        node = community.node("Org1")
        node.submit_update("shared", {"n": 1})  # in flight, unbounded pipe
        assert node.pipeline_for("shared").max_depth is None
        session = node.gateway(queue_capacity=2).session("alice")
        session.submit("shared", {"n": 1})
        session.submit("shared", {"n": 1})
        with pytest.raises(GatewayOverloadedError):
            session.submit("shared", {"n": 1})  # the third waiting write
        community.settle()
        assert counter_state(community, "shared")["applied"] == 3
        community.close()

    def test_write_to_unshared_object_leaves_no_trace(self):
        """A write to an object this node does not share fails before
        anything is recorded, so its key is not wedged as pending."""
        community, gateway, name = build_gateway_community(seed=23)
        session = gateway.session("alice")
        with pytest.raises(NotConnectedError):
            session.submit("nope", {"client": "alice", "n": 1}, key="k1")
        assert gateway.stats()["admitted"] == 0
        assert gateway.idempotency.pending_count == 0
        # The documented retry meets the same error, not a dead ticket.
        with pytest.raises(NotConnectedError):
            session.submit("nope", {"client": "alice", "n": 1}, key="k1")
        community.close()

    def test_failed_hand_off_leaves_the_key_free(self):
        """A write the pipeline refuses for any reason records nothing:
        no pending key and no admission, so its retry is admitted."""
        community, gateway, name = build_gateway_community(seed=24)
        session = gateway.session("alice")
        node = community.node("Org1")
        real_submit = node.submit_update

        def refuse(*args, **kwargs):
            raise NotConnectedError("left the group")

        node.submit_update = refuse
        with pytest.raises(NotConnectedError):
            session.submit(name, {"client": "alice", "n": 1}, key="k1")
        node.submit_update = real_submit
        assert gateway.idempotency.pending_count == 0
        assert gateway.stats()["admitted"] == 0
        retry = session.submit(name, {"client": "alice", "n": 1}, key="k1")
        assert not retry.replayed
        assert gateway.wait(retry, 30.0) and retry.valid
        assert counter_state(community, name)["applied"] == 1
        community.close()

    def test_crash_stalls_then_drains_exactly_once(self):
        """A crashed party stalls the unanimous community: the full queue
        sheds, the stalled writes settle once the party is back, and
        their late settlements refuse nobody afterwards."""
        obs = RecordingInstrumentation()
        community, gateway, name = build_gateway_community(
            seed=17, obs=obs, queue_capacity=2)
        FaultSchedule(community).crash("Org2", 0.05, 1.5).arm()
        community.settle(0.1)  # enter the crash window
        session = gateway.session("alice")
        stalled = [session.submit(name, {"client": "alice", "n": 1})
                   for _ in range(3)]  # one in flight, two waiting
        with pytest.raises(GatewayOverloadedError) as excinfo:
            session.submit(name, {"client": "alice", "n": 1})
        assert excinfo.value.retry_after > 0.0
        community.settle()
        assert all(ticket.done and ticket.valid for ticket in stalled)
        assert min(ticket.latency for ticket in stalled) > 1.0
        after = session.submit(name, {"client": "alice", "n": 1})
        assert gateway.wait(after, 30.0) and after.valid
        assert after.latency < 1.0
        assert counter_state(community, name)["applied"] == 4
        assert gateway.stats()["rejected"] == {"rate_limited": 0,
                                               "overloaded": 1}
        assert obs.registry.counter_value(
            "gateway.rejected.overloaded") == 1
        community.close()

    def test_obs_report_has_gateway_section(self):
        obs = RecordingInstrumentation()
        community, gateway, name = build_gateway_community(seed=18, obs=obs)
        session = gateway.session("alice")
        ticket = session.submit(name, {"client": "alice", "n": 1})
        assert gateway.wait(ticket, 30.0)
        session.retry(ticket)
        report = obs.report()
        assert "== gateway ==" in report
        assert "gateway.replays " in report
        assert "gateway.settle_seconds " in report
        community.close()


# ---------------------------------------------------------------------------
# back-pressure: the full queue is the one refusal for load
# ---------------------------------------------------------------------------

class NonNegativeCounter(CounterObject):
    """A responder's replica that vetoes ``n < 0``."""

    def validate_update(self, update, resulting, current, proposer):
        if update.get("n", 0) < 0:
            return Decision.reject("n must not be negative")
        return Decision.accept()


class TestBackPressure:
    def test_vetoed_writes_do_not_refuse_other_clients(self):
        """One client's vetoed writes are that client's outcome: they do
        not refuse another client's valid write."""
        names = ["Org1", "Org2", "Org3"]
        community = Community(names, seed=7)
        community.found_object("shared", {
            "Org1": CounterObject(), "Org2": NonNegativeCounter(),
            "Org3": NonNegativeCounter()})
        gateway = community.node("Org1").gateway()
        mallory, bob = gateway.session("mallory"), gateway.session("bob")
        for _ in range(5):
            vetoed = mallory.submit("shared", {"n": -1})
            assert gateway.wait(vetoed, 30.0) and vetoed.valid is False
        ticket = bob.submit("shared", {"n": 1})
        assert gateway.wait(ticket, 30.0) and ticket.valid
        assert gateway.stats()["rejected"] == {"rate_limited": 0,
                                               "overloaded": 0}
        assert counter_state(community, "shared") == {"applied": 1,
                                                      "total": 1}
        community.close()


# ---------------------------------------------------------------------------
# integration: app adoption
# ---------------------------------------------------------------------------

class TestAppGatewayClients:
    def test_order_gateway_client_is_idempotent(self):
        roles = {"Customer": ROLE_CUSTOMER, "Supplier": ROLE_SUPPLIER,
                 "Dispatcher": ROLE_DISPATCHER}
        community = Community(list(roles), seed=20)
        controllers = community.found_object(
            "order", {org: OrderObject(roles) for org in roles})
        customer = OrderClient(controllers["Customer"])
        client = customer.gateway_client("web-1")
        ticket = client.add_item("widget", 3, key="add-widget")
        assert client.wait(ticket, 30.0)
        replay = client.retry(ticket)
        assert replay.replayed and replay.valid
        supplier = OrderClient(controllers["Supplier"]).gateway_client("erp")
        priced = supplier.price_item("widget", 7, key="price-widget")
        assert supplier.wait(priced, 30.0)
        dispatcher = OrderClient(
            controllers["Dispatcher"]).gateway_client("dock")
        committed = dispatcher.commit_delivery("FOB", key="ship")
        assert dispatcher.wait(committed, 30.0)
        community.settle()
        for org in roles:
            items = controllers[org].b2b_object.items()
            assert items == {"widget": {"quantity": 3, "price": 7,
                                        "approved": False}}
            assert controllers[org].b2b_object.get_state()["delivery"] == {
                "terms": "FOB", "committed": True}
        community.close()

    def test_auction_gateway_bidder_never_bids_twice(self):
        from repro.apps.auction import AuctionHouse

        houses = ["HouseA", "HouseB"]
        community = Community(houses, seed=21)
        controllers = community.found_object(
            "auction",
            {org: AuctionObject(item="vase", reserve=10) for org in houses})
        house = AuctionHouse(controllers["HouseA"])
        bidder = house.gateway_client("alice")
        ticket = bidder.bid(25, key="bid-25")
        assert bidder.wait(ticket, 30.0)
        replay = bidder.retry(ticket)
        assert replay.replayed
        community.settle()
        state = controllers["HouseB"].b2b_object.get_state()
        assert state["bids"] == 1  # the retried bid was not placed twice
        assert state["highest"]["amount"] == 25
        community.close()


# ---------------------------------------------------------------------------
# load simulator
# ---------------------------------------------------------------------------

class TestLoadSim:
    def test_closed_loop_population_settles_every_update(self):
        community, gateway, name = build_gateway_community(
            seed=30, pipeline_options={"max_batch": 128})
        config = LoadSimConfig(clients=400, requests_per_client=1,
                               arrival_window=1.0, seed=30)
        stats = run_load_sim(community, gateway, name, config)
        assert stats.settled_valid == 400
        assert stats.gave_up == 0
        assert stats.throughput > 0.0
        percentiles = stats.latency_percentiles()
        assert percentiles["p50"] <= percentiles["p99"]
        assert counter_state(community, name)["applied"] == 400
        community.close()

    def test_hot_clients_are_capped_but_everyone_finishes(self):
        community, gateway, name = build_gateway_community(
            seed=31, rate=20.0, burst=2.0,
            pipeline_options={"max_batch": 128})
        config = LoadSimConfig(clients=60, requests_per_client=2,
                               arrival_window=0.2, hot_clients=2,
                               hot_factor=20, seed=31)
        stats = run_load_sim(community, gateway, name, config)
        expected = 58 * 2 + 2 * 40
        assert stats.settled_valid == expected
        assert stats.retries.get("RateLimitedError", 0) > 0
        assert counter_state(community, name)["applied"] == expected
        community.close()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestGatewayCli:
    def test_gateway_sim_command(self, capsys):
        from repro.cli import main

        assert main(["gateway-sim", "--clients", "50", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "settled valid: 50" in out
        assert "throughput" in out

    def test_simulate_seed_threads_into_random_workload(self, capsys):
        from repro.cli import main

        argv = ["simulate", "--workload", "random", "--updates", "4",
                "--parties", "2", "--seed", "6"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second  # same seed, same workload, same run
        assert "workload=random" in first
