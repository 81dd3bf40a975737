"""Group commit: durability is a property of a party's barrier.

``PartyContext.commit`` writes and fsyncs the party's one record file
(evidence, checkpoints and journal records in the order the handlers
appended them), and ``OrganisationNode`` runs it before a message
leaves, an event is dispatched or a snapshot is published.  These tests
pin that contract from both sides: nothing gets ahead of its records,
and every byte prefix of the file a crash can leave recovers.
"""

from __future__ import annotations

import builtins
import dataclasses
import os
import stat
import sys
import threading

import pytest

from repro.core import Community, DictB2BObject, SimRuntime
from repro.core.runtime import ThreadedRuntime
from repro.errors import ConfigurationError
from repro.obs.recording import RecordingInstrumentation
from repro.obs.report import render_snapshot
from repro.protocol.context import PartyContext
from repro.protocol.coordination import MODE_UPDATE_BATCH
from repro.protocol.events import RunCompleted
from repro.storage import (
    CheckpointStore,
    FileRecordStore,
    MemoryRecordStore,
    MessageJournal,
    NonRepudiationLog,
    backends,
)
from repro.transport.inmemory import LinkProfile
from tests.test_composite import PickyObject

KINDS = ("evidence", "checkpoints", "journal")


# ---------------------------------------------------------------------------
# (a) the barrier contract
# ---------------------------------------------------------------------------

class RecordingStore(MemoryRecordStore):
    """Remembers which thread appended each record and how far a sync
    has reached, so a probe can ask what a thread still has queued."""

    def __init__(self) -> None:
        super().__init__()
        self.owners: "list[int]" = []
        self.durable = 0
        self.deepest_queue = 0

    def append(self, record: dict) -> int:
        index = super().append(record)
        self.owners.append(threading.get_ident())
        if not self.deferred:
            self.durable = len(self)
        self.deepest_queue = max(self.deepest_queue, len(self) - self.durable)
        return index

    def sync(self) -> int:
        made = len(self) - self.durable
        self.durable += made
        return made

    def queued_by_this_thread(self) -> int:
        return self.owners[self.durable:].count(threading.get_ident())


class RecordingCommunity(Community):
    def _record_store(self, name: str) -> RecordingStore:
        return RecordingStore()


class BarrierProbe:
    """Checks, at every point where a record's consequence becomes
    visible, that the acting thread has nothing queued at its party."""

    def __init__(self, community: Community) -> None:
        self.violations: "list[str]" = []
        self.seen = {"send": 0, "event": 0, "publish": 0}
        for node in community.nodes.values():
            self._watch(node)

    def _watch(self, node) -> None:
        store = node.ctx.evidence.store

        def check(what: str, detail: str) -> None:
            self.seen[what] += 1
            queued = store.queued_by_this_thread()
            if queued:
                self.violations.append(
                    f"{node.party_id}: {what} {detail} with {queued} "
                    f"records not yet synced")

        send, publish = node.endpoint.send, node.readcache.publish

        def checked_send(recipient, message):
            check("send", f"{message.get('msg_type')} to {recipient}")
            return send(recipient, message)

        def checked_publish(object_name, *args, **kwargs):
            check("publish", object_name)
            return publish(object_name, *args, **kwargs)

        node.endpoint.send = checked_send
        node.readcache.publish = checked_publish
        node.add_listener(lambda event: check("event", type(event).__name__))


def _runtime(kind: str):
    if kind == "sim":
        return SimRuntime(seed=5, profile=LinkProfile(latency=0.005))
    return ThreadedRuntime()


@pytest.mark.parametrize("runtime_kind", ["sim", "sockets"])
def test_nothing_becomes_visible_ahead_of_its_records(runtime_kind):
    names = ["Org1", "Org2", "Org3", "Org4"]
    founders = names[:3]
    community = RecordingCommunity(names, runtime=_runtime(runtime_kind),
                                   retransmit_interval=2.0)
    try:
        probe = BarrierProbe(community)
        for object_name in ("alpha", "beta"):
            community.found_object(
                object_name, {name: PickyObject() for name in founders})
        node = community.node("Org1")

        def settle(*tickets):
            for ticket in tickets:
                assert node.wait_for_pipeline(ticket, 30.0), "did not settle"

            def quiet() -> bool:
                engines = [community.node(name).party.session(obj).state
                           for name in founders for obj in ("alpha", "beta")]
                return (not any(engine.busy for engine in engines)
                        and len({(e.object_name, e.agreed_sid.seq)
                                 for e in engines}) == 2)

            assert community.runtime.wait_until(quiet, 30.0)

        # A valid run and a vetoed one.
        valid = node.submit_update("alpha", {"n": 1})
        settle(valid)
        vetoed = node.submit_update("alpha", {"n": -1})
        settle(vetoed)
        assert valid.valid and vetoed.valid is False
        # A burst: the first update is its own run, the rest are
        # coalesced into update_batch runs behind it.
        burst = [node.submit_update("alpha", {"n": 1}) for _ in range(6)]
        settle(*burst)
        assert all(ticket.valid for ticket in burst)
        engine = node.party.session("alpha").state
        assert any(run.mode == MODE_UPDATE_BATCH for run in engine.runs())
        # Writes to both objects, queued together.
        pair = [node.submit_update("alpha", {"n": 2}),
                node.submit_update("beta", {"n": 3})]
        settle(*pair)
        assert all(ticket.valid for ticket in pair)
        # A join.
        community.node("Org4").connect("alpha", PickyObject(), via="Org1")
        assert community.node("Org4").party.session("alpha").group.members \
            == names

        assert probe.violations == []
        assert all(count > 0 for count in probe.seen.values()), probe.seen
        # Appends really were deferred: some barrier covered a handler's
        # worth of records, not one.
        stores = [community.node(name).ctx.evidence.store for name in names]
        assert all(store.deferred for store in stores)
        assert max(store.deepest_queue for store in stores) >= 2
    finally:
        community.close()
    # Closing the community is the last barrier.
    assert all(store.durable == len(store) > 0 for store in stores)


class TestCommitOrder:
    def _context(self, store) -> PartyContext:
        ctx = PartyContext(
            party_id="P", signer=None, resolver=None,
            evidence=NonRepudiationLog("P", store),
            checkpoints=CheckpointStore(store),
            journal=MessageJournal("P", store),
        )
        ctx.adopt_store()
        return ctx

    @staticmethod
    def _one_settlement(ctx: PartyContext, seq: int) -> None:
        """What one settling handler appends, in its order."""
        run_id = f"run-{seq}"
        ctx.journal.record_message(run_id, "received", "Q", {"n": seq})
        ctx.evidence.record("authenticated-decision", {"run_id": run_id})
        ctx.checkpoints.save("doc", {"seq": seq}, {"n": seq})
        ctx.journal.close_run(run_id, "valid")

    @staticmethod
    def _kinds(store) -> "list[str]":
        return [next(kind for kind, key in
                     zip(KINDS, ("entry_hash", "state_id", "event"))
                     if key in record) for record in store.scan()]

    def test_a_barrier_is_one_sync_of_the_partys_one_store(self):
        store = RecordingStore()
        syncs = []
        sync = store.sync
        store.sync = lambda: syncs.append(sync()) or syncs[-1]
        ctx = self._context(store)
        self._one_settlement(ctx, 1)
        assert syncs == [] and store.durable == 0  # waits for the barrier
        ctx.commit()
        assert syncs == [4]
        # One file, in the handler's order: the close is the last record.
        assert self._kinds(store) == [
            "journal", "evidence", "checkpoints", "journal"]
        ctx.commit()
        assert syncs == [4, 0]  # nothing queued, nothing written
        # Each view sees its own records and nobody else's.
        assert len(ctx.evidence) == ctx.evidence.verify_chain() == 1
        assert len(list(ctx.journal.all_records())) == 2
        assert ctx.checkpoints.history_length("doc") == 1

    def test_views_of_one_party_must_share_their_store(self):
        with pytest.raises(ConfigurationError, match="one record store"):
            PartyContext(
                party_id="P", signer=None, resolver=None,
                evidence=NonRepudiationLog("P", MemoryRecordStore()),
                journal=MessageJournal("P", MemoryRecordStore()),
            )

    def test_a_close_appended_beside_a_commit_waits_for_its_own_barrier(
            self, tmp_path):
        """The transport thread settles a run while the submitting
        thread's commit is writing: nothing of that run gets into this
        barrier, and its close reaches the file behind its own decision
        evidence."""
        store = FileRecordStore(str(tmp_path / "log.jsonl"), fsync=False)
        ctx = self._context(store)
        self._one_settlement(ctx, 1)
        write = store._write

        def write_while_another_thread_settles(data: bytes) -> None:
            self._one_settlement(ctx, 2)
            write(data)

        store._write = write_while_another_thread_settles
        ctx.commit()
        del store._write

        def on_disk() -> "list[str]":
            reopened = FileRecordStore(store._path, fsync=False)
            try:
                return self._kinds(reopened)
            finally:
                reopened.close()

        one = ["journal", "evidence", "checkpoints", "journal"]
        assert on_disk() == one and len(store) == 8
        ctx.commit()
        assert on_disk() == one + one
        store.close()

    def test_barrier_is_reported_to_observability(self, tmp_path):
        obs = RecordingInstrumentation()
        community = Community(["A", "B", "C"], runtime=SimRuntime(seed=3),
                              storage_dir=str(tmp_path), obs=obs)
        try:
            community.found_object(
                "doc", {name: DictB2BObject() for name in community.names()})
            before = obs.registry.snapshot()["counters"]
            ticket = community.node("A").submit_update("doc", {"k": 1})
            community.settle(2.0)
            assert ticket.valid
            snapshot = obs.registry.snapshot()
        finally:
            community.close()
        counters = snapshot["counters"]

        def grew(name: str) -> int:
            return counters.get(name, 0) - before.get(name, 0)

        # Six barriers with records behind them: m1 and the last m2 at
        # the proposer, m1 and m3 at each responder.
        assert grew("storage.syncs") == 6
        assert grew("storage.files_synced") == 6  # one file per barrier
        # All 6 journal records of the run are counted: at each party the
        # record that opens the run, and its close.
        assert grew("storage.journal.appends") == 6
        assert grew("storage.journal.closed") == 3
        assert grew("storage.evidence.appends") + 6 + 3 == 22
        assert snapshot["histograms"]["storage.records_per_sync"]["count"] \
            == counters["storage.syncs"]
        assert "storage.syncs " in render_snapshot(snapshot)


# ---------------------------------------------------------------------------
# (b) every byte prefix of the one file recovers
# ---------------------------------------------------------------------------

class PowerCut(Exception):
    """The victim's disk stopped taking writes."""


class Power:
    """How many more bytes the victim's file may take."""

    def __init__(self) -> None:
        self.victim: "str | None" = None
        self.budget: "int | None" = None
        #: What each of the victim's barriers wrote.
        self.writes: "list[bytes]" = []


@pytest.fixture
def power(monkeypatch):
    power = Power()

    class CuttableStore(FileRecordStore):
        def _write(self, data: bytes) -> None:
            party = os.path.basename(os.path.dirname(self._path))
            if party != power.victim:
                return super()._write(data)
            power.writes.append(data)
            if power.budget is not None:
                if power.budget <= len(data):
                    # The cut may fall inside a line (a torn tail), on a
                    # record boundary, or right after the barrier's last
                    # byte — before the sends.
                    super()._write(data[:power.budget])
                    power.budget = 0
                    raise PowerCut()
                power.budget -= len(data)
            super()._write(data)

    monkeypatch.setattr(backends, "FileRecordStore", CuttableStore)
    # The cut is simulated at the write; real fsyncs would only slow the
    # sweep down.
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    return power


class CrashSweep:
    """One 3-party update, with one party losing power at a chosen byte
    of what it writes during that update.

    A cut at any byte leaves the victim's file a prefix of its barriers'
    writes, and re-opening truncates a torn last line, so the disks a
    cut can leave are one per line boundary, reached cleanly or through
    a repair (``test_a_cut_at_any_byte_reopens_as_its_whole_lines``
    walks every byte).  The sweep restarts the victim from each.
    """

    names = ["A", "B", "C"]

    def __init__(self, root, power: Power, obs=None) -> None:
        self.root, self.power, self.trials, self.obs = root, power, 0, obs

    def _community(self) -> "tuple[Community, str]":
        self.trials += 1
        directory = str(self.root / f"trial-{self.trials}")
        self.power.victim = self.power.budget = None
        community = Community(
            self.names, storage_dir=directory, obs=self.obs,
            runtime=SimRuntime(seed=7, profile=LinkProfile(latency=0.005)))
        community.found_object(
            "doc", {name: DictB2BObject() for name in self.names})
        ticket = community.node("A").submit_update("doc", {"k0": 0})
        community.settle(2.0)
        assert ticket.valid
        return community, directory

    def _update(self, community: Community):
        ticket = community.node("A").submit_update("doc", {"k1": 1})
        community.settle(2.0)
        return ticket

    def survivors(self, community: Community) -> "list[str]":
        """Whose replicas must agree once everybody has recovered."""
        return self.names

    def afterwards(self, community: Community,
                   survivors: "list[str]") -> "list[str]":
        """Further problems with the recovered *survivors*: the update
        may go down with its proposer, but a responder's crash only
        delays it."""
        state = community.node("A").party.session("doc").state
        if self.victim != "A" and state.agreed_state.get("k1") != 1:
            return [f"{self.victim}'s crash lost the update"]
        return []

    def barrier_writes(self, victim: str) -> "list[bytes]":
        """What each of the victim's barriers writes in an undisturbed
        run."""
        community, _ = self._community()
        self.power.victim, self.power.writes = victim, []
        try:
            assert self._update(community).valid
        finally:
            community.close()
        return list(self.power.writes)

    def cut_points(self, victim: str) -> "list[int]":
        """A byte count for every disk a cut can leave: before each
        line, inside it, and after the victim's last."""
        points, offset = [], 0
        for line in b"".join(self.barrier_writes(victim)).splitlines(
                keepends=True):
            points += [offset, offset + len(line) // 2]
            offset += len(line)
        return points + [offset]

    def crash_and_recover(self, victim: str, budget: int) -> "list[str]":
        community, directory = self._community()
        problems, self.victim = [], victim
        try:
            self.power.victim, self.power.budget = victim, budget
            with pytest.raises(PowerCut):
                self._update(community)
            self.power.victim = self.power.budget = None

            # The process is gone: what survives is what the file holds.
            old = community.node(victim)
            old.crash()
            store = backends.open_party_store(os.path.join(directory, victim))
            old.ctx = dataclasses.replace(
                old.ctx,
                evidence=NonRepudiationLog(victim, store),
                checkpoints=CheckpointStore(store),
                journal=MessageJournal(victim, store),
            )
            node = community.restart_node(victim)
            community.runtime.network.recover(victim)
            node.ctx.evidence.verify_chain()
            node.restore_object("doc", DictB2BObject())
            # The peers notice the victim is back and re-drive the runs
            # they still have in flight.
            for name in community.names():
                if name != victim:
                    community.node(name).recover()
            community.settle(60.0)

            survivors = self.survivors(community)
            engines = {name: community.node(name).party.session("doc").state
                       for name in survivors}
            versions = {name: (engine.agreed_sid.seq, engine.agreed_state)
                        for name, engine in engines.items()}
            if len({repr(version) for version in versions.values()}) != 1:
                problems.append(f"agreed versions differ: {versions}")
            for name, engine in engines.items():
                ctx = community.node(name).ctx
                if engine.busy or ctx.journal.open_runs():
                    problems.append(f"{name} is left with an open run")
                if community.node(name).misbehaviour_reports:
                    problems.append(f"{name} accuses a peer: "
                                    f"{community.node(name).misbehaviour_reports}")
                if ctx.evidence.verify_chain() != len(ctx.evidence):
                    problems.append(f"{name}: evidence chain length")
                latest = ctx.checkpoints.require_latest("doc")
                if latest.state != engine.agreed_state:
                    problems.append(f"{name}: checkpoint is not the agreed state")
            problems += self.afterwards(community, survivors)
        finally:
            community.close()
        return problems

    def failures(self, victim: str, lines: int) -> "dict[str, list[str]]":
        """Problems per cut point; the victim writes *lines* lines."""
        points = self.cut_points(victim)
        assert len(points) == 2 * lines + 1
        return {f"{budget} bytes": problems for budget in points
                if (problems := self.crash_and_recover(victim, budget))}


@pytest.mark.parametrize("victim", CrashSweep.names)
def test_every_crash_state_between_barriers_recovers(victim, tmp_path, power):
    # Proposer: m1 barrier (proposal-sent, run-keys) and the settling
    # barrier (4 evidence + 1 checkpoint + the close); responders: 2
    # evidence + the m1 record, and 2 + 1 + 1.
    lines = 8 if victim == "A" else 7
    assert CrashSweep(tmp_path, power).failures(victim, lines) == {}


def test_a_cut_at_any_byte_reopens_as_its_whole_lines(tmp_path, power):
    """Every byte offset of every barrier's write: the file re-opens as
    the whole lines before the cut, so the sweeps' cut points are all
    the disks there are."""
    writes = CrashSweep(tmp_path, power).barrier_writes("A")
    assert len(writes) == 2 and sum(map(len, writes)) > 5000
    path = str(tmp_path / "cut.jsonl")
    for data in writes:
        # The file holds the whole lines of the last cut; an O_APPEND
        # handle grows it to the next one.
        with open(path, "wb"), open(path, "ab", buffering=0) as disk:
            for cut in range(len(data) + 1):
                disk.write(data[os.path.getsize(path):cut])
                assert os.path.getsize(path) == cut
                FileRecordStore(path, fsync=False).close()
                whole = data.rfind(b"\n", 0, cut) + 1
                assert os.path.getsize(path) == whole
                if whole == cut:
                    with open(path, "rb") as handle:
                        assert handle.read() == data[:cut]


def test_checkpoint_ahead_of_an_open_journal_run_is_finished_not_redone(
        tmp_path, power):
    """The regression the sweep found: a proposer that crashed with the
    decision evidence and the checkpoint on disk but the journal still
    open used to close the run as stale, so m3 never left and both
    responders stayed blocked on an accepted proposal.  Run with
    observability on, so the recovery sends are stamped and counted."""
    sweep = CrashSweep(tmp_path, power, obs=RecordingInstrumentation())
    m1_barrier, settling = sweep.barrier_writes("A")
    budget = len(m1_barrier)
    for line in settling.splitlines(keepends=True):
        budget += len(line)
        if b'"state_id"' in line and b'"entry_hash"' not in line:
            break
    else:
        pytest.fail("the settling barrier wrote no checkpoint")
    assert sweep.crash_and_recover("A", budget) == []


class MembershipSweep(CrashSweep):
    """The same sweep over one membership run.  Whatever byte the victim
    stops at, the members the sponsor ends up with hold equal group
    views, nobody is left busy, and the object takes a state update."""

    def survivors(self, community: Community) -> "list[str]":
        return list(community.node("C").party.session("doc").group.members)

    def afterwards(self, community, survivors):
        problems = []
        for name in survivors:
            session = community.node(name).party.session("doc")
            if session.group.members != survivors:
                problems.append(f"{name}'s group is {session.group.members},"
                                f" the sponsor's {survivors}")
            if session.membership.busy or session.state.membership_change_active:
                problems.append(f"{name} is left in a membership change")
        ticket = community.node(survivors[0]).submit_update("doc", {"k2": 2})
        community.settle(60.0)
        if not (ticket.done and ticket.valid):
            problems.append(f"no update settles afterwards: {ticket.diagnostics}")
        for name in survivors:
            state = community.node(name).party.session("doc").state
            if state.agreed_state.get("k2") != 2:
                problems.append(f"{name} missed the update that followed")
        return problems


class JoinSweep(MembershipSweep):
    """D joins {A, B, C}; C is the sponsor."""

    def _update(self, community: Community):
        community.add_organisation("D")
        ticket = community.node("D").propagate_connect(
            "doc", DictB2BObject(), "C")
        community.settle(2.0)
        return ticket


class EvictionSweep(MembershipSweep):
    """C, the legitimate sponsor, evicts B.  A crash before the run's
    first barrier loses the intention with the process; after it the
    eviction completes."""

    def _update(self, community: Community):
        ticket = community.node("C").propagate_eviction("doc", ["B"])
        community.settle(2.0)
        return ticket


@pytest.mark.parametrize("victim", ["C", "A"])  # the sponsor, one member
@pytest.mark.parametrize("sweep_cls", [JoinSweep, EvictionSweep])
def test_every_crash_state_of_a_membership_run_recovers(
        sweep_cls, victim, tmp_path, power):
    joining = sweep_cls is JoinSweep
    if victim == "C":
        # Sponsor: the m1 barrier (request-received when there is a
        # request, proposal-sent; run-keys) and the settling barrier
        # (evidence, group checkpoint, the close).
        lines = (2 + 1) + (4 + 1 + 1) if joining else (1 + 1) + (3 + 1 + 1)
    else:
        lines = (2 + 1) + (2 + 1 + 1)
    assert sweep_cls(tmp_path, power).failures(victim, lines) == {}


# ---------------------------------------------------------------------------
# (c) a submitting thread and the transport's share one party's file
# store: set-up commits on the first, every run on the second
# ---------------------------------------------------------------------------

TWO_THREAD_NAMES = ["Org1", "Org2", "Org3"]
TWO_THREAD_OBJECTS = [f"obj-{i}" for i in range(6)]
TWO_THREAD_STATE = {f"k{i}": i for i in range(12)}


def settle_from_two_threads(community: Community) -> None:
    """Settle 72 updates submitted from this thread while the
    transport's thread handles inbound messages and settles runs.  The
    submitting thread only queues: only the transport's thread proposes
    and commits the write phase (``_start_runs`` hands the floor to it).
    Every party proposes on some objects and responds on the others at
    once."""
    names, objects = TWO_THREAD_NAMES, TWO_THREAD_OBJECTS
    for object_name in objects:
        community.found_object(
            object_name, {name: DictB2BObject() for name in names})
    submitted = threading.get_ident()
    committers = {name: set() for name in names}
    for name in names:
        node = community.node(name)
        commit = node.ctx.commit

        def recording_commit(commit=commit, seen=committers[name]):
            seen.add(threading.get_ident())
            return commit()

        node.ctx.commit = recording_commit
    # Each object has one proposer (no busy vetoes) and proposers
    # differ between objects.
    tickets = []
    for round_index in range(12):
        for index, object_name in enumerate(objects):
            proposer = community.node(names[index % len(names)])
            tickets.append(proposer.submit_update(
                object_name, {f"k{round_index}": round_index}))
    for ticket in tickets:
        assert ticket.wait_signal(30.0), "update did not settle"
        assert ticket.valid

    def converged() -> bool:
        return all(
            community.node(name).party.session(obj).state.agreed_state
            == TWO_THREAD_STATE for name in names for obj in objects)

    assert community.runtime.wait_until(converged, timeout=30.0)
    loop = community.runtime.network._reactor._loop_ident
    for name in names:
        assert committers[name] == {loop}, committers[name]
        assert submitted not in committers[name]


def run_two_thread_community(**kwargs) -> Community:
    """A closed community after :func:`settle_from_two_threads`, run
    over sockets with the submitting and transport threads made to
    interleave for real."""
    community = Community(TWO_THREAD_NAMES, runtime=ThreadedRuntime(),
                          retransmit_interval=2.0, **kwargs)
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        settle_from_two_threads(community)
    finally:
        sys.setswitchinterval(switch_interval)
        community.close()
    return community


def test_evidence_chain_survives_submitting_and_transport_threads():
    """The live evidence log, journal and checkpoints stay whole while
    writes are submitted from another thread: the chain verifies, no run
    is left open and every object's latest checkpoint is the agreed
    state."""
    community = run_two_thread_community()
    for name in TWO_THREAD_NAMES:
        ctx = community.node(name).ctx
        assert ctx.evidence.verify_chain() == len(ctx.evidence) > 0
        assert ctx.journal.open_runs() == set()
        for object_name in TWO_THREAD_OBJECTS:
            latest = ctx.checkpoints.latest(object_name)
            assert latest is not None and latest.state == TWO_THREAD_STATE


def test_submitting_and_transport_threads_share_one_partys_file_store(
        tmp_path):
    """The same two threads share one party's file (set-up on the
    submitting thread, every run on the transport's): reopened from
    disk, the chain verifies and no journal record is split from the
    evidence it names."""
    run_two_thread_community(storage_dir=str(tmp_path))
    names, objects = TWO_THREAD_NAMES, TWO_THREAD_OBJECTS
    expected = TWO_THREAD_STATE
    for name in names:
        # Each of the three-file layout's names opens the party's file.
        assert os.listdir(tmp_path / name).count("log.jsonl") == 1
        stores = {kind: FileRecordStore(str(tmp_path / name / f"{kind}.jsonl"))
                  for kind in KINDS}
        try:
            log = NonRepudiationLog(name, stores["evidence"])
            assert log.verify_chain() == len(log) > 0
            assert len(stores["evidence"]) > len(log)
            assert MessageJournal(name, stores["journal"]).open_runs() == set()
            # No journal record is split from the evidence entry it
            # names, just before it.
            previous, named = {}, 0
            for record in stores["journal"].scan():
                for index, *_ in record.get("refs", {}).values():
                    assert previous.get("index") == index
                    named += 1
                previous = record
            assert named >= 6  # a run-keys or m1 record per run, each object ran
            checkpoints = CheckpointStore(stores["checkpoints"])
            for object_name in objects:
                assert checkpoints.require_latest(object_name).state \
                    == expected
        finally:
            for store in stores.values():
                store.close()


def test_concurrent_appends_and_syncs_lose_and_reorder_nothing(tmp_path):
    store = FileRecordStore(str(tmp_path / "shared.jsonl"), fsync=False)
    store.deferred = True
    workers, per_worker = 8, 150
    errors = []

    def work(worker: int) -> None:
        try:
            for n in range(per_worker):
                index = store.append({"worker": worker, "n": n})
                store.sync()
                # Durable on return from the barrier: a reader that
                # shares nothing with this store sees the record.
                with open(store._path, "rb") as handle:
                    assert sum(1 for _ in handle) > index
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    records = list(store.scan())
    store.close()
    assert len(records) == len(store) == workers * per_worker
    for worker in range(workers):
        assert [r["n"] for r in records if r["worker"] == worker] \
            == list(range(per_worker))


# ---------------------------------------------------------------------------
# (d) who fsyncs, and how often
# ---------------------------------------------------------------------------

@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` call, as ``"dir"`` or ``"file"``."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestStandaloneStore:
    def test_durable_on_return_from_append(self, tmp_path, fsyncs):
        path = str(tmp_path / "log.jsonl")
        store = FileRecordStore(path)
        del fsyncs[:]
        for n in range(3):
            assert store.append({"n": n}) == n
            assert fsyncs == ["file"] * (n + 1)
            second = FileRecordStore(path)
            assert [r["n"] for r in second.scan()] == list(range(n + 1))
            second.close()
        assert store.sync() == 0
        assert fsyncs == ["file"] * 3
        store.close()

    def test_adopted_store_waits_for_sync_but_reads_its_own_writes(
            self, tmp_path, fsyncs):
        path = str(tmp_path / "log.jsonl")
        store = FileRecordStore(path)
        store.append({"n": 0})
        store.deferred = True
        del fsyncs[:]
        assert [store.append({"n": n}) for n in (1, 2, 3)] == [1, 2, 3]
        assert fsyncs == [] and os.path.getsize(path) == len(b'{"n":0}\n')
        assert len(store) == 4
        assert [r["n"] for r in store.scan()] == [0, 1, 2, 3]
        assert store.sync() == 3 and store.sync() == 0
        assert os.path.getsize(path) == 4 * len(b'{"n":0}\n')
        assert fsyncs == ["file"]
        assert [r["n"] for r in store.scan()] == [0, 1, 2, 3]
        store.append({"n": 4})
        store.close()  # closing never drops a queued record
        assert [r["n"] for r in FileRecordStore(path).scan()] == [0, 1, 2, 3, 4]

    def test_creating_the_file_fsyncs_its_directory_once(self, tmp_path, fsyncs):
        path = str(tmp_path / "party" / "evidence.jsonl")
        FileRecordStore(path).close()
        assert fsyncs == ["dir"]
        FileRecordStore(path).close()
        assert fsyncs == ["dir"]  # an existing file's entry is already safe
        FileRecordStore(str(tmp_path / "volatile.jsonl"), fsync=False).close()
        assert fsyncs == ["dir"]

    def test_torn_tail_is_truncated_in_place(self, tmp_path, monkeypatch):
        path = str(tmp_path / "log.jsonl")
        store = FileRecordStore(path)
        store.append({"n": 0})
        store.append({"n": 1})
        store.close()
        complete = open(path, "rb").read()
        with open(path, "ab") as handle:
            handle.write(b'{"n":2,"torn')
        inode = os.stat(path).st_ino
        modes = []
        real_open = builtins.open

        def spying_open(file, mode="r", *args, **kwargs):
            if file == path:
                modes.append(mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spying_open)
        repaired = FileRecordStore(path)
        monkeypatch.undo()
        # The complete records are never rewritten, so no crash during
        # the repair can lose them: the file is only ever shortened.
        assert not any(set(mode) & set("w+x") for mode in modes), modes
        assert os.stat(path).st_ino == inode
        assert open(path, "rb").read() == complete
        assert len(repaired) == 2
        assert repaired.append({"n": 2}) == 2
        repaired.close()
        assert [r["n"] for r in FileRecordStore(path).scan()] == [0, 1, 2]


@pytest.mark.parametrize("parties", [3, 5])
def test_two_fsyncs_per_party_per_settled_update(parties, tmp_path, fsyncs):
    names = [f"P{n}" for n in range(parties)]
    runtime = ThreadedRuntime()
    community = Community(names, runtime=runtime, storage_dir=str(tmp_path),
                          retransmit_interval=5.0)
    try:
        community.found_object(
            "doc", {name: DictB2BObject() for name in names})
        assert fsyncs.count("dir") == parties  # one new file per party
        for name in names:
            entries = {entry.name: entry for entry in os.scandir(tmp_path / name)}
            assert sorted(entries) == sorted(
                ["log.jsonl", *(f"{kind}.jsonl" for kind in KINDS)])
            assert all(os.readlink(entry.path) == "log.jsonl"
                       for entry in entries.values() if entry.is_symlink())
            assert not entries["log.jsonl"].is_symlink()

        # Listeners hear of a settlement after its barrier, so one more
        # RunCompleted per party means the update's last fsync has happened.
        completed = []
        for name in names:
            community.node(name).add_listener(
                lambda event: isinstance(event, RunCompleted)
                and completed.append(event))

        def update(n: int) -> None:
            ticket = community.node(names[n % parties]).submit_update(
                "doc", {f"k{n}": n})
            assert ticket.wait_signal(30.0) and ticket.valid
            assert runtime.wait_until(
                lambda: len(completed) == parties * (n + 1), 30.0)

        def appended() -> int:
            return sum(len(community.node(name).ctx.evidence.store)
                       for name in names)

        update(0)
        before = appended()
        del fsyncs[:]
        for n in range(1, 6):
            update(n)
        # Per update the proposer's one file is synced behind m1 and
        # behind m3, each responder's behind m2 and on m3; the proposer
        # absorbs every m2 but the last without a barrier.
        assert fsyncs == ["file"] * (2 * parties * 5)
        if parties == 3:
            assert appended() - before == 22 * 5  # 13 + 6 journal + 3
    finally:
        community.close()
