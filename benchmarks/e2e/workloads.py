"""Workloads, the deployment under test, the load generator and output checks.

Every workload runs the same deployment: one process, a ``Community`` on
``ThreadedRuntime(TcpNetwork(reactor=True, codec="binary"))`` over
loopback with no injected link delay, ``retransmit_interval=2.0`` so no
timer fires in a healthy run, and observability hooks off.  Load comes
from one generator thread in a closed loop.  See README.md for why each
workload exists and which layer it stresses.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from repro.core import Community, ThreadedRuntime, bounded
from repro.core.object import B2BObject
from repro.errors import B2BError
from repro.protocol.events import RunCompleted, StateInstalled
from repro.storage.backends import FileRecordStore
from repro.storage.checkpoint import CheckpointStore
from repro.storage.journal import MessageJournal
from repro.storage.log import NonRepudiationLog
from repro.transport.tcp import TcpNetwork

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: An operation unresolved after this many seconds counts as failed.
TIMEOUT = 30.0
#: Staleness budget of every read (``bounded(READ_BOUND)``).
READ_BOUND = 0.25
DOCUMENT_KEYS = 16
#: Keys are generated from this fixed seed, not from ``--seed``: key
#: search time varies severalfold between seeds, and ``setup_s`` must
#: measure the same work on every run to be comparable between commits.
KEY_SEED = "e2e"
FSYNC_PROBE_FILE = "fsync-probe"


@dataclass(frozen=True)
class Workload:
    name: str
    parties: int
    key_bits: int = 512
    durable: bool = False
    objects: int = 1
    #: 1 everywhere: with 2 shards and their worker threads a party's
    #: NonRepudiationLog is appended from two threads without a lock and
    #: its hash chain breaks, so those outputs fail the checks below.
    shards: int = 1
    #: Writes go through ``node.gateway()`` sessions with this many
    #: outstanding; 0 means ``node.submit_update`` with one outstanding.
    window: int = 0
    read_share: float = 0.0
    #: Fixed op counts, so that memory after warm-up and the traced
    #: pass's call counts do not depend on how fast the machine is.
    warmup_updates: int = 100
    trace_updates: int = 200


WORKLOADS = {w.name: w for w in (
    Workload("serial-3p", parties=3),
    Workload("serial-3p-durable", parties=3, durable=True),
    Workload("serial-3p-rsa2048", parties=3, key_bits=2048,
             warmup_updates=25, trace_updates=60),
    Workload("pipelined-5p", parties=5, objects=8, window=16),
    Workload("mix-5p-90r", parties=5, objects=8, window=16, read_share=0.9),
)}


def initial_document() -> dict:
    """A 16-key document of about 0.5 KB."""
    return {f"k{i:02d}": f"{i:08d}-{'0' * 15}" for i in range(DOCUMENT_KEYS)}


def op_stream(seed: int, workload: Workload) -> "Iterator[tuple]":
    """The seeded, endless op stream: ``("read", obj, None)`` or
    ``("write", obj, update)``.

    Each update rewrites one key with a unique 24-byte value, so it is
    never a null transition (which responders veto).  A read share is
    stratified — at 90%, one write at a seeded position in every block of
    ten ops — so that the mix of a run does not vary with the seed.
    """
    rng = random.Random(seed)
    block = round(1 / (1 - workload.read_share))
    index = 0
    while True:
        write_at = rng.randrange(block)
        for position in range(block):
            obj = f"doc{rng.randrange(workload.objects)}"
            if position != write_at:
                yield ("read", obj, None)
                continue
            key = f"k{rng.randrange(DOCUMENT_KEYS):02d}"
            yield ("write", obj, {key: f"{index:08d}-{rng.getrandbits(60):015x}"})
            index += 1


class Document(B2BObject):
    """The benchmark's shared object; validation accepts instantly.

    Upcall time is accumulated per replica (each replica is only entered
    under its shard's lock) for ``protocol.validate_ms_per_update``.
    """

    def __init__(self) -> None:
        super().__init__()
        self._state = initial_document()
        self.upcall_ns = 0

    def get_state(self) -> dict:
        return dict(self._state)

    def apply_state(self, state: Any) -> None:
        started = time.perf_counter_ns()
        self._state = dict(state)
        self.upcall_ns += time.perf_counter_ns() - started

    def merge_update(self, state: Any, update: Any) -> Any:
        started = time.perf_counter_ns()
        merged = super().merge_update(state, update)
        self.upcall_ns += time.perf_counter_ns() - started
        return merged

    def validate_update(self, update: Any, resulting: Any, current: Any,
                        proposer: str) -> Any:
        started = time.perf_counter_ns()
        decision = super().validate_update(update, resulting, current, proposer)
        self.upcall_ns += time.perf_counter_ns() - started
        return decision


class Deployment:
    """The community under test, with listeners that stamp settlements."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.storage_dir: "Optional[str]" = None
        self._probe_file: Any = None
        if workload.durable:
            os.makedirs(OUT_DIR, exist_ok=True)
            self.storage_dir = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
            self._probe_file = open(
                os.path.join(self.storage_dir, FSYNC_PROBE_FILE), "ab")
        self.names = [f"Org{i + 1}" for i in range(workload.parties)]
        runtime = ThreadedRuntime(TcpNetwork(reactor=True, codec="binary"))
        self.community = Community(
            self.names, runtime=runtime, seed=KEY_SEED,
            key_bits=workload.key_bits, retransmit_interval=2.0,
            storage_dir=self.storage_dir, num_shards=workload.shards,
        )
        self.objects = [f"doc{i}" for i in range(workload.objects)]
        self.documents: "list[Document]" = []
        for obj in self.objects:
            replicas = {name: Document() for name in self.names}
            self.documents.extend(replicas.values())
            self.community.found_object(obj, replicas)
        self.node = self.community.node(self.names[0])
        self.session = (self.node.gateway().session("generator")
                        if workload.window else None)
        #: Proposer ``RunCompleted`` events: (run id, object, time).
        self.runs: "list[tuple[str, str, float]]" = []
        #: ``StateInstalled`` at the other parties: (run id, time).
        self.installs: "list[tuple[str, float]]" = []
        for name in self.names:
            self.community.node(name).add_listener(self._listener(name))

    def _listener(self, name: str):
        clock = time.perf_counter
        if name == self.node.party_id:
            def on_event(event: Any) -> None:
                if (isinstance(event, RunCompleted) and event.kind == "state"
                        and event.role == "proposer"):
                    self.runs.append((event.run_id, event.object_name, clock()))
        else:
            def on_event(event: Any) -> None:
                if isinstance(event, StateInstalled):
                    self.installs.append((event.run_id, clock()))
        return on_event

    def engine(self, name: str, obj: str) -> Any:
        return self.community.node(name).party.session(obj).state

    def busy_retries(self) -> int:
        pipelines = (self.node.shards.pipeline_for(obj) for obj in self.objects)
        return sum(p.busy_retries for p in pipelines if p is not None)

    def stored_bytes(self) -> int:
        """Bytes in the files under the storage dir (0 when in memory)."""
        if self.storage_dir is None:
            return 0
        return sum(os.path.getsize(os.path.join(root, name))
                   for root, _, names in os.walk(self.storage_dir)
                   for name in names if name != FSYNC_PROBE_FILE)

    def fsync_probe(self, appends: int) -> "list[float]":
        """Seconds each of *appends* appends of 600 bytes + flush + fsync
        took in the storage dir (nothing when in memory): the disk's
        counterpart of :func:`machine_probe`."""
        if self._probe_file is None:
            return []
        samples = []
        for _ in range(appends):
            started = time.perf_counter()
            self._probe_file.write(b"x" * 599 + b"\n")
            self._probe_file.flush()
            os.fsync(self._probe_file.fileno())
            samples.append(time.perf_counter() - started)
        return samples

    def converge(self) -> bool:
        """Wait until every party's agreed version of every object equals
        the proposer's ``RunCompleted`` count for it.

        The proposer's ticket resolves when it sends m3; the other
        replicas install on receipt, a moment later.
        """
        runs: "dict[str, int]" = {}
        for _, obj, _ in self.runs:
            runs[obj] = runs.get(obj, 0) + 1

        def converged() -> bool:
            return all(self.engine(name, obj).agreed_sid.seq == runs.get(obj, 0)
                       for name in self.names for obj in self.objects)

        return self.community.runtime.wait_until(converged, timeout=10.0)

    def check(self, model: "dict[str, dict]") -> "list[str]":
        """Output checks on the live community; returns violations."""
        problems = []
        if not self.converge():
            problems.append("agreed versions differ from the proposer's "
                            "RunCompleted count per object")
        for name in self.names:
            for obj in self.objects:
                if self.engine(name, obj).agreed_state != model[obj]:
                    problems.append(f"{name}: agreed state of {obj} differs "
                                    f"from the generator's model")
            try:
                self.community.node(name).ctx.evidence.verify_chain()
            except B2BError as exc:
                problems.append(f"{name}: evidence chain broken: {exc}")
        return problems

    def close(self, model: "Optional[dict[str, dict]]" = None) -> "list[str]":
        """Stop the community.  A durable deployment's files are then
        re-opened with fresh stores, re-verified and deleted; returns
        the violations found on disk."""
        ctxs = {name: self.community.node(name).ctx for name in self.names}
        self.community.close()
        if self.storage_dir is None:
            return []
        self._probe_file.close()
        problems = []
        stores: "list[FileRecordStore]" = []
        try:
            for name, ctx in ctxs.items():
                def reopen(kind: str) -> FileRecordStore:
                    stores.append(FileRecordStore(os.path.join(
                        self.storage_dir, name, f"{kind}.jsonl")))
                    return stores[-1]
                try:
                    log = NonRepudiationLog(name, reopen("evidence"))
                    verified = log.verify_chain()
                except B2BError as exc:
                    problems.append(f"{name}: evidence on disk: {exc}")
                    continue
                if verified != len(ctx.evidence):
                    problems.append(f"{name}: {verified} evidence records on "
                                    f"disk, {len(ctx.evidence)} appended")
                if MessageJournal(name, reopen("journal")).open_runs():
                    problems.append(f"{name}: journal on disk has open runs")
                checkpoints = CheckpointStore(reopen("checkpoints"))
                for obj in self.objects:
                    if (checkpoints.history_length(obj)
                            != ctx.checkpoints.history_length(obj)):
                        problems.append(f"{name}: checkpoint count of {obj} "
                                        f"on disk differs from memory")
                    if (model is not None
                            and checkpoints.require_latest(obj).state != model[obj]):
                        problems.append(f"{name}: latest checkpoint of {obj} "
                                        f"on disk differs from the model")
        finally:
            for store in stores:
                store.close()
            shutil.rmtree(self.storage_dir, ignore_errors=True)
        return problems


@dataclass
class Write:
    obj: str
    update: dict
    submitted: float = 0.0
    done: float = 0.0
    ok: "Optional[bool]" = None
    run_id: "Optional[str]" = None


#: Thread-CPU ms the calibration probe takes on the reference machine
#: (this repo's 2-core build box when its neighbours are quiet).
REFERENCE_PROBE_MS = 2.0
#: Likewise the ms one 600-byte append + fsync takes there.
REFERENCE_FSYNC_MS = 0.4
#: The generator probes whenever this much time has passed since the
#: last probe (about 4% of its time), and at every repetition boundary.
PROBE_INTERVAL = 0.05
READS_PER_PROBE = 20

_PROBE_DOCUMENT = initial_document()
_PROBE_MODULUS = (1 << 512) - 569


def machine_probe() -> float:
    """Thread-CPU ms of a fixed piece of work shaped like the program's:
    canonical JSON both ways, SHA-256 and a modular exponentiation.

    The build box is a shared VM whose speed moves by half for seconds at
    a time; probes are interleaved with the load so that each
    repetition's times can be restated at the reference machine's speed
    (README.md, "Machine-speed normalisation").
    """
    started = time.thread_time()
    for _ in range(75):
        blob = json.dumps(_PROBE_DOCUMENT, sort_keys=True,
                          separators=(",", ":")).encode("ascii")
        hashlib.sha256(blob).digest()
        json.loads(blob)
    pow(3, _PROBE_MODULUS - 2, _PROBE_MODULUS)
    return (time.thread_time() - started) * 1e3


def wall_scale(cpu: float, wall: float, probe_ms: float,
               fsync_ms: float = 0.0) -> float:
    """Factor that restates a wall time at the reference machine's speed.

    Its CPU-bound share scales with machine speed; the rest (on a
    durable deployment nearly all of it fsync wait) with the disk's
    speed, or not at all when no fsync probe was taken.
    """
    bound = min(1.0, cpu / wall)
    disk = REFERENCE_FSYNC_MS / fsync_ms if fsync_ms else 1.0
    return bound * REFERENCE_PROBE_MS / probe_ms + (1.0 - bound) * disk


def stolen_seconds() -> "list[float]":
    """Per virtual CPU, the seconds the hypervisor has run something else
    while that CPU was runnable (the ``steal`` column of ``/proc/stat``)."""
    ticks = os.sysconf("SC_CLK_TCK")
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(line.split()[8]) / ticks for line in handle
                if line.startswith("cpu") and line[3].isdigit()]


@dataclass
class Rep:
    """One repetition: what happened between two calibration probes."""
    start: float  # wall clock
    #: Seconds, less the probes taken while nothing was in flight and
    #: less ``stolen``: process CPU time already excludes stolen time.
    wall: float
    #: Largest steal of any one virtual CPU meanwhile.  The interpreter
    #: runs one thread at a time, so that is the wall time it lost,
    #: whether one CPU was taken away or the whole guest was paused.
    stolen: float
    cpu: float    # process CPU seconds, all threads, less the probes
    settled: int
    first_read: int  # index of its first read in ``Phase.read_ns``
    read_samples: int  # reads timed, including those taken at probes
    reads: int  # reads that were ops of the stream
    probe_ms: float  # mean of the machine probes in and around it
    fsync_ms: float  # mean of the fsync probes likewise; 0 in memory

    @property
    def speed(self) -> float:
        """Multiply a CPU time by this to restate it at reference speed."""
        return REFERENCE_PROBE_MS / self.probe_ms

    @property
    def scale(self) -> float:
        """The same for a wall time (see :func:`wall_scale`)."""
        return wall_scale(self.cpu, self.wall, self.probe_ms, self.fsync_ms)


@dataclass
class _OpenRep:
    """Counters at the start of the repetition in progress, and the
    probes taken in it so far."""
    start: float
    cpu0: float
    settled0: int
    first_read: int
    probes: "list[float]"
    fsyncs: "list[float]"
    stolen0: "list[float]"
    extra_reads: int = 0
    probe_wall: float = 0.0


@dataclass
class Phase:
    """What one stretch of load recorded."""
    writes: "list[Write]" = field(default_factory=list)
    read_ns: "list[int]" = field(default_factory=list)
    reps: "list[Rep]" = field(default_factory=list)
    read_hits: int = 0
    read_failures: int = 0
    read_violations: int = 0
    generator_cpu: float = 0.0
    stalled: bool = False

    @property
    def settled(self) -> "list[Write]":
        return [w for w in self.writes if w.ok]

    @property
    def attempted(self) -> int:
        return len(self.writes) + len(self.read_ns) + self.read_failures

    @property
    def failed(self) -> int:
        return (sum(1 for w in self.writes if not w.ok) + self.read_failures)

    @property
    def speed(self) -> float:
        return statistics.median(rep.speed for rep in self.reps)


class Generator:
    """The single load-generator thread's state across phases.

    Closed loop: a serial workload submits through ``node.submit_update``
    and waits for the ticket; a windowed one submits through a gateway
    session and ``GatewayTicket.on_done`` releases the window and stamps
    completion.  Reads run inline.  ``model`` is the fold of every
    settled update per object, in submission order.
    """

    def __init__(self, deployment: Deployment, ops: "Iterable[tuple]",
                 tracer: Any = None) -> None:
        self.deployment = deployment
        self.ops = iter(ops)
        self.tracer = tracer
        self.model = {obj: initial_document() for obj in deployment.objects}
        self._last_version = {obj: 0 for obj in deployment.objects}
        self._read_mode = bounded(READ_BOUND)
        session = deployment.session
        self._read = (session.read if session is not None
                      else deployment.node.examine)
        window = deployment.workload.window
        self._window = threading.Semaphore(window) if window else None
        self._settled = 0
        self._open: Any = None  # the repetition in progress
        self._next_probe = 0.0
        self._probed_ms = 0.0  # generator CPU spent in machine probes

    def phase(self, seconds: "Optional[float]" = None,
              updates: "Optional[int]" = None, reps: int = 1) -> Phase:
        """Drive load in *reps* repetitions: for *seconds* altogether, or
        until *updates* writes were submitted and have drained."""
        phase = Phase()
        cpu0, probed0 = time.thread_time(), self._probed_ms
        origin = time.perf_counter()

        def rep_over(now: float) -> bool:
            nth = len(phase.reps) + 1
            if seconds is not None:
                return now >= origin + seconds * nth / reps
            return len(phase.writes) >= updates * nth // reps

        self._open_rep(phase, self._machine_probe())
        for kind, obj, update in self.ops:
            if kind == "read":
                self._do_read(phase, obj)
            else:
                write = Write(obj, update)
                phase.writes.append(write)
                if self.tracer is not None and self._window is None:
                    self.tracer.update = len(phase.writes) - 1
                if self._window is None:
                    self._write_serial(write)
                elif not self._write_windowed(write):
                    phase.stalled = True
                    break
            now = time.perf_counter()
            if rep_over(now):
                last = len(phase.reps) + 1 == reps
                if last and seconds is None:
                    break  # a counted phase ends after its drain, below
                self._close_rep(phase)
                if last:
                    break
            elif now >= self._next_probe:
                self._probe(phase)
        self._drain()
        # Let the replicas finish the last run, so that the next phase
        # (and a tracer about to be removed) sees none of this one's work.
        self.deployment.converge()
        if seconds is None or phase.stalled:
            self._close_rep(phase)
        phase.generator_cpu = (time.thread_time() - cpu0
                               - (self._probed_ms - probed0) / 1e3)
        for write in phase.writes:
            if write.ok:
                self.model[write.obj].update(write.update)
        return phase

    def _machine_probe(self) -> float:
        probe_ms = machine_probe()
        self._probed_ms += probe_ms
        return probe_ms

    def _probe(self, phase: Phase) -> None:
        """Probe inside the open repetition.

        A workload whose op stream has no reads takes a few here, so
        that ``read_p50_us`` exists everywhere and is measured beside
        the write load; they are not ops of the stream.
        """
        rep = self._open
        started = time.perf_counter()
        rep.probes.append(self._machine_probe())
        rep.fsyncs += self.deployment.fsync_probe(3)
        if not self.deployment.workload.read_share:
            objects = self.deployment.objects
            for _ in range(READS_PER_PROBE):
                self._do_read(phase, objects[len(phase.read_ns) % len(objects)])
            rep.extra_reads += READS_PER_PROBE
        self._next_probe = time.perf_counter() + PROBE_INTERVAL
        if self._window is None:
            # Nothing is in flight between two serial writes, so the
            # probe's wall time is not the program's.
            rep.probe_wall += self._next_probe - PROBE_INTERVAL - started

    def _open_rep(self, phase: Phase, probe_ms: float) -> None:
        """Open a repetition whose first probe, *probe_ms*, was just taken."""
        fsyncs = self.deployment.fsync_probe(3)
        self._open = _OpenRep(time.perf_counter(), time.process_time(),
                              self._settled, len(phase.read_ns),
                              [probe_ms], fsyncs, stolen_seconds())
        self._next_probe = self._open.start + PROBE_INTERVAL

    def _close_rep(self, phase: Phase) -> None:
        """End the open repetition with a probe that also opens the next
        one."""
        end, cpu, settled = (time.perf_counter(), time.process_time(),
                             self._settled)
        rep = self._open
        inside_ms = sum(rep.probes[1:])
        probe_ms = self._machine_probe()
        rep.probes.append(probe_ms)
        samples = len(phase.read_ns) - rep.first_read
        stolen = max(after - before for before, after
                     in zip(rep.stolen0, stolen_seconds()))
        stolen = min(stolen, 0.9 * (end - rep.start))  # ticks are coarse
        phase.reps.append(Rep(
            start=rep.start,
            wall=end - rep.start - rep.probe_wall - stolen, stolen=stolen,
            cpu=cpu - rep.cpu0 - inside_ms / 1e3,
            settled=settled - rep.settled0, first_read=rep.first_read,
            read_samples=samples, reads=samples - rep.extra_reads,
            probe_ms=statistics.mean(rep.probes),
            fsync_ms=statistics.mean(rep.fsyncs) * 1e3 if rep.fsyncs else 0.0))
        self._open_rep(phase, probe_ms)

    def _write_serial(self, write: Write) -> None:
        write.submitted = time.perf_counter()
        try:
            ticket = self.deployment.node.submit_update(write.obj, write.update)
            ticket.wait_signal(TIMEOUT)
        except B2BError:
            write.ok = False
            return
        write.done = time.perf_counter()
        write.ok = bool(ticket.done and ticket.valid)
        write.run_id = ticket.run_id
        self._settled += write.ok

    def _write_windowed(self, write: Write) -> bool:
        if not self._window.acquire(timeout=TIMEOUT):
            return False
        write.submitted = time.perf_counter()
        try:
            ticket = self.deployment.session.submit(write.obj, write.update)
        except B2BError:
            write.ok = False
            self._window.release()
            return True
        ticket.on_done(functools.partial(self._on_done, write))
        return True

    def _on_done(self, write: Write, ticket: Any) -> None:
        # Runs on the thread that settled the run, under the node lock
        # the gateway shares, so callbacks never interleave.
        write.done = time.perf_counter()
        write.ok = bool(ticket.valid)
        write.run_id = ticket.run_id
        self._settled += write.ok
        self._window.release()

    def _drain(self) -> None:
        """Wait until no write is outstanding (holding every window
        permit means exactly that)."""
        if self._window is None:
            return
        deadline = time.perf_counter() + TIMEOUT
        held = 0
        for _ in range(self.deployment.workload.window):
            if not self._window.acquire(
                    timeout=max(0.0, deadline - time.perf_counter())):
                break
            held += 1
        for _ in range(held):
            self._window.release()

    def _do_read(self, phase: Phase, obj: str) -> None:
        started = time.perf_counter_ns()
        try:
            result = self._read(obj, self._read_mode)
        except B2BError:
            phase.read_failures += 1
            return
        phase.read_ns.append(time.perf_counter_ns() - started)
        if result.hit:
            phase.read_hits += 1
        # Contract of the read path: per-object versions never decrease
        # and no bounded read is staler than its bound.
        if (result.staleness > READ_BOUND
                or result.version < self._last_version[obj]):
            phase.read_violations += 1
        else:
            self._last_version[obj] = result.version
