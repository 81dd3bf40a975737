"""One measured run of one workload: set-up, warm-up, timed repetitions,
optional traced pass, output checks, metrics.

End-to-end metrics always come from the untraced timed repetitions.  The
traced pass is separate, has a fixed op count so that call counts repeat
exactly, and supplies the per-layer ledger; per-layer metrics marked
"untraced" in README.md come from the timed repetitions of the same run.

Every time is restated at the reference machine's speed through the
calibration probes around its repetition (``Rep.speed`` for CPU time,
``Rep.scale`` for wall time); ``bench.machine_speed`` reports the factor.
"""

from __future__ import annotations

import os
import resource
import statistics
import threading
import time

from tracing import ID, NAME, WALL0, Tracer, ledger
from workloads import (OUT_DIR, PROBE_INTERVAL, TIMEOUT, Deployment,
                       Generator, Phase, Workload, machine_probe, op_stream,
                       wall_scale)

#: Most repetitions the timed stretch is cut into: the grain of the
#: normalisation and of the medians.
REPETITIONS = 15
#: Seconds of building after which set-up is not repeated again.
SETUP_BUDGET = 8.0
SMOKE_WARMUP_UPDATES = 10
SMOKE_TRACE_UPDATES = 20


def quantile(values: "list[float]", q: float) -> float:
    """Linear-interpolated quantile of a non-empty list."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _rss_kb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1024


class _Counters:
    """Cumulative counters read before and after the timed repetitions."""

    def __init__(self, deployment: Deployment) -> None:
        nodes = [deployment.community.node(n) for n in deployment.names]
        self.retransmits = sum(n.endpoint.retransmissions for n in nodes)
        self.duplicates = sum(n.endpoint.duplicates_suppressed for n in nodes)
        self.runs = len(deployment.runs)
        self.busy_retries = deployment.busy_retries()
        self.upcall_ns = sum(d.upcall_ns for d in deployment.documents)
        self.stored_bytes = deployment.stored_bytes()
        self.rss_kb = _rss_kb()
        stats = (deployment.node.gateway().stats()
                 if deployment.session is not None else None)
        self.rejected = sum(stats["rejected"].values()) if stats else 0
        self.replayed = stats["replayed"] if stats else 0


def _timed_build(workload: Workload) -> "tuple[Deployment, float]":
    """Build the deployment; returns it and the build's wall seconds
    restated at reference speed.  A helper thread probes the machine
    every ``PROBE_INTERVAL`` meanwhile, as the generator does under load:
    2048-bit key generation runs for seconds, long enough for the box to
    change speed under it."""
    probes = [machine_probe()]
    built = threading.Event()

    def sample() -> None:
        while not built.wait(PROBE_INTERVAL):
            probes.append(machine_probe())

    sampler = threading.Thread(target=sample)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    sampler.start()
    try:
        deployment = Deployment(workload)
    finally:
        built.set()
        sampler.join()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0 - sum(probes[1:]) / 1e3
    probes.append(machine_probe())
    return deployment, wall * wall_scale(cpu, wall, statistics.mean(probes))


def _set_up(workload: Workload, times: int) -> "tuple[Deployment, float]":
    """Build the deployment up to *times* times, keeping the last;
    returns it and the median build time."""
    builds: "list[float]" = []
    started = time.perf_counter()
    # Stop repeating once the builds have used their share of the run.
    while len(builds) < times and time.perf_counter() - started < SETUP_BUDGET:
        if builds:
            deployment.close()
        deployment, seconds = _timed_build(workload)
        builds.append(seconds)
    return deployment, statistics.median(builds)


def run_one(workload: Workload, seed: int, seconds: float, trace: bool,
            smoke: bool, started: float) -> dict:
    """Run *workload* once; *started* is ``perf_counter()`` at process
    start, before the program under test was imported."""
    import_s = time.perf_counter() - started
    # A traced run reports no set-up time, so it sets up once.
    deployment, setup_s = _set_up(workload, 1 if smoke or trace else 3)
    problems: "list[str]" = []
    tracer = Tracer() if trace else None
    generator = Generator(deployment, op_stream(seed, workload), tracer)
    reps = max(1, min(REPETITIONS, int(seconds)))  # at least 1 s each
    try:
        warmup = generator.phase(updates=SMOKE_WARMUP_UPDATES if smoke
                                 else workload.warmup_updates)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        before = _Counters(deployment)
        timed = generator.phase(seconds=seconds, reps=reps)
        threads = threading.active_count()
        after = _Counters(deployment)
        phases = [warmup, timed]
        if not timed.settled or not timed.read_ns:
            raise SystemExit("nothing settled in the timed repetitions")
        if tracer is None:
            metrics = _end_to_end(timed, setup_s, rss_mb)
        else:
            metrics = _untraced_layers(workload, deployment, timed,
                                       before, after, threads)
            metrics["bench.import_s"] = import_s
            with tracer:
                traced = generator.phase(
                    updates=SMOKE_TRACE_UPDATES if smoke
                    else workload.trace_updates, reps=min(reps, 5))
            phases.append(traced)
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write_jsonl(os.path.join(
                OUT_DIR, f"trace-{workload.name}.jsonl"))
            metrics.update(_traced_layers(tracer, traced, timed))
        if any(p.stalled for p in phases):
            problems.append(f"no ticket resolved for {TIMEOUT:g} s; "
                            f"the generator gave up")
        violations = sum(p.read_violations for p in phases)
        if violations:
            problems.append(f"{violations} reads went back in version or "
                            f"exceeded their staleness bound")
        problems += deployment.check(generator.model)
    finally:
        problems += deployment.close(generator.model)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems,
            "samples": len(timed.settled)}


def _latencies(phase: Phase) -> "list[float]":
    """Settle latency of every settled write, each scaled by the
    repetition it completed in (the last one for those in the drain)."""
    writes = sorted(phase.settled, key=lambda w: w.done)
    reps = iter(phase.reps)
    rep = next(reps)
    upcoming = next(reps, None)
    scaled = []
    for write in writes:
        while upcoming is not None and write.done >= upcoming.start:
            rep, upcoming = upcoming, next(reps, None)
        scaled.append((write.done - write.submitted) * rep.scale)
    return scaled


def _read_latencies_ns(phase: Phase) -> "list[float]":
    return [ns * rep.speed for rep in phase.reps
            for ns in phase.read_ns[rep.first_read:
                                    rep.first_read + rep.read_samples]]


def _cpu_ms_per_update(phase: Phase) -> float:
    return statistics.median(rep.cpu * rep.speed / rep.settled * 1e3
                             for rep in phase.reps if rep.settled)


def _end_to_end(timed: Phase, setup_s: float,
                rss_mb: float) -> "dict[str, float]":
    # Medians over the repetitions: the guest is sometimes paused for
    # hundreds of ms, which ruins one repetition, not the median.
    settled_per_s = statistics.median(
        rep.settled / (rep.wall * rep.scale)
        for rep in timed.reps if rep.settled)
    ops = len(timed.settled) + sum(rep.reads for rep in timed.reps)
    return {
        "settled_per_s": settled_per_s,
        "settle_p50_ms": quantile(_latencies(timed), 0.50) * 1e3,
        "cpu_ms_per_update": _cpu_ms_per_update(timed),
        # The closed loop issues reads and writes from one thread, so
        # the op rate is the settle rate times the stream's mix; taking
        # the mix over the whole stretch keeps its sampling noise (about
        # 60 writes per repetition) out of the metric.
        "ops_per_s": settled_per_s * ops / len(timed.settled),
        "read_p50_us": quantile(_read_latencies_ns(timed), 0.50) / 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def _untraced_layers(workload: Workload, deployment: Deployment,
                     timed: Phase, before: _Counters, after: _Counters,
                     threads: int) -> "dict[str, float]":
    settled = len(timed.settled)
    wall = sum(rep.wall for rep in timed.reps)
    cpu = sum(rep.cpu for rep in timed.reps)
    stolen = sum(rep.stolen for rep in timed.reps)
    # Replica lag: proposer's RunCompleted -> last other party's install.
    completed = {run_id: t for run_id, _, t in deployment.runs[before.runs:]}
    installed: "dict[str, float]" = {}
    for run_id, t in deployment.installs:
        if run_id in completed:
            installed[run_id] = max(t, installed.get(run_id, 0.0))
    lags = [t - completed[run_id] for run_id, t in installed.items()]
    return {
        "settle_p95_ms": quantile(_latencies(timed), 0.95) * 1e3,
        "storage.bytes_per_update":
            (after.stored_bytes - before.stored_bytes) / settled,
        "transport.retransmits_per_update":
            (after.retransmits - before.retransmits) / settled,
        "transport.duplicates_per_update":
            (after.duplicates - before.duplicates) / settled,
        # Serial workloads only: with one update in flight, wall minus
        # CPU per update is hand-off, select and fsync wait.
        "transport.idle_ms_per_update":
            0.0 if workload.window else max(0.0, wall - cpu) / settled * 1e3,
        "protocol.runs_per_update": (after.runs - before.runs) / settled,
        "protocol.busy_retries_per_update":
            (after.busy_retries - before.busy_retries) / settled,
        "protocol.validate_ms_per_update":
            (after.upcall_ns - before.upcall_ns) * timed.speed / settled / 1e6,
        "protocol.replica_lag_ms_p50":
            quantile(lags, 0.50) * timed.speed * 1e3 if lags else 0.0,
        "core.readcache.hit_ratio": timed.read_hits / len(timed.read_ns),
        "core.threads": threads,
        "core.cpu_util": cpu / wall,
        "core.rss_kb_per_update": (after.rss_kb - before.rss_kb) / settled,
        "gateway.rejected_per_op":
            (after.rejected - before.rejected) / len(timed.writes),
        "gateway.replayed_per_op":
            (after.replayed - before.replayed) / len(timed.writes),
        "bench.generator_cpu_share": timed.generator_cpu / cpu,
        "bench.machine_speed": timed.speed,
        "bench.steal_share": stolen / (wall + stolen),
        "bench.fsync_probe_ms":
            quantile(deployment.fsync_probe(200) or [0.0], 0.50) * 1e3,
    }


def _traced_layers(tracer: Tracer, traced: Phase,
                   timed: Phase) -> "dict[str, float]":
    settled = len(traced.settled)
    if not settled:
        raise SystemExit("nothing settled in the traced pass")
    spans = tracer.spans
    rows = ledger(spans, tracer.infos)
    cpu_ns = sum(rep.cpu for rep in traced.reps) * 1e9
    speed = traced.speed

    def row(name: str) -> dict:
        return rows.get(name, {"calls": 0, "self_cpu_ns": 0,
                               "self_wall_ns": 0, "info": 0})

    def calls(name: str) -> float:
        return row(name)["calls"] / settled

    def self_ms(name: str) -> float:
        return row(name)["self_cpu_ns"] * speed / settled / 1e6

    # Pipeline wait: submit -> start of the proposal that settled it.
    proposed = {tracer.infos[span[ID]]: span[WALL0] / 1e9 for span in spans
                if span[NAME] == "protocol.engine" and span[ID] in tracer.infos}
    waits = [proposed[w.run_id] - w.submitted for w in traced.settled
             if w.run_id in proposed]
    append, read = row("storage.append"), row("core.readcache.read")
    return {
        "util.encoding.calls_per_update": calls("util.encoding"),
        "util.encoding.self_ms_per_update": self_ms("util.encoding"),
        "util.encoding.bytes_per_update": row("util.encoding")["info"] / settled,
        "crypto.sign_calls_per_update": calls("crypto.sign"),
        "crypto.sign_ms_per_update": self_ms("crypto.sign"),
        "crypto.verify_calls_per_update": calls("crypto.verify"),
        "crypto.verify_ms_per_update": self_ms("crypto.verify"),
        "crypto.hash_calls_per_update": calls("crypto.hash"),
        "crypto.hash_self_ms_per_update": self_ms("crypto.hash"),
        "crypto.tsa_calls_per_update": calls("crypto.tsa"),
        "crypto.tsa_self_ms_per_update": self_ms("crypto.tsa"),
        "storage.appends_per_update": calls("storage.append"),
        "storage.append_self_ms_per_update": self_ms("storage.append"),
        # Wall minus CPU of the append itself: flush and fsync wait.
        "storage.append_wait_ms_per_update":
            max(0, append["self_wall_ns"] - append["self_cpu_ns"])
            / settled / 1e6,
        "storage.log_self_ms_per_update": self_ms("storage.log"),
        "storage.journal_self_ms_per_update": self_ms("storage.journal"),
        "storage.checkpoint_self_ms_per_update": self_ms("storage.checkpoint"),
        "wire.encode_calls_per_update": calls("wire.encode"),
        "wire.encode_self_ms_per_update": self_ms("wire.encode"),
        "wire.decode_self_ms_per_update": self_ms("wire.decode"),
        "wire.bytes_per_update": row("wire.encode")["info"] / settled,
        "transport.sends_per_update": calls("transport.send"),
        "transport.send_self_ms_per_update": self_ms("transport.send"),
        "protocol.engine_self_ms_per_update": self_ms("protocol.engine"),
        "protocol.pipeline_wait_ms_p50":
            quantile(waits, 0.50) * speed * 1e3 if waits else 0.0,
        "core.submit_self_ms_per_update": self_ms("core.submit"),
        "core.readcache.publish_self_ms_per_update":
            self_ms("core.readcache.publish"),
        "core.readcache.read_self_us":
            (read["self_cpu_ns"] * speed / read["calls"] / 1e3
             if read["calls"] else 0.0),
        "gateway.submit_self_ms_per_update": self_ms("gateway.submit"),
        "bench.trace_overhead_share":
            _cpu_ms_per_update(traced) / _cpu_ms_per_update(timed) - 1.0,
        "bench.trace_coverage":
            sum(r["self_cpu_ns"] for r in rows.values()) / cpu_ns,
    }
