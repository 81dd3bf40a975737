"""The repo's end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME] [--smoke]
                                  [--check-repeat]

runs every workload of ``BENCHMARK.json`` (each in its own subprocess,
once untraced for the end-to-end metrics and once traced for the
per-layer ledger), checks the outputs and prints every metric with its
unit.  With ``--trace 0|1`` it is the single measured run those
subprocesses — and the PR driver — execute:

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

whose last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # before the program under test is imported

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# the single measured run (--trace 0|1)
# ----------------------------------------------------------------------

def single_run(args: argparse.Namespace, spec: dict) -> int:
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"the program under test is missing: no {source}/repro",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Pin string hashing: with it randomised, dict layouts differ
        # between processes and the microsecond-scale read path alone
        # moves by 15% from run to run.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path[:0] = [source, HERE]
    from measure import run_one
    from workloads import WORKLOADS

    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = run_one(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.smoke, STARTED)
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit("metrics emitted differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{args.seconds:g} s measured  trace {args.trace}"
          f"{'  SMOKE' if args.smoke else ''}")
    for m in declared:
        print(f"  {m['name']:<44} {metrics[m['name']]:>14.4f} {m['unit']}")
    print(f"  failed_share {result['failed']}/{result['attempted']}  "
          f"latency samples {result['samples']}")
    for name in ("transport.retransmits_per_update",
                 "transport.duplicates_per_update"):
        if metrics.get(name):
            print(f"warning: {name} = {metrics[name]:g}, expected 0 in a "
                  f"healthy run", file=sys.stderr)
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# the report: every workload, both passes
# ----------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    """Run one workload in its own subprocess; its parsed result line."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} (trace {trace}) printed no result, "
                         f"exit code {done.returncode}")
    result = json.loads(lines[-1])
    if done.returncode or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} (trace {trace}) failed its output "
                         f"checks: {result['failed']}/{result['attempted']} "
                         f"operations failed")
    return result


def measure_set(names: "list[str]", seed: int, seconds: float, trace: int,
                smoke: bool) -> "dict[str, dict]":
    results = {}
    for name in names:
        print(f"... {name} (seed {seed}, trace {trace})", file=sys.stderr)
        results[name] = run_workload(name, seed, seconds, trace, smoke)
    return results


def print_table(title: str, declared: "list[dict]",
                results: "dict[str, dict]") -> None:
    names = list(results)
    print(f"\n{title}")
    print(f"  {'metric':<44} {'unit':<6} " + " ".join(f"{n:>17}" for n in names))
    for m in declared:
        cells = " ".join(f"{results[n]['metrics'][m['name']]['value']:>17.4f}"
                         for n in names)
        print(f"  {m['name']:<44} {m['unit']:<6} {cells}")
    shares = " ".join(
        f"{results[n]['failed']:>8}/{results[n]['attempted']:<8}" for n in names)
    print(f"  {'failed_share (failed/attempted)':<51} {shares}")


def is_self_time(name: str) -> bool:
    """The per-layer metrics that are CPU self time per settled update."""
    return (name.endswith("self_ms_per_update")
            or name in ("crypto.sign_ms_per_update",
                        "crypto.verify_ms_per_update"))


def print_ledger(untraced: "dict[str, dict]", traced: "dict[str, dict]") -> None:
    """Per workload: CPU self time per settled update by layer, largest
    first, against the traced pass's own CPU per update."""
    print("\nper-layer ledger (CPU self ms per settled update, traced pass)")
    for name, result in traced.items():
        values = {k: v["value"] for k, v in result["metrics"].items()}
        traced_cpu = (untraced[name]["metrics"]["cpu_ms_per_update"]["value"]
                      * (1.0 + values["bench.trace_overhead_share"]))
        layers: "dict[str, float]" = {}
        for metric, value in values.items():
            if is_self_time(metric):
                layer = metric.split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + value
        print(f"  {name}: traced CPU {traced_cpu:.2f} ms/update, "
              f"coverage {values['bench.trace_coverage']:.0%}, "
              f"tracing overhead {values['bench.trace_overhead_share']:+.0%}")
        for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
            if value:
                print(f"    {layer:<10} {value:>8.3f} ms  "
                      f"{value / traced_cpu:>5.0%}")


def provenance(args: argparse.Namespace, names: "list[str]",
               traced: "dict[str, dict]") -> dict:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probes = [r["metrics"]["bench.fsync_probe_ms"]["value"]
              for n, r in traced.items() if WORKLOADS[n].durable]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu_model": cpu_model,
        "host": hashlib.sha256(platform.node().encode()).hexdigest()[:12],
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "key_bits": {n: WORKLOADS[n].key_bits for n in names},
        "fsync_probe_ms": probes[0] if probes else None,
    }


def report(args: argparse.Namespace, spec: dict, names: "list[str]") -> int:
    untraced = measure_set(names, args.seed, args.seconds, 0, args.smoke)
    traced = measure_set(names, args.seed, args.seconds, 1, args.smoke)
    print_table("end-to-end metrics (untraced timed repetitions)",
                spec["end_to_end"], untraced)
    print_table("per-layer metrics", spec["per_layer"], traced)
    print_ledger(untraced, traced)
    facts = provenance(args, names, traced)
    print("\nprovenance")
    for key, value in facts.items():
        print(f"  {key:<16} {value}")
    os.makedirs(OUT_DIR, exist_ok=True)
    # A smoke run gets its own file: its numbers must never be mistaken
    # for (or copied over) a full run's.
    path = os.path.join(OUT_DIR,
                        "report-smoke.json" if args.smoke else "report.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"provenance": facts, "claim": None,
                   "end_to_end": untraced, "per_layer": traced},
                  handle, indent=1)
    print(f"\nwritten to {os.path.relpath(path)}")
    return 0


def check_repeat(args: argparse.Namespace, spec: dict,
                 names: "list[str]") -> int:
    """Two sets with the same seed must agree within every bound; a third
    set with the next seed shows seed sensitivity."""
    first = measure_set(names, args.seed, args.seconds, 0, args.smoke)
    second = measure_set(names, args.seed, args.seconds, 0, args.smoke)
    other = measure_set(names, args.seed + 1, args.seconds, 0, args.smoke)
    print(f"\n  {'workload':<18} {'metric':<18} {'unit':<5} "
          f"{'seed ' + str(args.seed):>12} {'again':>12} {'diff':>7} "
          f"{'bound':>6} {'seed ' + str(args.seed + 1):>12}")
    outside = 0
    for name in names:
        for m in spec["end_to_end"]:
            a, b, c = (r[name]["metrics"][m["name"]]["value"]
                       for r in (first, second, other))
            diff = abs(b - a) / a
            flag = "" if diff <= m["bound"] else "  OUTSIDE"
            outside += bool(flag)
            print(f"  {name:<18} {m['name']:<18} {m['unit']:<5} {a:>12.4f} "
                  f"{b:>12.4f} {diff:>6.1%} {m['bound']:>6.0%} {c:>12.4f}{flag}")
    print(f"\n{outside} metric x workload pairs outside their bound")
    return 1 if outside else 0


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="1 repetition x 1 s, 20-update trace")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return single_run(args, spec)
    if args.workload is not None:
        names = [args.workload]
    if args.check_repeat:
        return check_repeat(args, spec, names)
    return report(args, spec, names)


if __name__ == "__main__":
    sys.exit(main())
