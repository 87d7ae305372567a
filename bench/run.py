#!/usr/bin/env python3
"""conelab benchmark: end-to-end and per-layer timings with output checks.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload cli-defaults --seed 1 --seconds 40 --trace 0

Workloads are cli-defaults, wide and allen-cahn (see bench/README.md).
A run repeats whole rounds of the workload's operations for about
--seconds, checks every output, and prints one JSON object as the last
line of stdout: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
alternates untraced and traced rounds and reports per-layer metrics,
including the tracing overhead between the two kinds of round.  The
metric names and units come from BENCHMARK.json at the checkout root.

conelab is imported from the checkout's src/ directory; nothing is
installed.  OpenBLAS is pinned to one thread (set before NumPy loads):
the default of one thread per core measured less steady on two cores.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from tracing import NullTracer, Tracer, instrument  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def _median(values):
    return statistics.median(values) if values else None


def _ms(seconds):
    return None if seconds is None else 1e3 * seconds


def layer_metrics(summary: dict, counters: dict, cmd_times: dict,
                  overhead_pct) -> dict:
    """Per-layer values from the traced rounds; None marks an absent span."""
    def rec(name):
        return summary.get(name, {"count": 0, "durations": [], "self": [],
                                  "parents": {}})

    def per(total, n):
        return total / n if n and total else None

    sims = rec("cli.run")["count"] + rec("evolve.run")["count"]
    snap_self = rec("cli.simulate")["self"]
    out = {
        "stepper.build_s": _median(rec("stepper.build")["durations"]),
        "stepper.step_ms": _ms(_median(rec("stepper.step")["durations"])),
        "picard.sweeps_per_step": per(rec("flux_divergence")["parents"].get(
            "stepper.step", 0), rec("stepper.step")["count"]),
        "solve.calls": per(rec("solve")["count"], sims),
        "solve.self_s": per(sum(rec("solve")["self"]), sims),
        "diagnostics.row_ms": _ms(_median(rec("diagnostics.row")["durations"])),
        "transform.calls": per(rec("transform")["count"], sims),
        "transform.self_s": per(sum(rec("transform")["self"]), sims),
        "transform.bytes_computed":
            per(counters.get("transform.bytes_computed", 0), sims),
        "flux_divergence.self_s": per(sum(rec("flux_divergence")["self"]), sims),
        "laplace.self_s": per(sum(rec("laplace")["self"]), sims),
        "operators.build_s": _median(rec("operators.build")["durations"]),
        "extension.build_s": _median(rec("extension.build")["durations"]),
        "cli.run_s": _median(rec("cli.run")["durations"]),
        "snapshot.write_s": _median(snap_self),
        "snapshot.bytes": per(counters.get("snapshot.bytes", 0), len(snap_self)),
        "norms.eval_s": per(sum(rec("norms.eval")["durations"]),
                            rec("cli.norms")["count"]),
        "fit.self_s": per(sum(rec("fit")["self"]), rec("cli.asympt")["count"]),
        "lab.report_s": _median(rec("lab.report")["durations"]),
        "simulate_s": _median(cmd_times.get("simulate", [])),
        "norms_s": _median(cmd_times.get("norms", [])),
        "asympt_s": _median(cmd_times.get("asympt", [])),
        "lab_s": _median(cmd_times.get("lab", [])),
        "trace.overhead_pct": overhead_pct,
    }
    out["spans.absent"] = sum(v is None for v in out.values())
    return out


def run_workload(wl, seconds: float, seed: int, trace: bool):
    """Whole rounds for about `seconds`; returns (report dict, tracer)."""
    from workloads import fixed_point_errors

    tracer = Tracer() if trace else NullTracer()
    undo = instrument(tracer) if trace else (lambda: None)
    rng = random.Random(seed)
    setup_times, op_times = [], {True: [], False: []}
    cmd_times = {}
    digests, audit_cache, errors = {}, {}, []
    attempted = failed = rounds = 0
    context = None
    try:
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and rounds % 2 == 1
            plan = ["setup"] * wl.setups_per_round + list(wl.ops)
            rng.shuffle(plan)
            round_time = 0.0
            round_start = time.perf_counter()
            for i, op in enumerate(plan):
                tracer.op = f"{rounds}:{i}:{op}"
                tracer.enabled = traced
                if op == "setup":
                    start = time.perf_counter()
                    context = wl.setup(tracer)
                    setup_times.append(time.perf_counter() - start)
                    continue
                attempted += 1
                try:
                    elapsed, result = wl.execute(op, tracer)
                except Exception:
                    # a numerical failure of one operation is counted, and
                    # the run goes on with the next one
                    traceback.print_exc(file=sys.stderr)
                    failed += 1
                    continue
                tracer.enabled = False
                if wl.failed(result):
                    failed += 1
                    continue
                round_time += elapsed
                if not traced:
                    cmd_times.setdefault(op, []).append(elapsed)
                digest = wl.digest(result)
                if op not in digests:
                    digests[op] = digest
                    errors += [f"{op}: {e}" for e in wl.content_errors(op, result)]
                    audit_cache[op] = wl.audits(op, result)
                elif digest != digests[op]:
                    errors.append(f"{op}: output differs from the run's first {op}")
                    audit_cache[op] = wl.audits(op, result)
                for _, ok in audit_cache[op]:
                    attempted += 1
                    failed += not ok
            op_times[traced].append(round_time)
            rounds += 1
            # start another round only if at least half of it fits, so a
            # run lasts --seconds on average whatever the round length
            now = time.perf_counter()
            if now + 0.5 * (now - round_start) >= deadline:
                break
        tracer.enabled = False
        errors += fixed_point_errors(context, wl.equation)
    finally:
        undo()
    report = {
        "rounds": rounds, "attempted": attempted, "failed": failed,
        "errors": errors, "setup_times": setup_times, "op_times": op_times,
        "cmd_times": cmd_times,
        "audits": {op: v for op, v in audit_cache.items() if v},
    }
    return report, tracer


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "conelab", "__init__.py")):
        print(f"error: no conelab sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, SRC)
    sys.dont_write_bytecode = True
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        # warm-up: the same code paths on a small config, untimed
        small = workloads.make(args.workload, scratch, small=True)
        run_workload(small, 0.0, args.seed, trace=False)
        wl = workloads.make(args.workload, scratch)
        report, tracer = run_workload(wl, args.seconds, args.seed,
                                      bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    untraced = report["op_times"][False]
    if args.trace:
        traced = report["op_times"][True]
        overhead = (100.0 * (_median(traced) / _median(untraced) - 1.0)
                    if traced and untraced else None)
        values = layer_metrics(tracer.summary(), tracer.counters,
                               report["cmd_times"], overhead)
        with open(os.path.join(OUT, f"trace-{args.workload}.json"), "w") as f:
            json.dump(dict(tracer.dump(), metrics=values), f)
    else:
        values = {"setup_s": _median(report["setup_times"]),
                  "op_s": _median(untraced),
                  "peak_rss_mb": peak_rss_mb()}
    if set(values) != set(units):
        raise RuntimeError("BENCHMARK.json and run.py name different metrics: "
                           f"{sorted(set(values) ^ set(units))}")

    print(f"workload {args.workload}  seed {args.seed}  rounds {report['rounds']}  "
          f"setups {len(report['setup_times'])}  OPENBLAS_NUM_THREADS=1")
    print("  operation time per round: " + " ".join(
        f"{t:.3f}" for t in report["op_times"][False]) + " s")
    for name, secs in sorted(report["cmd_times"].items()):
        print(f"  {name:10s} n={len(secs):3d}  median {_median(secs):.4f} s  "
              f"min {min(secs):.4f}  max {max(secs):.4f}")
    for op, audits in sorted(report["audits"].items()):
        print(f"  audits per {op}: " + ", ".join(
            f"{name} {'pass' if ok else 'FAIL'}" for name, ok in audits))
    for err in report["errors"]:
        print(f"  CHECK FAILED: {err}")
    for name, value in values.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:26s} {shown} {units[name]}")
    if args.trace:
        print("absent: " + json.dumps(sorted(k for k, v in values.items() if v is None)))
    print(json.dumps({
        "correct": not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": 0 if values[name] is None else values[name],
                           "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
