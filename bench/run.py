"""Run one daectrl benchmark workload, or all of them, and print the result.

    python3 bench/run.py --workload check-drop --seed 7 --seconds 36 --trace 0
    python3 bench/run.py --all            # every workload, one metric a line

Run from anywhere; the program is imported from the `src` directory next to
this one. One workload runs in one process and one thread, closed loop: each
operation starts when the previous one has returned. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 measures end to end for --seconds of operation time, split over
PASSES passes over the same inputs.
--trace 1 runs a fixed number of operations, each untraced and then traced,
writes the spans to .bench_work/ and reports the per-layer table derived
from that file. See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# Each input is timed once per pass, each pass in its own process, and its
# latency is the least of its timings. Other tenants of a shared machine
# slow it by up to 1.7x in spells of seconds; four timings of one input, a
# quarter of a run apart, rarely all fall in one. Separate processes keep a
# cache inside the program from serving the repeat.
PASSES = 4
# setup_s is the median of this many set-ups: this process and fresh ones.
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
# Times are reported at reference speed: multiplied by REFERENCE_KERNEL_S
# over the least time, in the same run, of `reference_kernel`. Slow spells
# can outlast a run, and the machine's fastest state drifts too (the
# kernel's least time ranged 4.4-5.3 ms between runs); the ratio cancels
# what the kernel and the program feel alike. REFERENCE_KERNEL_S is the
# kernel's least time on the 2-core 2.1 GHz Xeon VM the benchmark was built
# on.
REFERENCE_KERNEL_S = 0.005
KERNEL_SAMPLES_PER_PASS = 10


def reference_kernel():
    """Fixed rational arithmetic that does not use daectrl: a probe of how
    fast the machine runs the interpreter at the moment."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i % 97 + 1, i % 89 + 1) * Fraction(3, i)
    return time.perf_counter() - t0


def set_up(name, seed, workdir):
    """Import daectrl, build the workload and warm it up; (seconds, workload)."""
    t0 = time.perf_counter()
    import workloads  # imports daectrl from ROOT/src

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.warm_up()
    return time.perf_counter() - t0, wl


class Tally:
    def __init__(self):
        self.latencies = []  # seconds, one per op in op order
        self.kernel = []     # reference_kernel times, seconds
        self.attempted = 0
        self.failed = 0

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed


def run_op(wl, i, tally):
    """Run op i and check its output; preparation and checks are untimed."""
    inp = wl.prepare(i)
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
    except (Exception, SystemExit):
        out = None
        traceback.print_exc()
    tally.latencies.append(time.perf_counter() - t0)
    tally.attempted += wl.cells_per_op
    if out is None:
        bad, problems = wl.cells_per_op, ["raised"]
    else:
        bad, problems = wl.check(out)
    tally.failed += bad
    if bad:
        print(f"{wl.name} seed {wl.seed} op {i}: {problems[:3]}", file=sys.stderr)
    tally.kernel.append(reference_kernel())


def run_ops(wl, count=None, seconds=None):
    """Closed loop over op 0, 1, ... until `count` ops have run or
    `seconds` of operation time have passed."""
    tally = Tally()
    tally.kernel = [reference_kernel() for _ in range(KERNEL_SAMPLES_PER_PASS)]
    while (len(tally.latencies) < count if count is not None
           else sum(tally.latencies) < seconds):
        run_op(wl, len(tally.latencies), tally)
    return tally


def child_pass(args, ops):
    """Set up in a fresh interpreter and run ops 0..ops-1 there."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--pass-ops", str(ops)],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, q):
    """Linear interpolation between order statistics (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def speed_scale(kernel_times):
    """REFERENCE_KERNEL_S over the least kernel time of the run."""
    least = min(kernel_times)
    print(f"reference kernel {1e3 * least:.3f} ms: times scaled by "
          f"{REFERENCE_KERNEL_S / least:.3f}", file=sys.stderr)
    return REFERENCE_KERNEL_S / least


def reference_tally(wl, workdir):
    import workloads

    tally = Tally()
    problems = workloads.check_reference(type(wl), workdir)
    tally.attempted, tally.failed = 1, int(bool(problems))
    if problems:
        print(f"{wl.name}: {problems}", file=sys.stderr)
    return tally


def end_to_end(args, wl, setup_s, workdir):
    tally = run_ops(wl, seconds=args.seconds / PASSES)
    ops = len(tally.latencies)
    passes = [child_pass(args, ops) for _ in range(PASSES - 1)]
    children = passes + [child_pass(args, 0) for _ in range(SETUP_SAMPLES - PASSES)]
    for c in passes:
        tally.attempted += c["attempted"]
        tally.failed += c["failed"]
    scale = speed_scale(tally.kernel + [k for c in children for k in c["kernel"]])
    latencies = [scale * min(ts)
                 for ts in zip(tally.latencies, *(c["latencies"] for c in passes))]
    tally.add(reference_tally(wl, workdir))
    metrics = {
        "verdicts_per_s": (8 * wl.triples_per_op * ops / sum(latencies), "verdicts/s"),
        "latency_ms.p50": (1e3 * median(latencies), "ms"),
        "latency_ms.tail": (1e3 * percentile(latencies, wl.tail), "ms"),
        "setup_s": (scale * median([setup_s] + [c["setup_s"] for c in children]), "s"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics


def per_layer(args, wl, workdir):
    """Each op untraced and then traced, back to back, so that both see the
    same machine; the table comes from the span file."""
    import tracer

    untraced, traced, tr = Tally(), Tally(), tracer.Tracer()
    untraced.kernel = [reference_kernel() for _ in range(KERNEL_SAMPLES_PER_PASS)]
    for i in range(wl.trace_ops):
        run_op(wl, i, untraced)
        with tr:
            run_op(wl, i, traced)
    path = WORK / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tr.write(path, {
        "workload": wl.name, "seed": args.seed, "ops": wl.trace_ops,
        "triples": wl.trace_ops * wl.triples_per_op,
        "untraced_s": sum(untraced.latencies), "traced_s": sum(traced.latencies),
        "scale": speed_scale(untraced.kernel + traced.kernel),
        "not_found": tr.missing,
    })
    print(f"spans written to {path}", file=sys.stderr)
    untraced.add(traced)
    untraced.add(reference_tally(wl, workdir))
    return untraced, tracer.layer_metrics(path)


def run_one(args):
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            setup_s, wl = set_up(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"error: cannot import daectrl from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        if args.pass_ops is not None:
            tally = run_ops(wl, count=args.pass_ops)
            print(json.dumps({"setup_s": setup_s, "latencies": tally.latencies,
                              "kernel": tally.kernel,
                              "attempted": tally.attempted, "failed": tally.failed}))
            return 0
        if args.trace:
            tally, metrics = per_layer(args, wl, workdir)
        else:
            tally, metrics = end_to_end(args, wl, setup_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process; one line per metric, with unit."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name:14} FAILED: exit {proc.returncode}, no result")
            status = 1
            continue
        res = json.loads(lines[-1])
        for metric, m in res["metrics"].items():
            print(f"{name:14} {metric:34} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:14} {'error_rate':34} {res['failed'] / res['attempted']:>14.6g} "
              f"({res['failed']} of {res['attempted']} operations failed)")
        if proc.returncode or not res["correct"]:
            print(f"{name:14} OUTPUT CHECKS FAILED")
            status = 1
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float,
                   help="operation time to measure (default: run_seconds "
                   "from BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Internal: set up, run ops 0..N-1 and print their latencies.
    p.add_argument("--pass-ops", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None and args.pass_ops is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
