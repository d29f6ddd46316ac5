"""Benchmark runner for nichols2 (stdlib only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of a workload runs in a fresh child interpreter, one at a time, so
the memo caches of nichols2 start empty as they do for every nichols2
command; no warm-up is done.  With --trace 0 it runs S // PASS_S passes
(at least one; about S seconds in all), then set-up-only children up to
fifteen set-up samples, and reports the end-to-end metrics, in reference
seconds corrected for the host's drifting speed (see speedclock.py).  With
--trace 1 it runs one plain pass and one traced pass and reports the
per-layer metrics of the traced pass, in plain seconds, plus the tracing
overhead; the spans are written to bench/traces/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 15
# Typical duration of one pass, child start included, on the machine in
# bench/README.md; a run makes --seconds // PASS_S passes (at least one).
PASS_S = {"fixture_matrix": 6.5, "hilbert_deep": 6.8, "classify_sweep": 8.2}
RUN_LIMIT_S = 170

sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "braiding_p50_ms": "ms", "braiding_p99_ms": "ms"}
WORKLOAD_NAMES = ("fixture_matrix", "hilbert_deep", "classify_sweep")


class ChildFailed(RuntimeError):
    pass


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q percent
    of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_child(args, mode, deadline):
    cmd = [sys.executable, CHILD, args.workload, str(args.seed), mode, args.size,
           "1" if args.corrupt else "0"]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before starting a child")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def plain_metrics(args, deadline):
    # Times arrive in reference seconds.  wall_s and setup_s are medians over
    # the run's passes and set-up samples.  A braiding's latency is its
    # fastest over the passes: a garbage collection of the whole heap, or an
    # interruption, lands on a different braiding in each pass and only ever
    # adds time.
    # The pass count is fixed by --seconds, not by how fast passes happen to
    # run, so that the per-braiding minimum is always taken over as many.
    count = max(1, int(args.seconds // PASS_S[args.workload]))
    passes = [run_child(args, "plain", deadline) for _ in range(count)]
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(args, "setup", deadline)["setup_s"])
    item_ms = [min(samples) for samples in zip(*(p["item_ms"] for p in passes))]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "braiding_p50_ms": percentile(item_ms, 50),
        "braiding_p99_ms": percentile(item_ms, 99),
    }
    return passes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, []


def traced_metrics(args, deadline):
    plain = run_child(args, "plain", deadline)
    traced = run_child(args, "traced", deadline)
    layers = dict(traced["layers"])
    layers["tracing_overhead_s"] = traced["raw_wall_s"] - plain["raw_wall_s"]
    problems = []
    if layers["trace.self_s_sum"] > layers["trace.wall_s"]:
        problems.append(f"summed self time {layers['trace.self_s_sum']:.3f} s exceeds "
                        f"traced wall time {layers['trace.wall_s']:.3f} s")
    return [plain, traced], {k: (layers[k], u) for k, u in LAYER_METRICS.items()}, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks: reduced inputs, and one deliberately wrong reference.
    ap.add_argument("--size", choices=("full", "quick"), default="full")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nichols2", "__init__.py")):
        print(f"bench: no nichols2 sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    collect = traced_metrics if args.trace else plain_metrics
    try:
        passes, metrics, problems = collect(args, deadline)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for msg in p["failures"]:
            print(f"bench: check failed: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"bench: {msg}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'raw_wall_s per pass (not speed-corrected)':<46} "
              + " ".join(f"{p['raw_wall_s']:.4g}" for p in passes) + " s")
    print(f"  {'failed_ratio':<46} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} items)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
