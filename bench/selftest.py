"""Quick self-test of the benchmark itself (stdlib only, about half a minute).

    python3 bench/selftest.py

Runs a reduced form of every workload end to end through bench/run.py
(fixture matrix at degree cap 3, Hilbert prefixes to degree 4, the sweep at
N = 6 only), plain and traced, and checks that:
  * the result line has exactly the keys correct, attempted, failed, metrics;
  * every metric named in BENCHMARK.json appears with its unit;
  * the current code passes every output check;
  * the traced run's summed self times stay within its wall time;
  * a deliberately wrong reference value makes failed_ratio positive;
  * in a directory without the nichols2 sources run.py fails without
    printing a result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root, *args):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--seed", "7",
           "--seconds", "1", "--size", "quick", *args]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, lines = run(ROOT, "--workload", workload, "--trace", str(trace))
            label = f"{workload} trace {trace}"
            expect(code == 0 and lines, f"{label}: exits 0 with output")
            if code != 0 or not lines:
                continue
            res = json.loads(lines[-1])
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want[trace], f"{label}: every metric present with its unit")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{label}: all {res['attempted']} items pass")
            if trace:
                m = res["metrics"]
                expect(m["trace.self_s_sum"]["value"] <= m["trace.wall_s"]["value"],
                       f"{label}: summed self time within traced wall time")
        code, lines = run(ROOT, "--workload", workload, "--trace", "0", "--corrupt")
        res = json.loads(lines[-1]) if code == 0 and lines else None
        expect(res is not None and res["failed"] > 0 and not res["correct"],
               f"{workload}: a wrong reference value gives failed_ratio > 0")

    bare = os.path.join(HERE, "traces", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("traces", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = run(bare, "--workload", "fixture_matrix")
        expect(code != 0 and not lines, "without the sources: nonzero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
