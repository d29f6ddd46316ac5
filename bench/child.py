"""One pass of one workload in a fresh interpreter, so every memo cache of
nichols2 starts empty, as it does for each nichols2 command.

    python3 bench/child.py WORKLOAD SEED MODE SIZE CORRUPT

MODE is "setup" (import and build the inputs only), "plain" or "traced".
Prints one JSON object.  Set-up time runs from this file's first statement
through importing nichols2 and building the inputs.

In "setup" and "plain" mode a SpeedClock (speedclock.py) runs from the
first statement to the end of the timed phase, and every time is reported
in reference seconds, corrected for the host's drifting speed; raw_wall_s
is the timed phase in plain perf_counter() seconds, calibrations taken out.
In "traced" mode no clock runs, so that calibrations do not land in the
layers' self times, and times are plain perf_counter() seconds.
"""

from time import perf_counter

_T0 = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from speedclock import SpeedClock  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(workload, seed, mode, size, corrupt):
    clock = SpeedClock() if mode != "traced" else None
    if clock is not None:
        clock.start()
    sys.path.insert(0, SRC)
    import workloads  # imports nichols2 from SRC

    build, run, check, items = workloads.WORKLOADS[workload]
    inputs = build(seed, size)
    t_setup = perf_counter()
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}", workload)
        attr, name = workloads.ITEM_SPANS[workload]
        tracer.install([(workloads, attr, name)])
    t0 = t1 = t_setup
    outputs = intervals = None
    if mode != "setup":
        t0 = perf_counter()
        outputs, intervals = run(inputs)
        t1 = perf_counter()
    raw_wall_s = t1 - t0
    if clock is None:
        def seconds(a, b):
            return b - a
    else:
        clock.stop()
        seconds = clock.reference_seconds
        raw_wall_s -= clock.calibration_seconds(t0, t1)
    result = {"setup_s": seconds(_T0, t_setup)}
    if mode == "setup":
        return result
    result.update(wall_s=seconds(t0, t1), raw_wall_s=raw_wall_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  item_ms=[seconds(a, b) * 1000 for a, b in intervals])
    if tracer is not None:
        # Read before the checks, which would add untimed calls.
        from nichols2.braidedalg import _ENGINES

        entries = sum(len(e.cache) + len(e._vec_cache) for e in _ENGINES.values())
        result["layers"] = tracer.metrics(t1 - t0, entries)
        tracer.write_spans(os.path.join(ROOT, "bench", "traces",
                                        f"{workload}-seed{seed}.jsonl"))
    failures = check(inputs, outputs, corrupt)
    attempted = items(inputs)
    result.update(attempted=attempted, failed=min(len(failures), attempted),
                  failures=failures[:10])
    return result


if __name__ == "__main__":
    w, s, m, z, c = sys.argv[1:6]
    print(json.dumps(main(w, int(s), m, z, c == "1")))
