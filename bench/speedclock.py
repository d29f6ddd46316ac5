"""Host-speed correction for the benchmark's timings (stdlib only).

On a shared machine the speed of a core drifts by up to about 1.8x, in
spells that last from a fraction of a second to minutes, with co-tenant
load.  A SpeedClock measures that drift while the workload runs: a SIGALRM
interval timer interrupts the workload every PERIOD_S seconds, and the
signal handler runs a fixed calibration loop (`calibrate`) on the same core,
in the same process, between two bytecodes of the workload.  The loop's
duration tracks the speed of the core at that moment.

A timed interval is then converted to reference seconds: each stretch of
workload between two calibrations (calibration time itself excluded) is
scaled by (REFERENCE_S / local calibration time) ** EXPONENT, where the
local calibration time is the median over a window of neighbouring
calibrations.  A program change moves these times as it moves wall time; a
change in host speed does not.  The calibration loop is benchmark code: a
program change reaches it only through the caches the workload leaves
behind, and untimed warm-up rounds take most of that out."""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

PERIOD_S = 0.03
# Calibrations on each side of a stretch that make up its speed estimate.
# The host's speed can flip within a few hundred milliseconds, so the window
# is short; its median still sets aside a calibration that was interrupted.
WINDOW = 4
# Rounds of calibrate() run untimed to bring its code and data back into the
# caches the workload has just used, then rounds timed.
WARM_ROUNDS, TIMED_ROUNDS = 4, 14
# A round figure near the duration of the timed rounds on the machine in
# bench/README.md; it only sets the scale of reported times, not their ratios.
REFERENCE_S = 0.001
# The workloads slow down somewhat more than the calibration loop in a slow
# spell: they reach further into the memory hierarchy, which co-tenants
# share.  With the plain ratio, wall_s still grew as (plain time)^0.12-0.13
# across 60 runs of all three workloads; raising the ratio to this power,
# 1 / (1 - 0.125), takes that out.
EXPONENT = 1.15

# calibrate() works in place on these, so that it creates no object the
# garbage collector tracks: a calibration must neither run a collection nor
# move the point at which the workload's own next collection falls.
_A = [(7 * i) % 13 - 6 for i in range(24)]
_B = [(5 * i) % 11 - 5 for i in range(24)]
_PROD = [0] * 48
_TABLE = {}
_P = 1180591620717411303449  # 2**70 + 25, so residues are multi-digit ints


def calibrate(rounds):
    """Fixed pure-Python work resembling the workloads' own: small-integer
    polynomial products reduced mod a cyclotomic-like modulus, dict traffic,
    and a stream of short-lived integers and strings for the allocator
    (neither kind is tracked by the garbage collector)."""
    a, b, prod, table = _A, _B, _PROD, _TABLE
    acc = 0
    for r in range(rounds):
        for k in range(48):
            prod[k] = 0
        for i in range(24):
            x = a[i] + r
            for j in range(24):
                prod[i + j] += x * b[j]
        for k in range(47, 23, -1):
            prod[k - 24] -= prod[k]
        table.clear()
        for k in range(24):
            key = 97 * k + prod[k] % 97
            table[key] = table.get(key, 0) + prod[k]
            acc += table[key]
        x = (1 << 70) + r
        for i in range(16):
            x = (x * 1000003 + i) % _P
            table[x & 1023] = x
            acc += len(str(x)) + table.get(i, 0) % 7
    return acc


def _median(values):
    # Not statistics.median: importing statistics would import fractions,
    # which nichols2 imports too, and take that out of the measured set-up.
    v = sorted(values)
    m = len(v) // 2
    return v[m] if len(v) % 2 else (v[m - 1] + v[m]) / 2


class SpeedClock:
    """Interleave calibrations with the workload between start() and stop(),
    then convert intervals of perf_counter() time to reference seconds."""

    def __init__(self):
        self.starts = []     # calibration start times, warm-up included
        self.ends = []       # calibration end times
        self.durations = []  # durations of the timed rounds
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        calibrate(WARM_ROUNDS)
        t1 = perf_counter()
        calibrate(TIMED_ROUNDS)
        t2 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t2)
        self.durations.append(t2 - t1)

    def start(self):
        # Two calibrations before the workload starts anchor the first stretch.
        for _ in range(2):
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(2):
            self._tick(None, None)
        # Scale of stretch k, the workload time between calibration k-1 and
        # calibration k (stretch 0 is before the first; stretch n after the
        # last).
        durations = self.durations
        n = len(durations)
        self._scale = [(REFERENCE_S / _median(durations[max(0, k - WINDOW):k + WINDOW]))
                       ** EXPONENT for k in range(n + 1)]

    def reference_seconds(self, t0, t1):
        """Workload time in [t0, t1], calibrations excluded, in reference
        seconds."""
        starts, ends, scale = self.starts, self.ends, self._scale
        k = bisect.bisect_right(ends, t0)  # first calibration ending after t0
        total = 0.0
        left = t0
        while left < t1:
            if k < len(starts) and starts[k] < t1:
                right = starts[k]
            else:
                right = t1
            if right > left:
                total += (right - left) * scale[k]
            if k >= len(starts) or starts[k] >= t1:
                break
            left = max(left, ends[k])
            k += 1
        return total

    def calibration_seconds(self, t0, t1):
        """perf_counter() time spent in calibrations inside [t0, t1]."""
        return sum(max(0.0, min(e, t1) - max(s, t0))
                   for s, e in zip(self.starts, self.ends) if e > t0 and s < t1)
