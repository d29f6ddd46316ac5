"""The benchmark's workloads: inputs made from a seed, the timed work, and
output checks against references that do not come from the code under test.

Each workload is a (build, run, check) triple:
  build(seed, size)     -> inputs          (set-up, not timed)
  run(inputs)           -> (outputs, per-braiding perf_counter() intervals)  (timed)
  check(inputs, outputs, corrupt) -> list of failure messages, one per failed item
`size` is "full" for the benchmark and "quick" for the self-test; `corrupt`
perturbs one reference value, so the self-test can see a check fail.
"""

from __future__ import annotations

import math
import random
import time

# Library functions are called through their modules, so that a traced run,
# which replaces module attributes, sees every call.
from nichols2 import admissibility, braidedalg, classify, cyclotomic, nicholscore
from nichols2.fbtree import TREES

# -- fixture_matrix -------------------------------------------------------------

FIXTURE_CAP = {"full": 6, "quick": 3}

# Per family case: (dimension of the Nichols algebra, top degree), typed from
# the classification: the dimension is the product of the orders of the PBW
# generators and the top degree is sum((order - 1) * weight) over them.
FAMILY = {
    (1, 1): (2 * 2, 2), (2, 1): (3 ** 3, 8), (3, 1): (5 ** 4, 28), (3, 2): (108, 22),
    (3, 3): (36, 10), (4, 1): (144, 16), (4, 2): (432, 32), (5, 1): (144, 20),
    (5, 2): (432, 36), (6, 1): (11664, 67), (7, 1): (432, 26), (7, 2): (144, 18),
    (8, 1): (4 ** 6, 48), (8, 2): (4 ** 6, 62), (8, 3): (4 ** 6, 60), (8, 4): (4 ** 6, 46),
    (9, 1): (11664, 105), (10, 1): (331776, 172), (11, 1): (40000, 89),
    (12, 1): (810000, 214), (13, 1): (331776, 134), (14, 1): (11664, 86),
    (15, 1): (810000, 158), (16, 1): (40000, 78), (16, 2): (160000, 148),
    (17, 1): (331776, 280), (18, 1): (810000, 350), (19, 1): (2 ** 6 * 14 ** 6, 388),
    (20, 1): (810000, 282), (21, 1): (331776, 226), (22, 1): (2 ** 6 * 14 ** 6, 328),
}


def fixture_build(seed, size):
    return {"cap": FIXTURE_CAP[size]}


def fixture_matrix(cap):
    return classify.run_fixture_matrix(degree_cap=cap, weight_cap=16)


def fixture_run(inputs):
    # The rows run back to back, each timing itself on the same monotonic
    # clock as perf_counter(), and the last one ends as the call returns; so
    # the row intervals are laid end to end, backwards from that moment.
    rows = fixture_matrix(inputs["cap"])
    t = time.perf_counter()
    intervals = []
    for r in reversed(rows):
        intervals.append((t - r.seconds, t))
        t -= r.seconds
    return rows, intervals[::-1]


def fixture_check(inputs, rows, corrupt):
    family = dict(FAMILY)
    if corrupt:
        dim, top = family[(2, 1)]
        family[(2, 1)] = (dim + 1, top)
    failures = []
    seen = set()
    for r in rows:
        key = (r.type_id, r.case_id)
        seen.add(key)
        if key not in family:
            failures.append(f"row {key}: not a family case")
            continue
        dim, top = family[key]
        want_degree = min(inputs["cap"], top)
        if not r.passed or r.dim_value != dim or r.verified_degree != want_degree:
            failures.append(f"row {key}: passed={r.passed} dim={r.dim_value} (want {dim}) "
                            f"verified_degree={r.verified_degree} (want {want_degree})")
    failures += [f"row {key}: missing" for key in sorted(set(family) - seen)]
    return failures


def fixture_items(inputs):
    return len(FAMILY)


# -- hilbert_deep ---------------------------------------------------------------

# (family case, degree) per size: (15,1) is rank-bound at conductor 30,
# (2,1) is image-bound and reaches past its top degree 8.
HILBERT = {"full": [((15, 1), 8), ((2, 1), 10)], "quick": [((15, 1), 4), ((2, 1), 4)]}


def hilbert_build(seed, size):
    samples = classify.fixtures()
    return [(key, samples[key], degree) for key, degree in HILBERT[size]]


def hilbert_prefix(b, degree):
    return nicholscore.hilbert_prefix(b, degree)


def hilbert_run(inputs):
    outputs, intervals = [], []
    for _key, b, degree in inputs:
        t0 = time.perf_counter()
        outputs.append(hilbert_prefix(b, degree))
        intervals.append((t0, time.perf_counter()))
    return outputs, intervals


def hilbert_check(inputs, outputs, corrupt):
    failures = []
    for i, ((n, c), b, degree) in enumerate(inputs):
        tree = TREES[n]
        want = list(nicholscore.count_by_degree(nicholscore.pbw_monomials(tree, b, degree),
                                                degree))
        if corrupt and i == 0:
            want[1] += 1
        got = list(outputs[i])
        failures += [f"({n},{c}) degree {m}: dimension {g}, monomial count {w}"
                     for m, (g, w) in enumerate(zip(got, want)) if g != w]
        dim, top = FAMILY[(n, c)]
        if degree >= top and not (sum(got) == nicholscore.dimension(tree, b) == dim):
            failures.append(f"({n},{c}): Hilbert series sums to {sum(got)}, want {dim}")
    return failures


def hilbert_items(inputs):
    return sum(degree + 1 for _key, _b, degree in inputs)


# -- classify_sweep -------------------------------------------------------------

SWEEP_EXHAUSTIVE = {"full": (6, 8), "quick": (6,)}
SWEEP_DRAWN = {"full": (12, 14, 18, 20, 24, 30), "quick": ()}
SWEEP_DRAWS_PER_CONDUCTOR = 48


def sweep_build(seed, size):
    """Every (zeta_N^a, zeta_N^c, 1, zeta_N^d) for the exhaustive conductors,
    then, per larger conductor, a fixed sample of exponent triples, each
    moved by the Galois automorphism zeta_N -> zeta_N^u for a unit u drawn
    from the seed.

    A braiding and its Galois conjugates have the same orders, match the
    same conditions and cost about the same to classify, while the cost of
    unrelated braidings differs by up to 20x.  So each seed classifies other
    braidings, but the sweep's amount of work and the slowest braidings,
    which set braiding_p99_ms, do not depend on the seed."""
    sample = random.Random(0)
    rng = random.Random(seed)
    out = [(n, a, c, d) for n in SWEEP_EXHAUSTIVE[size]
           for a in range(n) for c in range(n) for d in range(n)]
    for n in SWEEP_DRAWN[size]:
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        for _ in range(SWEEP_DRAWS_PER_CONDUCTOR):
            a, c, d = (sample.randrange(n) for _ in range(3))
            u = rng.choice(units)
            out.append((n, u * a % n, u * c % n, u * d % n))
    return out


def classify_braiding(n, a, c, d):
    root = cyclotomic.root_of_unity
    b = braidedalg.Braiding(root(a, n), root(c, n), cyclotomic.ONE, root(d, n))
    matches = classify.match_condition(b)
    try:
        tree = admissibility.reconstruct_tree(b, 16)
    except admissibility.ReconstructionError:
        return matches, None, None
    orders = [b.chi_nodes(tree, x, x).order() for x in tree.nbar2()]
    if all(o is not None and o > 1 for o in orders):
        admissibility.is_admissible(tree, b, 64)
        nicholscore.dimension(tree, b)
    return matches, tree, orders


def sweep_run(inputs):
    outputs, intervals = [], []
    for item in inputs:
        t0 = time.perf_counter()
        try:
            outputs.append(classify_braiding(*item))
        except Exception as exc:  # any defect is a failed item, not a crash
            outputs.append(exc)
        intervals.append((t0, time.perf_counter()))
    return outputs, intervals


def sweep_check(inputs, outputs, corrupt):
    trees = dict(TREES)
    if corrupt:
        trees[1] = TREES[2]
    failures = []
    for item, out in zip(inputs, outputs):
        if isinstance(out, Exception):
            failures.append(f"{item}: {type(out).__name__}: {out}")
            continue
        matches, tree, orders = out
        if not matches:
            continue
        if tree is None or tree not in {trees[n] for n, _c in matches}:
            failures.append(f"{item}: matches {matches} but tree is {tree}")
        elif not all(o is not None and o > 1 for o in orders):
            failures.append(f"{item}: matches {matches} but generator orders {orders}")
    return failures


def sweep_items(inputs):
    return len(inputs)


WORKLOADS = {
    "fixture_matrix": (fixture_build, fixture_run, fixture_check, fixture_items),
    "hilbert_deep": (hilbert_build, hilbert_run, hilbert_check, hilbert_items),
    "classify_sweep": (sweep_build, sweep_run, sweep_check, sweep_items),
}

# The benchmark's own per-item functions, traced as the root span of each item.
ITEM_SPANS = {
    "fixture_matrix": ("fixture_matrix", "bench.fixture_matrix"),
    "hilbert_deep": ("hilbert_prefix", "bench.hilbert_prefix"),
    "classify_sweep": ("classify_braiding", "bench.braiding"),
}
