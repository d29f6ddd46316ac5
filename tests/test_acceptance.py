"""The acceptance battery: nine criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Every tolerance is exact (integer or cyclotomic arithmetic);
the reported time is informational.
"""

import random
import time

import pytest

from conftest import lambda_closed, random_root_braiding

from test_fbtree import (check_godfathers_determine_node, check_label_identities,
                         check_order_identities, check_separation_identities)
from test_lyndon import is_lyndon_definitional, shirshow_minimal_v

from nichols2.cyclotomic import MINUS_ONE, ONE, qnum, root_of_unity
from nichols2.braidedalg import Braiding, NCPoly, is_zero_in_nichols, tau0
from nichols2.fbtree import LGH, RGH, TREES, random_full_tree
from nichols2.lyndon import all_words, gamma, is_lyndon, shirshow
from nichols2.admissibility import lambda_of, p_of
from nichols2.classify import fixtures, match_condition, run_fixture_matrix
from nichols2.nicholscore import hilbert_prefix, relation_set


def _report(number: int, name: str, t0: float, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {status} ({time.time() - t0:.1f}s)")
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def matrix_rows():
    t0 = time.time()
    rows = run_fixture_matrix(degree_cap=8, weight_cap=16)
    print(f"\n[fixture matrix at degree cap 8: {time.time() - t0:.1f}s]")
    return rows


def test_criterion_1_combinatorial_property_suite():
    t0 = time.time()
    failures = []
    rng = random.Random(1)
    trees = list(TREES.values())
    for _ in range(1000):
        trees.append(random_full_tree(rng, rng.randrange(0, 17)))
    assert all(t.size() <= 33 for t in trees[22:])
    for i, t in enumerate(trees):
        try:
            check_label_identities(t)
            check_order_identities(t)
            check_separation_identities(t)
            check_godfathers_determine_node(t)
        except AssertionError as exc:
            failures.append((i, exc))
    _report(1, "combinatorial property suite", t0, failures)


def test_criterion_2_lyndon_suite():
    t0 = time.time()
    failures = []
    for n in range(1, 15):
        for u in all_words(n):
            if is_lyndon(u) != is_lyndon_definitional(u):
                failures.append(("criteria disagree", str(u)))
            elif n >= 2 and is_lyndon(u) and shirshow(u) != shirshow_minimal_v(u):
                failures.append(("decomposition disagrees", str(u)))
    for key, t in TREES.items():
        g = gamma(t)
        for a in t.nbar():
            if len(g[a]) != t.weight(a):
                failures.append(("length mismatch", key, a))
        exts = list(t.nbar())
        for x in exts:
            for y in exts:
                if (t.cmp_q(x, y) < 0) != (g[x] < g[y]):
                    failures.append(("order not preserved", key, x, y))
    _report(2, "lyndon suite", t0, failures)


def test_criterion_3_lambda_consistency():
    t0 = time.time()
    failures = []
    rng = random.Random(3)
    for key, t in TREES.items():
        for _ in range(3):
            b = random_root_braiding(rng)
            for a in t.nodes():
                if t.rgf(a) is RGH and lambda_closed(t, b, a, "right") != lambda_of(t, b, a):
                    failures.append(("right closed form", key, a))
                if t.lgf(a) is LGH and lambda_closed(t, b, a, "left") != lambda_of(t, b, a):
                    failures.append(("left closed form", key, a))
            for a in t.internal():
                lb = t.lch(a)
                while not t.is_leaf(lb):
                    lb = t.rch(lb)
                lc = t.rch(a)
                while not t.is_leaf(lc):
                    lc = t.lch(lc)
                p_a = p_of(t, b, a)
                expr = (qnum(t.lgfl(lb) + t.rgfl(lc), p_a)
                        * (p_of(t, b, t.rgf(a))
                           - p_a ** (t.lgfl(lb) - t.rgfl(lc)) * p_of(t, b, t.lgf(a))))
                if (lambda_of(t, b, lb) == lambda_of(t, b, lc)) != expr.is_zero():
                    failures.append(("boundary-leaf criterion", key, a))
    _report(3, "lambda consistency", t0, failures)


def test_criterion_4_per_type_golden_tables(matrix_rows):
    t0 = time.time()
    failures = [(r.type_id, r.case_id, "p") for r in matrix_rows if not r.p_table_ok]
    failures += [(r.type_id, r.case_id, "lambda") for r in matrix_rows if not r.lambda_ok]
    if len(matrix_rows) != 31:
        failures.append(("row count", len(matrix_rows)))
    _report(4, "per-type golden tables", t0, failures)


def test_criterion_5_tree_reconstruction(matrix_rows):
    t0 = time.time()
    failures = [(r.type_id, r.case_id) for r in matrix_rows if not r.tree_ok]
    if {r.type_id for r in matrix_rows} != set(range(1, 23)):
        failures.append(("type coverage",))
    _report(5, "tree reconstruction", t0, failures)


def test_criterion_6_hilbert_agreement(matrix_rows):
    t0 = time.time() - sum(r.seconds for r in matrix_rows)
    failures = [(r.type_id, r.case_id, "hilbert") for r in matrix_rows if not r.hilbert_ok]
    failures += [(r.type_id, r.case_id, "basis") for r in matrix_rows if not r.basis_ok]
    failures += [(r.type_id, r.case_id, "cap") for r in matrix_rows
                 if r.verified_degree != 8 and (r.type_id, r.case_id) != (1, 1)]
    by_key = {(r.type_id, r.case_id): r for r in matrix_rows}
    if by_key[(1, 1)].verified_degree != 2:
        failures.append(("exterior cap",))
    # The dimension of each family's Nichols algebra, as the paper lists it.
    paper_dims = {
        (1, 1): 4, (2, 1): 27, (3, 1): 625, (3, 2): 108, (3, 3): 36, (4, 1): 144,
        (4, 2): 432, (5, 1): 144, (5, 2): 432, (6, 1): 11664, (7, 1): 432, (7, 2): 144,
        (8, 1): 4096, (8, 2): 4096, (8, 3): 4096, (8, 4): 4096, (9, 1): 11664,
        (10, 1): 331776, (11, 1): 40000, (12, 1): 810000, (13, 1): 331776,
        (14, 1): 11664, (15, 1): 810000, (16, 1): 40000, (16, 2): 160000,
        (17, 1): 331776, (18, 1): 810000, (19, 1): 481890304, (20, 1): 810000,
        (21, 1): 331776, (22, 1): 481890304,
    }
    if set(by_key) != set(paper_dims):
        failures.append(("family rows", sorted(set(by_key) ^ set(paper_dims))))
    failures += [(key, "dimension", by_key[key].dim_value, dim)
                 for key, dim in sorted(paper_dims.items())
                 if key in by_key and by_key[key].dim_value != dim]
    _report(6, "oracle-vs-monomial dimension agreement", t0, failures)


def test_criterion_7_relation_vanishing(matrix_rows):
    t0 = time.time()
    failures = [(r.type_id, r.case_id) for r in matrix_rows if not r.relations_ok]
    # Negative control: perturbing a mixed-relation coefficient must break it.
    from nichols2.cyclotomic import qfact
    from nichols2.admissibility import mu_of

    z12 = root_of_unity(1, 12)
    b = Braiding(z12, z12 ** 9, ONE, MINUS_ONE)
    t = TREES[7]
    bb = t.rch(t.rch(0))
    c = t.lgf(bb)
    k = t.rgfl(bb)
    coeff = mu_of(t, b, bb) * qfact(k + 1, p_of(t, b, c)).inv()
    lgc = t.lgf(c)
    base = (tau0(t, b, bb) * tau0(t, b, lgc)
            - b.chi_nodes(t, bb, lgc) * (tau0(t, b, lgc) * tau0(t, b, bb)))
    good = base - coeff * tau0(t, b, c) ** (k + 1)
    bad = base - (coeff + coeff) * tau0(t, b, c) ** (k + 1)
    if not (is_zero_in_nichols(b, good) and is_zero_in_nichols(b, good, "derivations")):
        failures.append(("unperturbed relation does not vanish",))
    if is_zero_in_nichols(b, bad) or is_zero_in_nichols(b, bad, "derivations"):
        failures.append(("perturbed relation vanishes",))
    _report(7, "relation vanishing under both oracles", t0, failures)


def test_criterion_8_method_cross_agreement():
    t0 = time.time()
    failures = []
    rng = random.Random(8)
    pool = [random_root_braiding(rng, max_conductor=8) for _ in range(8)]
    ideal_sources = []
    for key in (1, 2, 3):
        b = fixtures()[(key, 1)]
        small = [r for r in relation_set(TREES[key], b, max_degree=5)]
        ideal_sources.extend((b, r) for r in small)
    cases = []
    while len(cases) < 500:
        if len(cases) % 2 == 0 or not ideal_sources:
            b = pool[rng.randrange(len(pool))]
            m = rng.randrange(1, 8)
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                w = tuple(rng.choice((1, 2)) for _ in range(m))
                terms[w] = root_of_unity(rng.randrange(8), 8)
            rho = NCPoly(terms)
        else:
            b, rel = ideal_sources[rng.randrange(len(ideal_sources))]
            pad = 7 - rel.total_degree()
            left = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(0, pad + 1)))
            rho = NCPoly({left: ONE}) * rel
        if not rho.is_zero():
            cases.append((b, rho))
    # Grouped by braiding, in a stable order, as the one symmetrizer engine
    # is rebuilt, and its oracle run again, at every switch of braiding.
    first = {}
    for b, _ in cases:
        first.setdefault(b, len(first))
    for checked in sorted(range(len(cases)), key=lambda k: first[cases[k][0]]):
        b, rho = cases[checked]
        s = is_zero_in_nichols(b, rho, "symmetrizer")
        d = is_zero_in_nichols(b, rho, "derivations")
        if s != d:
            failures.append((checked, s, d))
    _report(8, "zero-test method cross-agreement", t0, failures)


def test_criterion_9_rescaling_invariance():
    t0 = time.time()
    failures = []
    rng = random.Random(9)
    for trial in range(20):
        while True:
            b = random_root_braiding(rng, max_conductor=12)
            if b.of_roots and b._exps[0] <= 12:
                break
        k, n = rng.randrange(12), 12
        c = root_of_unity(k, n)
        rescaled = Braiding(b.q11, b.q12 * c, b.q21 * c.inv(), b.q22)
        if match_condition(b) != match_condition(rescaled):
            failures.append((trial, "match differs"))
        if list(hilbert_prefix(b, 6)) != list(hilbert_prefix(rescaled, 6)):
            failures.append((trial, "dimensions differ"))
    _report(9, "rescaling invariance", t0, failures)
