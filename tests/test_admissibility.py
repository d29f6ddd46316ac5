import itertools
import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import lambda_closed, nu_of, qnum_vanishes, random_root_braiding

from nichols2.cyclotomic import (MINUS_ONE, ONE, ZERO, CycNum, canonical_conductor, qnum,
                                 root_of_unity)
from nichols2 import braidedalg
from nichols2.braidedalg import Braiding, tau0
from nichols2.classify import classify_full, fixtures
from nichols2.fbtree import LGH, RGH, TREES, FullBinaryTree, Virtual, parse_tree, serialize_tree
from nichols2.admissibility import (AdmissibilityReport, NuDenominatorError, PTableMismatch,
                                    ReconstructionError, ScalarDomainError, StructureError,
                                    _branch_length_formula_checks, _nu_vanishes, _qnum_zero,
                                    check_branch_hypothesis, is_admissible, lambda_of,
                                    lambda_table, mu_of, p_of, p_table, reconstruct_tree,
                                    sorted_internal)


def cartan_a2():
    z3 = root_of_unity(1, 3)
    return Braiding(z3, z3 ** 2, ONE, z3)


def test_lambda_root_values():
    t = TREES[2]
    b = Braiding(MINUS_ONE, ONE, ONE, MINUS_ONE)
    assert lambda_of(t, b, t.root).is_zero()  # q12 q21 = 1 forces zero
    z5, z7 = root_of_unity(1, 5), root_of_unity(1, 7)
    b2 = Braiding(z5, z5, z7, z5)
    assert lambda_of(t, b2, t.root) == b2.q21.inv() - b2.q12


def test_lambda_left_leaf_closed_form(rng):
    # The left child of the root carries (1 + q22^-1)(q21^-1 - q12 q22).
    for _ in range(6):
        b = random_root_braiding(rng)
        t = TREES[2]
        want = (ONE + b.q22.inv()) * (b.q21.inv() - b.q12 * b.q22)
        assert lambda_of(t, b, t.lch(t.root)) == want


def test_lambda_virtual_nodes_are_zero():
    b = cartan_a2()
    assert lambda_of(TREES[2], b, LGH).is_zero()
    assert lambda_of(TREES[2], b, RGH).is_zero()


def test_lambda_closed_reduces_to_root_formula(rng):
    for _ in range(5):
        b = random_root_braiding(rng)
        t = TREES[2]
        root_val = b.q21.inv() - b.q12
        assert lambda_closed(t, b, t.root, "right") == root_val
        assert lambda_closed(t, b, t.root, "left") == root_val


def test_lambda_closed_agrees_with_recursion_everywhere(rng):
    for t in TREES.values():
        for _ in range(3):
            b = random_root_braiding(rng)
            for a in t.nodes():
                if t.rgf(a) is RGH:
                    assert lambda_closed(t, b, a, "right") == lambda_of(t, b, a)
                if t.lgf(a) is LGH:
                    assert lambda_closed(t, b, a, "left") == lambda_of(t, b, a)


def test_lambda_closed_domain_errors():
    b = cartan_a2()
    t = TREES[3]
    inner_right = t.rch(t.root)
    with pytest.raises(ScalarDomainError):
        lambda_closed(t, b, inner_right, "left")
    with pytest.raises(ScalarDomainError):
        lambda_closed(t, b, t.lch(t.root), "right")


def boundary_leaves(t, a):
    # Leaf below lch(a) along right children, leaf below rch(a) along left.
    x = t.lch(a)
    while not t.is_leaf(x):
        x = t.rch(x)
    y = t.rch(a)
    while not t.is_leaf(y):
        y = t.lch(y)
    return x, y


def test_boundary_leaf_equality_criterion(rng):
    # lambda(b) = lambda(c) at the two boundary leaves of an inner node a
    # exactly when [lgfl(b)+rgfl(c)]_{p_a} (p_{rgf a} - p_a^(lgfl(b)-rgfl(c))
    # p_{lgf a}) vanishes.
    for t in TREES.values():
        for _ in range(3):
            b = random_root_braiding(rng)
            for a in t.internal():
                lb, lc = boundary_leaves(t, a)
                p_a = p_of(t, b, a)
                expr = (qnum(t.lgfl(lb) + t.rgfl(lc), p_a)
                        * (p_of(t, b, t.rgf(a))
                           - p_a ** (t.lgfl(lb) - t.rgfl(lc)) * p_of(t, b, t.lgf(a))))
                assert ((lambda_of(t, b, lb) == lambda_of(t, b, lc))
                        == expr.is_zero())


def test_mu_right_child_specializes_to_lambda(rng):
    for t in TREES.values():
        b = random_root_braiding(rng)
        for a in t.nodes():
            c = t.lgf(a)
            if isinstance(c, int) and t.rch(c) == a:
                assert mu_of(t, b, a) == lambda_of(t, b, a)


def test_mu_nested_case():
    # On the tree of family 6, the left child of the right inner node has
    # mu = lambda(b) * lambda(rgf b) with rgf(b) a right child there.
    z18 = root_of_unity(1, 18)
    b = Braiding(z18, z18 ** 16, ONE, -(z18 ** 3))
    t = TREES[6]
    bb = t.lch(t.rch(t.root))
    assert t.rgf(bb) == t.rch(t.root)
    assert mu_of(t, b, bb) == lambda_of(t, b, bb) * mu_of(t, b, t.rgf(bb))
    assert mu_of(t, b, bb) == lambda_of(t, b, bb) * lambda_of(t, b, t.rgf(bb))


def test_nu_vanishes_where_required():
    # Wherever the admissibility conditions demand nu = 0 on a sample
    # instance, the computed nu is exactly zero.
    from nichols2.classify import fixtures

    required = 0
    for (n, c), b in fixtures().items():
        t = TREES[n]
        for bb in t.internal():
            cc = t.lgf(bb)
            if not (isinstance(cc, int) and not t.is_leaf(cc)):
                continue
            if t.rchl(t.lch(cc)) <= t.rgfl(bb) or t.rgfl(bb) > 2:
                continue
            assert nu_of(t, b, bb).is_zero(), (n, c, bb)
            required += 1
    assert required >= 3  # families 6, 11, 19, 22 all exercise this


def test_nu_domain_errors():
    b = cartan_a2()
    with pytest.raises(ScalarDomainError):
        nu_of(TREES[2], b, TREES[2].root)


def test_branch_hypothesis_on_constants_and_violation():
    for t in TREES.values():
        check_branch_hypothesis(t)
    deep = parse_tree(
        "((L (L (L (L L)))) (((((L L) L) L) L) L))")
    with pytest.raises(StructureError):
        check_branch_hypothesis(deep)


def test_is_admissible_examples():
    assert is_admissible(TREES[2], cartan_a2(), 10).admissible
    rep = is_admissible(TREES[1], cartan_a2(), 2)
    assert not rep.admissible
    assert any(cond == "branching" for cond, _, _ in rep.failures)
    b1 = Braiding(MINUS_ONE, ONE, ONE, MINUS_ONE)
    rep = is_admissible(TREES[2], b1, 2)
    assert not rep.admissible
    assert any(cond == "branching" for cond, _, _ in rep.failures)


@pytest.mark.parametrize("cond, why, n, exps, node", [
    ("p-not-minus-one", "p_a = -1 with inner left child", 4, (0, 0, 3), 0),
    ("q-factorial", "[2]! at p_c vanishes", 3, (0, 0, 3), 2),
    ("q-factorial", "[3]! at p_c vanishes", 5, (0, 0, 2), 3),
    ("mixed-relation", "nu does not vanish", 4, (0, 0, 1), 4),
    ("mixed-relation", "vanishing [2]_{p_f} denominator at node 4", 4, (3, 0, 1), 4),
])
def test_is_admissible_failure_kinds(cond, why, n, exps, node):
    # One witness per failure kind, on (z6^a, z6^c, 1, z6^d) for exps (a, c, d).
    a, c, d = (root_of_unity(k, 6) for k in exps)
    rep = is_admissible(TREES[n], Braiding(a, c, ONE, d), 64)
    assert (cond, node, why) in rep.failures


def test_reconstruct_examples():
    assert reconstruct_tree(cartan_a2()) == TREES[2]
    assert reconstruct_tree(Braiding(MINUS_ONE, ONE, ONE, MINUS_ONE)) == TREES[1]
    z18 = root_of_unity(1, 18)
    b6 = Braiding(z18, z18 ** 16, ONE, -(z18 ** 3))
    assert reconstruct_tree(b6) == TREES[6]


def test_reconstruct_cap_failure():
    z5 = root_of_unity(1, 5)
    with pytest.raises(ReconstructionError):
        reconstruct_tree(Braiding(z5, z5, ONE, z5), 16)


def test_reconstruct_non_root_of_unity_branching():
    two = ONE + ONE
    with pytest.raises(ReconstructionError):
        reconstruct_tree(Braiding(two, two, ONE, two), 16)


def test_p_table_spec_examples():
    b2 = cartan_a2()
    assert p_table(2, b2, 1) == [(b2.q11 * b2.q12 * b2.q21 * b2.q22).inv()]
    z12 = root_of_unity(1, 12)
    b4 = Braiding(z12 ** 4, z12 ** 9, ONE, -(z12 ** 2))
    q0 = b4.q11 * b4.q12 * b4.q21
    assert p_table(4, b4, 1) == [-ONE, q0 ** 3, -ONE]
    z9 = root_of_unity(1, 9)
    b9 = Braiding(z9 ** 6, z9, ONE, MINUS_ONE)
    q = b9.q12 * b9.q21
    assert p_table(9, b9, 1) == [-(q ** 2), -ONE, q ** 3, -q]


def test_p_table_mismatch_raises():
    # The family-4 templates are non-tautological, so a braiding outside the
    # family condition must trip the comparison.
    with pytest.raises(PTableMismatch):
        p_table(4, Braiding(MINUS_ONE, ONE, ONE, MINUS_ONE), 1)


def test_lambda_table_type18_reading():
    # The unnamed q in the listed fifth value is the product q12*q21.
    z30 = root_of_unity(1, 30)
    b18 = Braiding(-(z30 ** 5), z30, ONE, MINUS_ONE)
    vals = lambda_table(18, b18, 1)
    q = b18.q12 * b18.q21
    assert vals[1] == b18.q21.inv() * (q ** 5 - q ** -4)


def test_sorted_internal_matches_q_order():
    t = TREES[6]
    nodes = sorted_internal(t)
    for x, y in zip(nodes, nodes[1:]):
        assert t.cmp_q(x, y) < 0


# -- the product-form reference -------------------------------------------------

# Reconstruction with lambda summed as CycNum values and each branch-length
# expression formed as a product before its zero test.  The library keeps
# lambda as a coordinate tuple and tests each product factor by factor; the
# tests below hold it to this form.

def reference_branch_length_formula_checks(t: FullBinaryTree, b: Braiding) -> None:
    # Independent validation of the reconstructed branch lengths: each
    # outer spine length and each inner left-branch length must be the
    # first index where a closed-form expression vanishes.
    q11i, q22i = b.q11.inv(), b.q22.inv()
    p_root = (b.q11 * b.q12 * b.q21 * b.q22).inv()

    def right_expr(m):
        return qnum(m, q11i) * (b.q11 ** (1 - m) * p_root - q11i * q22i)

    def left_expr(m):
        return qnum(m, q22i) * (b.q22 ** (1 - m) * p_root - q22i * q11i)

    def check_min(length, expr, what):
        for m in range(1, length + 1):
            val = expr(m)
            if m < length and val.is_zero():
                raise ReconstructionError(f"{what}: expression vanishes early at {m}")
            if m == length and not val.is_zero():
                raise ReconstructionError(f"{what}: expression nonzero at {m}")

    check_min(t.rchl(0), right_expr, "right spine length")
    check_min(t.lchl(0), left_expr, "left spine length")
    for a in t.internal():
        p_a = p_of(t, b, a)
        s = t.lchl(t.rch(a))
        p_r = p_of(t, b, t.rgf(a))
        p_l = p_of(t, b, t.lgf(a))

        def inner_expr(m, p_a=p_a, s=s, p_r=p_r, p_l=p_l):
            return qnum(m + s, p_a) * (p_r * p_a ** s - p_l * p_a ** m)

        check_min(t.rchl(t.lch(a)), inner_expr, f"left branch below node {a}")


def reference_reconstruct_tree(b: Braiding, max_weight: int = 16) -> FullBinaryTree:
    """Grow the tree of a braiding from the root: a node branches exactly
    when its lambda is nonzero.

    Fails when a branching node would exceed max_weight (the braiding is
    then possibly of infinite type, or the cap too small) or when a
    branching node's p is not a root of unity.  The finished tree is
    cross-checked against closed-form branch-length minimality conditions.
    """
    if max_weight < 2:
        raise ValueError("max_weight must be at least 2")
    lam_root = b.q21.inv() - b.q12

    def grow(stbr, stbr_lgf, stbr_rgf, lam):
        if lam.is_zero():
            return None
        weight = stbr[0] + stbr[1]
        if weight > max_weight:
            raise ReconstructionError(
                f"branching node at weight {weight} exceeds the cap {max_weight}: "
                "possibly infinite-dimensional or cap too small")
        p_a = b.chi(stbr, stbr).inv()
        if p_a.order() is None:
            raise ReconstructionError(
                f"branching node at label {stbr} has non-root-of-unity p")
        lch_stbr = (stbr_lgf[0] + stbr[0], stbr_lgf[1] + stbr[1])
        rch_stbr = (stbr[0] + stbr_rgf[0], stbr[1] + stbr_rgf[1])
        lam_lch = b.chi(stbr_lgf, stbr).inv() - b.chi(stbr, stbr_lgf) + lam
        lam_rch = b.chi(stbr, stbr_rgf).inv() - b.chi(stbr_rgf, stbr) + lam
        return (grow(lch_stbr, stbr_lgf, stbr, lam_lch),
                grow(rch_stbr, stbr, stbr_rgf, lam_rch))

    shape = grow((1, 1), (0, 1), (1, 0), lam_root)
    t = FullBinaryTree(shape)
    reference_branch_length_formula_checks(t, b)
    return t


# Lambda summed as CycNum values up the ancestor chain, one memo entry per
# (tree, braiding, node).  The library grows every node's coordinate tuple
# from its parent's in one pass; the tests below hold it to this form.

@lru_cache(maxsize=None)
def reference_lambda_of(t: FullBinaryTree, b: Braiding, a) -> CycNum:
    if isinstance(a, Virtual):
        return ZERO
    par = t.parent[a]
    if par is None:
        return b.q21.inv() - b.q12
    step = b.chi_nodes(t, t.lgf(a), t.rgf(a)).inv() - b.chi_nodes(t, t.rgf(a), t.lgf(a))
    return step + reference_lambda_of(t, b, par)


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except ReconstructionError as exc:
        return "error", str(exc)
    return "tree", None if result is None else serialize_tree(result)


def _braidings(*orders):
    """Every (zeta_N1^a, zeta_N2^c, zeta_N3^e, zeta_N4^d) for the given N."""
    return [Braiding(*(root_of_unity(k, n) for k, n in zip(ks, orders)))
            for ks in itertools.product(*(range(n) for n in orders))]


def test_reconstruct_matches_product_form_reference():
    braidings = [b for n in (3, 4, 5, 9, 10, 15, 18) for b in _braidings(n, n, 1, n)]
    # q21 != 1 and entries of four different orders.
    braidings += _braidings(4, 3, 5, 6)
    # Entries that are not roots of unity, among roots and at other conductors.
    z5, z12 = root_of_unity(1, 5), root_of_unity(1, 12)
    entries = (ONE + ONE, CycNum.from_rational(Fraction(1, 2)), z5 + Fraction(1, 3), ONE, z12)
    braidings += [Braiding(*qs) for qs in itertools.product(entries, repeat=4)]
    seen = Counter()
    for b in braidings:
        want = _outcome(reference_reconstruct_tree, b)
        assert _outcome(reconstruct_tree, b) == want, b
        # "tree", or the word after "branching node at": "weight" for the
        # cap, "label" for a p that is not a root of unity.
        seen[want[0] if want[0] == "tree" else want[1].split(" ")[3]] += 1
    assert set(seen) == {"tree", "weight", "label"}


def test_lambda_matches_ancestor_sum_reference():
    vals = (ONE + ONE, CycNum.from_rational(Fraction(1, 2)), root_of_unity(1, 5) + Fraction(1, 3))
    braidings = _braidings(6, 6, 1, 6)
    braidings += [Braiding(q11, q12, ONE, q22) for q11, q12, q22 in itertools.product(vals, repeat=3)]
    for t in TREES.values():
        for b in braidings:
            for a in t.nbar():
                assert lambda_of(t, b, a) == reference_lambda_of(t, b, a), (t, b, a)


def test_tables_hold_one_tree_and_braiding():
    braidedalg.clear_caches()
    first = {}
    for key in ((3, 1), (6, 1), (11, 1), (2, 1)):
        b, t = fixtures()[key], TREES[key[0]]
        classify_full(b, 3)
        ctx = braidedalg._engine(b)
        tables = (ctx.lambdas, ctx.brackets)
        assert ctx.tree == t and None not in tables
        first[key] = ([lambda_of(t, b, a) for a in t.nbar()], [tau0(t, b, a) for a in t.nbar()])
        # classify_full left this pair's tables in place: reading them rebuilds nothing.
        assert ctx.lambdas is tables[0] and ctx.brackets is tables[1]
        # One context, on one tree, holds them.
        assert list(braidedalg._ENGINES) == [b] and ctx.tree == t
    for key, (lams, taus) in first.items():
        b, t = fixtures()[key], TREES[key[0]]
        assert [lambda_of(t, b, a) for a in t.nbar()] == lams
        assert [tau0(t, b, a) for a in t.nbar()] == taus
        assert lams == [reference_lambda_of(t, b, a) for a in t.nbar()]


def test_branch_checks_match_product_form_reference():
    # Every tree against every braiding, so most pairs are mismatched and
    # each way of failing the checks is reached.
    seen = Counter()
    for n in (6, 8):
        for b in _braidings(n, n, 1, n):
            for t in TREES.values():
                want = _outcome(reference_branch_length_formula_checks, t, b)
                assert _outcome(_branch_length_formula_checks, t, b) == want, (t, b)
                why = want[1]
                seen["pass" if why is None else "early" if "early" in why else why[-1]] += 1
    assert seen["pass"] == 188 and seen["early"] == 7694
    assert sum(seen[str(m)] for m in range(1, 7)) == 8134 and all(seen[str(m)] for m in range(1, 7))


def test_qnum_vanishes_equals_qnum_zero_test():
    values = [ONE, MINUS_ONE, ONE + ONE, CycNum.from_rational(Fraction(1, 2)),
              root_of_unity(1, 12) + Fraction(1, 3)]
    for d in range(1, 31):
        for k in range(d):
            if math.gcd(k, d) != 1:
                continue
            r = root_of_unity(k, d)
            n = canonical_conductor(3 * r.conductor)
            # At its own conductor; carrying its exponent at 3 times it, as
            # a product puts it; and, for small orders, as bare coordinates.
            values += [r, r * root_of_unity(1, n) * root_of_unity(-1, n)]
            if d <= 12:
                values.append(CycNum(n, r._lift(n)))
    for p in values:
        # [m]_p built term by term, as qnum builds it.
        acc, term = ZERO, ONE
        for m in range(41):
            assert qnum_vanishes(m, p) == acc.is_zero(), (m, p)
            acc, term = acc + term, term * p
        assert acc == qnum(41, p)


# -- the integer-row nu test ---------------------------------------------------

def _nu_sites(t, b):
    """The nodes where `is_admissible` asks whether nu vanishes, decided
    here by the scalar references."""
    for bb in t.internal():
        c = t.lgf(bb)
        if not (isinstance(c, int) and not t.is_leaf(c)):
            continue
        k = t.rgfl(bb)
        if any(qnum_vanishes(j, p_of(t, b, c)) for j in range(1, k + 2)):
            continue
        if t.rchl(t.lch(c)) > k and k <= 2:
            yield bb, k


def test_nu_rows_match_scalar_nu():
    # Every family tree against the braidings of the admissibility CI gate.
    braidings = [b for n in (6, 8) for b in _braidings(n, n, 1, n)]
    vals = [ONE + ONE, root_of_unity(1, 5) + CycNum.from_rational(Fraction(1, 3))]
    braidings += [Braiding(q11, q12, ONE, q22) for q11, q12, q22 in itertools.product(vals, repeat=3)]
    seen = Counter()
    for t in TREES.values():
        for b in braidings:
            for bb, k in _nu_sites(t, b):
                try:
                    want = nu_of(t, b, bb).is_zero()
                except NuDenominatorError as exc:
                    with pytest.raises(NuDenominatorError) as got:
                        _nu_vanishes(t, b, bb)
                    assert str(got.value) == str(exc), (t, b, bb)
                    seen[str(exc).split(" ")[1], k] += 1
                    continue
                assert _nu_vanishes(t, b, bb) == want, (t, b, bb)
                seen["zero" if want else "nonzero", b.of_roots, k] += 1
    assert seen == {("zero", True, 1): 3928, ("zero", True, 2): 30,
                    ("nonzero", True, 1): 9622, ("nonzero", True, 2): 1416,
                    ("nonzero", False, 1): 200, ("nonzero", False, 2): 24,
                    ("[2]_{p_f}", 1): 2150, ("[2]_{p_f}", 2): 222}


def test_nu_rows_raise_every_denominator_error():
    # The sites is_admissible never asks, where [2]_{p_c} or [3]_{p_c} is
    # zero: the rows raise the reference's error there too.
    seen = Counter()
    for t in TREES.values():
        for b in _braidings(6, 6, 1, 6):
            for bb in t.internal():
                if not isinstance(t.lgf(bb), int) or t.rgfl(bb) > 2:
                    continue
                try:
                    want = nu_of(t, b, bb).is_zero()
                except NuDenominatorError as exc:
                    with pytest.raises(NuDenominatorError, match=re.escape(str(exc))):
                        _nu_vanishes(t, b, bb)
                    seen[str(exc).split(" ")[1]] += 1
                else:
                    assert _nu_vanishes(t, b, bb) == want, (t, b, bb)
    assert all(seen[w] for w in ("[2]_{p_f}", "[2]_{p_c}", "[3]_{p_c}")), seen


def test_mixed_relation_refuses_where_admissibility_reports_a_q_factorial(monkeypatch):
    # Both decide a vanishing q-factorial by one rule on the heights; the
    # brackets are stubbed, since the relation is refused before them.
    from nichols2 import nicholscore

    monkeypatch.setattr(nicholscore, "tau0", lambda t, b, a: braidedalg.NCPoly.unit())
    seen = set()
    for n, t in TREES.items():
        for b in _braidings(6, 6, 1, 6):
            rep = is_admissible(t, b, 64)
            flagged = {node for cond, node, _ in rep.failures + rep.beyond if cond == "q-factorial"}
            for bb in t.mixed():
                try:
                    nicholscore._mixed_relation(t, b, bb)
                except nicholscore.NicholsError as exc:
                    assert str(exc) == f"inadmissible: vanishing q-factorial at node {bb}"
                    seen.add((n, b, bb))
                else:
                    assert bb not in flagged, (n, b, bb)
                    continue
                assert bb in flagged, (n, b, bb)
    z6 = root_of_unity(1, 6)
    assert {(3, Braiding(ONE, ONE, ONE, z6 ** 3), 2), (5, Braiding(ONE, ONE, ONE, z6 ** 2), 3)} <= seen


def test_admissibility_report_defaults_and_equality():
    # Each report gets its own default lists; equality ignores `beyond`.
    a, b = AdmissibilityReport(True), AdmissibilityReport(admissible=True)
    assert (a.failures, a.checked_up_to, a.beyond) == ([], 0, [])
    assert a.failures is not b.failures and a.beyond is not b.beyond
    fail = ("branching", 1, "leaf with nonzero lambda")
    assert (AdmissibilityReport(False, [fail], 4, [fail])
            == AdmissibilityReport(False, failures=[fail], checked_up_to=4))
    assert AdmissibilityReport(False, [fail], 4) != AdmissibilityReport(False, [fail], 5)
    assert a == b and a != (True, [], 0)
