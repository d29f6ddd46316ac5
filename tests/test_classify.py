import itertools
import json
import math
from fractions import Fraction

import pytest
from conftest import random_root_braiding

from nichols2.cyclotomic import CycNum, MINUS_ONE, ONE, as_root_exponent, root_of_unity
from nichols2.braidedalg import Braiding
from nichols2.classify import (ClassificationReport, FixtureRow, classify_full, fixtures,
                               match_condition, run_fixture_matrix)


class _Scalar:
    """A CycNum as the family conditions read it: its order is 0 where it
    is not a root of unity, so every order test fails there."""

    def __init__(self, x: CycNum):
        self.x = x

    def __mul__(self, other):
        return _Scalar(self.x * other.x)

    def __pow__(self, k: int):
        return _Scalar(self.x ** k)

    def __neg__(self):
        return _Scalar(-self.x)

    def __eq__(self, other):
        return self.x == (other.x if isinstance(other, _Scalar) else other)

    def order(self) -> int:
        return self.x.order() or 0


def _root(x: _Scalar) -> bool:
    return x.order() >= 2


# Conditions (T1)-(T22); q denotes q12*q21 and q0 = q11*q.  The case index
# counts the or-branches in the order they are stated.
_EQUATIONS = [
    (1, 1, lambda q11, q, q22: _root(q11) and _root(q22) and q == ONE),
    (2, 1, lambda q11, q, q22: (q11 * q == ONE or q11 == MINUS_ONE)
        and (q * q22 == ONE or q22 == MINUS_ONE) and _root(q)),
    (3, 1, lambda q11, q, q22: q == q11 ** -2 and (q22 == q11 ** 2 or q22 == MINUS_ONE)
        and q11.order() >= 3),
    (3, 2, lambda q11, q, q22: q11.order() == 3 and q * q22 == ONE
        and (q22.order() == 2 or q22.order() >= 4)),
    (3, 3, lambda q11, q, q22: q11.order() == 3 and q == -q11 and q22 == MINUS_ONE),
    (4, 1, lambda q11, q, q22: (q11 * q).order() == 12 and q11 == (q11 * q) ** 4
        and q22 == -((q11 * q) ** 2)),
    (4, 2, lambda q11, q, q22: q.order() == 12 and q11 == -(q ** 2) and q22 == -(q ** 2)),
    (5, 1, lambda q11, q, q22: q.order() == 12 and q11 == -(q ** 2) and q22 == MINUS_ONE),
    (5, 2, lambda q11, q, q22: (q11 * q).order() == 12 and q11 == (q11 * q) ** 4
        and q22 == MINUS_ONE),
    (6, 1, lambda q11, q, q22: q11.order() == 18 and q == q11 ** -2 and q22 == -(q11 ** 3)),
    (7, 1, lambda q11, q, q22: q11.order() == 12 and q == q11 ** -3 and q22 == MINUS_ONE),
    (7, 2, lambda q11, q, q22: q.order() == 12 and q11 == q ** -3 and q22 == MINUS_ONE),
    (8, 1, lambda q11, q, q22: q == q11 ** -3 and q22 == q11 ** 3 and q11.order() >= 4),
    (8, 2, lambda q11, q, q22: q ** 4 == MINUS_ONE and q22 == MINUS_ONE and q11 == -q),
    (8, 3, lambda q11, q, q22: q ** 4 == MINUS_ONE and q22 == MINUS_ONE and q11 == q ** -2),
    (8, 4, lambda q11, q, q22: q ** 4 == MINUS_ONE and q11 == q ** 2 and q22 == q ** -1),
    (9, 1, lambda q11, q, q22: q.order() == 9 and q11 == q ** -3 and q22 == MINUS_ONE),
    (10, 1, lambda q11, q, q22: q.order() == 24 and q11 == q ** -6 and q22 == q ** -8),
    (11, 1, lambda q11, q, q22: q11.order() in (5, 20) and q == q11 ** -3
        and q22 == MINUS_ONE),
    (12, 1, lambda q11, q, q22: q11.order() == 30 and q == q11 ** -3 and q22 == -(q11 ** 5)),
    (13, 1, lambda q11, q, q22: q.order() == 24 and q11 == q ** 6 and q22 == q ** -1),
    (14, 1, lambda q11, q, q22: q11.order() == 18 and q == q11 ** -4 and q22 == MINUS_ONE),
    (15, 1, lambda q11, q, q22: q.order() == 30 and q11 == -(q ** -3) and q22 == q ** -1),
    (16, 1, lambda q11, q, q22: q11.order() == 10 and q == q11 ** -4 and q22 == MINUS_ONE),
    (16, 2, lambda q11, q, q22: q.order() == 20 and q11 == q ** -4 and q22 == MINUS_ONE),
    (17, 1, lambda q11, q, q22: q.order() == 24 and q11 == -(q ** 4) and q22 == MINUS_ONE),
    (18, 1, lambda q11, q, q22: q.order() == 30 and q11 == -(q ** 5) and q22 == MINUS_ONE),
    (19, 1, lambda q11, q, q22: q11.order() == 14 and q == q11 ** -3 and q22 == MINUS_ONE),
    (20, 1, lambda q11, q, q22: q.order() == 30 and q11 == q ** -6 and q22 == MINUS_ONE),
    (21, 1, lambda q11, q, q22: q11.order() == 24 and q == q11 ** -5 and q22 == MINUS_ONE),
    (22, 1, lambda q11, q, q22: q11.order() == 14 and q == q11 ** -5 and q22 == MINUS_ONE),
]


def reference_match_condition(b: Braiding) -> list[tuple[int, int]]:
    """The family conditions as the equations they are stated as, evaluated
    on CycNum scalars: the reference for the order tests of match_condition."""
    q11, q, q22 = (_Scalar(x) for x in (b.q11, b.q12 * b.q21, b.q22))
    return [(n, c) for n, c, pred in _EQUATIONS if pred(q11, q, q22)]


def test_match_t1():
    b = Braiding(MINUS_ONE, ONE, ONE, MINUS_ONE)
    assert (1, 1) in match_condition(b)


def test_match_cartan_a2_is_type2_only_of_2_and_3():
    z3 = root_of_unity(1, 3)
    b = Braiding(z3, z3 ** 2, ONE, z3)
    m = match_condition(b)
    assert (2, 1) in m
    assert all(n != 3 for n, _ in m)


def test_match_t4_first_case():
    z12 = root_of_unity(1, 12)
    b = Braiding(z12 ** 4, z12 ** 9, ONE, -(z12 ** 2))
    assert (4, 1) in match_condition(b)


def test_no_match_for_generic():
    z5 = root_of_unity(1, 5)
    b = Braiding(z5, z5, ONE, z5)
    assert match_condition(b) == []


def test_all_fixtures_match_their_own_case():
    for key, b in fixtures().items():
        assert key in match_condition(b), key


def test_fixture_count_covers_every_stated_case():
    per_type = {}
    for n, c in fixtures():
        per_type.setdefault(n, set()).add(c)
    assert {n: len(cs) for n, cs in sorted(per_type.items())} == {
        1: 1, 2: 1, 3: 3, 4: 2, 5: 2, 6: 1, 7: 2, 8: 4, 9: 1, 10: 1, 11: 1,
        12: 1, 13: 1, 14: 1, 15: 1, 16: 2, 17: 1, 18: 1, 19: 1, 20: 1, 21: 1, 22: 1}


def test_match_depends_only_on_product(rng):
    for _ in range(20):
        b = random_root_braiding(rng)
        c = root_of_unity(rng.randrange(1, 13), rng.randrange(1, 13))
        if c.is_zero():
            continue
        rescaled = Braiding(b.q11, b.q12 * c, b.q21 * c.inv(), b.q22)
        assert match_condition(b) == match_condition(rescaled)


def _conjugates_and_near_misses(b: Braiding) -> list[Braiding]:
    """b written over zeta_L (L even, so that -1 is a power), its Galois
    conjugates zeta_L -> zeta_L^u, and each conjugate with the exponent of
    q11, q12 or q22 moved by +-1 (q21 = 1)."""
    roots = [as_root_exponent(x) for x in (b.q11, b.q12, b.q22)]
    L = math.lcm(2, *(d for _, d in roots))
    exps = [k * (L // d) for k, d in roots]
    out = []
    for u in range(1, L):
        if math.gcd(u, L) == 1:
            conj = [e * u for e in exps]
            for es in [conj] + [conj[:i] + [conj[i] + s] + conj[i + 1:]
                                for i in range(3) for s in (1, -1)]:
                q11, q12, q22 = (root_of_unity(e, L) for e in es)
                out.append(Braiding(q11, q12, ONE, q22))
    return out


def test_matcher_matches_cycnum_reference():
    # Root braidings, the same rescaled so that q12 and q21 are not roots but
    # their product is, braidings with entries that are not roots, and the
    # fixtures' conjugates and near misses: every order the conditions name
    # (5, 9, 10, 14, 18, 20, 24 and 30 too), matched and just missed.
    z = root_of_unity
    third = CycNum.from_rational(Fraction(1, 3))
    non_roots = [ONE + ONE, z(1, 5) + third]
    roots = [Braiding(z(a, N), z(c, N), ONE, z(d, N)) for N in (6, 8, 12)
             for a, c, d in itertools.product(range(N), repeat=3)]
    braidings = list(roots)
    for c in non_roots:
        c_inv = c.inv()
        braidings += [Braiding(b.q11, b.q12 * c, c_inv, b.q22) for b in roots]
    values = non_roots + [CycNum.from_rational(Fraction(1, 2)), ONE, z(1, 12)]
    braidings += [Braiding(q11, q12, ONE, q22)
                  for q11, q12, q22 in itertools.product(values, repeat=3)]
    for b in fixtures().values():
        braidings += _conjugates_and_near_misses(b)
    matched, pairs = 0, set()
    for b in braidings:
        want = reference_match_condition(b)
        assert match_condition(b) == want, b
        matched += bool(want)
        pairs.update(want)
    assert matched > 100 and pairs == set(fixtures())


def test_classify_exterior_report():
    b = Braiding(MINUS_ONE, ONE, ONE, MINUS_ONE)
    rep = classify_full(b, degree_cap=4)
    doc = rep.to_json_dict()
    assert doc["type"] == [[1, 1]]
    assert doc["tree"] == "L"
    assert doc["dimension"] == 4
    assert rep.verify_holds and doc["verified_up_to"] == 2
    assert doc["admissibility"]["admissible"]


def test_classify_cartan_report():
    z3 = root_of_unity(1, 3)
    rep = classify_full(Braiding(z3, z3 ** 2, ONE, z3), degree_cap=8)
    doc = rep.to_json_dict()
    assert [2, 1] in doc["type"]
    assert doc["tree"] == "(L L)"
    assert doc["dimension"] == 27
    assert doc["verified_up_to"] == 8 and rep.verify_holds


def test_classify_reports_a_braiding_whose_q12_and_q21_are_not_roots():
    # q12 q21 is a root of unity, so the braiding matches and grows a tree,
    # but the symmetrizer oracle and the zero tests take roots only: the
    # report skips them and says so.
    two, half = CycNum.from_rational(2), CycNum.from_rational(Fraction(1, 2))
    z3 = root_of_unity(1, 3)
    for b, kind, tree, dim in ((Braiding(MINUS_ONE, two, half, MINUS_ONE), [1, 1], "L", 4),
                               (Braiding(z3, two * z3 ** 2, half, z3), [2, 1], "(L L)", 27)):
        rep = classify_full(b, degree_cap=8)
        doc = rep.to_json_dict()
        assert doc["type"] == [kind] and doc["tree"] == tree and doc["dimension"] == dim
        assert rep.verdict is None and rep.relations_vanish is None
        assert rep.verify_holds is None and doc["verified_up_to"] == 0
        assert doc["relations"] and doc["admissibility"]["admissible"]
        assert "a braiding entry is not a root of unity" in doc["notes"][-1]


def test_classify_no_match_still_reports_tree():
    z5 = root_of_unity(1, 5)
    rep = classify_full(Braiding(z5, z5, ONE, z5), degree_cap=4, weight_cap=12)
    doc = rep.to_json_dict()
    assert doc["type"] == []
    assert doc["tree"] is None
    assert any("no classification condition matched" in n for n in doc["notes"])
    assert any("reconstruction failed" in n for n in doc["notes"])


def test_report_schema_keys_stable():
    keys = {"type", "tree", "pbw", "dimension", "relations", "verified_up_to",
            "admissibility", "notes"}
    b = Braiding(MINUS_ONE, ONE, ONE, MINUS_ONE)
    doc = classify_full(b, degree_cap=2).to_json_dict()
    assert keys <= set(doc)
    json.loads(json.dumps(doc))  # round-trips


def test_fixture_matrix_small_cap():
    rows = run_fixture_matrix(degree_cap=3)
    assert len(rows) == 31
    assert all(r.passed for r in rows)
    t1 = next(r for r in rows if (r.type_id, r.case_id) == (1, 1))
    assert t1.dim_value == 4 and t1.verified_degree == 2


# Relations of the (4, 1) fixture at degree cap 6, recorded from the
# classifier.  The mixed relation's coefficients are computed at conductor
# 12; those lying in Q(i) print at conductor 4.
GOLDEN_RELATIONS_4_1 = [
    "x1 x2 x2 x2 - (1/4) x2 x2 x2 x1",
    ("x1 x2 x1 x2 x2 + ((1*z12^1 + -1*z12^2)) x1 x2 x2 x1 x2"
     " + ((1*z12^1 + 1*z12^2 + -1*z12^3)) x1 x2 x2 x2 x1 + (1/4) x2 x1 x1 x2 x2"
     " + ((-1 + 1*z12^2 + -1*z12^3)) x2 x1 x2 x1 x2"
     " + ((1 + -1*z12^1 + 1*z12^3)) x2 x1 x2 x2 x1 - (1/3) x2 x2 x1 x1 x2"
     " + (1/12) x2 x2 x1 x2 x1"),
    ("x1 x1 x2 x1 x2 + (1/4) x1 x1 x2 x2 x1"
     " + ((-1 + -1*z12^1 + 1*z12^2 + 1*z12^3)) x1 x2 x1 x1 x2"
     " + ((-1*z12^2 + -1*z12^3)) x1 x2 x1 x2 x1 - (2/3) x1 x2 x2 x1 x1"
     " + ((1 + -1*z12^1 + -1*z12^2)) x2 x1 x1 x1 x2"
     " + ((1 + 1*z12^1)) x2 x1 x1 x2 x1 + (5/12) x2 x1 x2 x1 x1"),
    "x1 x1 x1 x2 - (1/4) x2 x1 x1 x1",
    "x2 x2 x2",
    ("x1 x2 x2 x1 x2 x2 + (1/12) x1 x2 x2 x2 x1 x2 - (2/3) x1 x2 x2 x2 x2 x1"
     " + (1/12) x2 x1 x2 x1 x2 x2 - (2/3) x2 x1 x2 x2 x1 x2"
     " + (1/4) x2 x1 x2 x2 x2 x1 - (2/3) x2 x2 x1 x1 x2 x2"
     " + (1/4) x2 x2 x1 x2 x1 x2 + (1/3) x2 x2 x1 x2 x2 x1"),
    ("x1 x1 x2 x1 x1 x2 + (5/12) x1 x1 x2 x1 x2 x1 - (1/3) x1 x1 x2 x2 x1 x1"
     " + (5/12) x1 x2 x1 x1 x1 x2 - (1/3) x1 x2 x1 x1 x2 x1"
     " + (1/4) x1 x2 x1 x2 x1 x1 - (1/3) x2 x1 x1 x1 x1 x2"
     " + (1/4) x2 x1 x1 x1 x2 x1 + (2/3) x2 x1 x1 x2 x1 x1"),
    "x1 x1 x1",
    ("x1 x1 x2 x2 + ((-1/2 + 1/2*z4^1)) x1 x2 x1 x2"
     " + ((-1/2 + 1*z12^2 + -1/2*z12^3)) x1 x2 x2 x1"
     " + ((1/2 + -1*z12^2 + -1/2*z12^3)) x2 x1 x1 x2"
     " + ((1/2 + 1/2*z4^1)) x2 x1 x2 x1 - x2 x2 x1 x1"),
]


def test_relation_text_is_golden():
    doc = classify_full(fixtures()[(4, 1)], degree_cap=6).to_json_dict()
    assert doc["relations"] == GOLDEN_RELATIONS_4_1


def test_classify_expands_each_relation_once(monkeypatch):
    from nichols2 import nicholscore

    built = []
    mixed_relation = nicholscore._mixed_relation

    def counting(t, b, bb):
        built.append(bb)
        return mixed_relation(t, b, bb)

    monkeypatch.setattr(nicholscore, "_mixed_relation", counting)
    classify_full(fixtures()[(4, 1)], degree_cap=6)
    assert built and len(built) == len(set(built))


def test_relation_expansion_failure_fails_verification(monkeypatch):
    from nichols2 import nicholscore

    def broken(t, b, bb):
        raise nicholscore.NicholsError("simulated expansion failure")

    monkeypatch.setattr(nicholscore, "_mixed_relation", broken)
    rep = classify_full(fixtures()[(4, 1)], degree_cap=6)
    assert rep.verify_holds is False and rep.relations == []
    assert rep.verify_detail == "relations unavailable: simulated expansion failure"
    assert rep.to_json_dict()["notes"][-1] == ("verification failed: relations unavailable: "
                                               "simulated expansion failure")


def test_fixture_matrix_reads_only_table_mismatches_as_failures():
    # A table mismatch is a failed row; any other assertion is a defect and
    # propagates.
    from nichols2.admissibility import p_table
    from nichols2.classify import _matches_table

    def broken(n, b, c):
        raise AssertionError("unrelated")

    assert _matches_table(p_table, 4, fixtures()[(4, 1)], 1)
    assert not _matches_table(p_table, 4, Braiding(MINUS_ONE, ONE, ONE, MINUS_ONE), 1)
    with pytest.raises(AssertionError, match="unrelated"):
        _matches_table(broken, 4, fixtures()[(4, 1)], 1)


def test_classify_computes_each_height_table_once(monkeypatch):
    # Every reader of the generator heights (tree reconstruction,
    # admissibility, dimension, relations, verification, the PBW list)
    # takes them from one table per (tree, braiding), and none forms a
    # CycNum to find an order.  A height table is built into the braiding's
    # context, so builds are counted where the context stores them.
    from nichols2 import braidedalg

    calls, builds = [], []
    order = CycNum.order

    def counting(self):
        calls.append(self)
        return order(self)

    class CountingContext(braidedalg._SymEngine):
        def __setattr__(self, name, value):
            if name == "heights" and value is not None:
                builds.append(value)
            super().__setattr__(name, value)

    monkeypatch.setattr(CycNum, "order", counting)
    monkeypatch.setattr(braidedalg, "_SymEngine", CountingContext)
    monkeypatch.setattr(braidedalg, "_ENGINES", {})
    for b in fixtures().values():
        classify_full(b, 8)
    assert len(builds) == 31
    assert calls == []


def test_pbw_list_matches_cycnum_reference():
    # The report's PBW list against the order of the CycNum chi(a, a), on the
    # root braidings at N = 6, on braidings whose q12 and q21 are not roots
    # of unity but whose q12 q21 is (the exponent branch of the order), and
    # on one-leaf trees (q12 q21 = 1) with a diagonal entry that is not a
    # root (the scalar branch, and a height of None).
    z = root_of_unity
    braidings = [Braiding(z(a, 6), z(c, 6), ONE, z(d, 6))
                 for a, c, d in itertools.product(range(6), repeat=3)]
    for c in (CycNum.from_rational(Fraction(2)), z(1, 5) + CycNum.from_rational(Fraction(1, 3))):
        braidings += [Braiding(z(a, 8), z(k, 8) * c, c.inv(), z(d, 8))
                      for a, k, d in itertools.product(range(8), repeat=3)]
        braidings += [Braiding(q11, c, c.inv(), q22)
                      for q11, q22 in itertools.product((c, z(3, 8)), repeat=2)]
    trees = non_roots = 0
    for b in braidings:
        rep = classify_full(b, degree_cap=2)
        t = rep.tree
        want = [] if t is None else [(t.weight(a), b.chi_nodes(t, a, a).order())
                                     for a in t.nbar2()]
        assert rep.pbw == want, b
        trees += t is not None
        non_roots += any(o is None for _, o in rep.pbw)
    assert trees > 300 and non_roots == 6


def test_report_types_build_by_position_and_keyword():
    # Fields in their documented order; each report gets its own notes list.
    names = ("matches", "tree", "tree_failure", "pbw", "dimension_value", "relations",
             "verified_up_to", "verdict", "relations_vanish", "relations_error",
             "admissibility")
    values = ([(2, 1)], None, "no tree", [], None, [], 0, None, None, None, None)
    a, b = ClassificationReport(*values), ClassificationReport(**dict(zip(names, values)))
    assert [getattr(a, k) for k in names] == [getattr(b, k) for k in names] == list(values)
    assert a.notes == b.notes == [] and a.notes is not b.notes
    assert ClassificationReport(*values, ["note"]).notes == ["note"]
    names = ("type_id", "case_id", "matched", "p_table_ok", "lambda_ok", "tree_ok",
             "admissible", "hilbert_ok", "basis_ok", "relations_ok", "dim_value",
             "verified_degree", "seconds")
    values = (2, 1, True, True, True, True, True, True, True, True, 27, 8, 0.5)
    row = FixtureRow(*values)
    assert row == FixtureRow(**dict(zip(names, values))) and row.passed
    assert [getattr(row, k) for k in names] == list(values)
    assert not FixtureRow(*values[:9], False, *values[10:]).passed
