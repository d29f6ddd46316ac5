import itertools
import json
from fractions import Fraction

from conftest import random_root_braiding

from nichols2.cyclotomic import CycNum, MINUS_ONE, ONE, root_of_unity
from nichols2.braidedalg import Braiding
from nichols2.classify import (_CONDITIONS, classify_full, fixtures, match_condition,
                               run_fixture_matrix)


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


def reference_match_condition(b: Braiding) -> list[tuple[int, int]]:
    """The family conditions evaluated on CycNum scalars: the matcher that
    match_condition replaced, kept as its reference."""
    q11, q, q22 = (_Scalar(x) for x in (b.q11, b.q12 * b.q21, b.q22))
    return [(n, c) for n, c, pred in _CONDITIONS if pred(q11, q, q22)]


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


def test_matcher_matches_cycnum_reference():
    # Root braidings, the same rescaled so that q12 and q21 are not roots but
    # their product is, and braidings with entries that are not roots.
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
    matched = 0
    for b in braidings:
        want = reference_match_condition(b)
        assert match_condition(b) == want, b
        matched += bool(want)
    assert matched > 100


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
