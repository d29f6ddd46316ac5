import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (ReferenceImages, basis_words, derivations_vanish, naive_rank,
                      qnum_vanishes, random_root_braiding, reference_symmetrize, skew_derivation,
                      symmetrizer, word_image)

from nichols2 import braidedalg
from nichols2.admissibility import _qnum_zero
from nichols2.cyclotomic import (CycNum, MINUS_ONE, ONE, ZERO, canonical_conductor, qfact,
                                 root_of_unity)
from nichols2.braidedalg import (Braiding, BraidedError, NCPoly, _engine, _integer_terms,
                                 bracket_word, clear_caches, format_ncpoly, is_zero_in_nichols,
                                 tau0)
from nichols2.fbtree import LGH, RGH, TREES
from nichols2.lyndon import gamma
from nichols2.nicholscore import _mixed_relation


def exterior():
    return Braiding(MINUS_ONE, ONE, ONE, MINUS_ONE)


def cartan_a2():
    z3 = root_of_unity(1, 3)
    return Braiding(z3, z3 ** 2, ONE, z3)


def lifted_image(eng, rho, n, words):
    """`image_vectors` of the terms of rho lifted to conductor n, and the
    positive integer D that cleared their denominators: the symmetrizer
    image of rho at the words, times D."""
    terms, den = _integer_terms(rho, n)
    return eng.image_vectors(terms, n, words), den


def symmetrized(b, rho, words):
    """`lifted_image` at the conductor of b and rho, with CycNum values."""
    n = braidedalg._conductor(b, rho)
    img, den = lifted_image(_engine(b), rho, n, words)
    return {u: CycNum(n, v) for u, v in img.items()}, den


def bidegree_words(w):
    """Every word with the letters of w."""
    m, r = len(w), w.count(1)
    return [tuple(1 if i in ones else 2 for i in range(m))
            for ones in map(set, itertools.combinations(range(m), r))]


def x(i):
    return NCPoly.generator(i)


def pair(b, f, rho):
    """The pairing <f, rho> with the words of f read as y-words: a word
    y_{i1}...y_{im} acts as the composition of skew derivations, innermost
    letter first."""
    total = NCPoly.zero()
    for word, c in f.terms.items():
        acc = rho
        for letter in reversed(word):
            acc = skew_derivation(b, letter, acc)
        total = total + c * acc
    return total


def test_braiding_rejects_zero_entries():
    with pytest.raises(BraidedError):
        Braiding(ZERO, ONE, ONE, ONE)


def test_symmetrizer_rejects_entries_that_are_not_roots_of_unity():
    from nichols2.nicholscore import dim_at_degree

    b = Braiding(MINUS_ONE, ONE, ONE, ONE + ONE)
    with pytest.raises(BraidedError, match="roots of unity"):
        dim_at_degree(b, 2)
    with pytest.raises(BraidedError, match="roots of unity"):
        symmetrizer(b, 2)
    with pytest.raises(BraidedError, match="roots of unity"):
        is_zero_in_nichols(b, x(1) * x(2), "symmetrizer")


def test_chi_examples():
    b = cartan_a2()
    assert b.chi((1, 0), (0, 1)) == b.q12
    assert b.chi((0, 0), (3, 5)) == ONE
    assert b.chi((1, 1), (1, 0)) == b.q11 * b.q21


def test_chi_biadditive(rng):
    for _ in range(10):
        b = random_root_braiding(rng)
        d1 = (rng.randrange(4), rng.randrange(4))
        d2 = (rng.randrange(4), rng.randrange(4))
        e = (rng.randrange(4), rng.randrange(4))
        s = (d1[0] + d2[0], d1[1] + d2[1])
        assert b.chi(s, e) == b.chi(d1, e) * b.chi(d2, e)
        assert b.chi(e, s) == b.chi(e, d1) * b.chi(e, d2)


def test_chi_not_assumed_symmetric():
    z5 = root_of_unity(1, 5)
    b = Braiding(ONE, z5, ONE, ONE)
    assert b.chi((1, 0), (0, 1)) != b.chi((0, 1), (1, 0))


def non_root_braidings():
    """Braidings with entries that are not roots of unity: one whose
    q12*q21 is a root, and one over rationals and zeta_5 + 1/3."""
    third = CycNum.from_rational(Fraction(1, 3))
    return [Braiding(root_of_unity(1, 4), 2 * root_of_unity(1, 5), root_of_unity(1, 3) / 2,
                     MINUS_ONE),
            Braiding(ONE + ONE, root_of_unity(1, 5) + third, ONE, root_of_unity(1, 12))]


def test_chi_at_is_the_lifted_chi(rng):
    braidings = [random_root_braiding(rng, max_conductor=30) for _ in range(12)]
    for b in braidings + non_root_braidings():
        n = canonical_conductor(math.lcm(*(q.conductor for q in b.entries())))
        for m in (n, canonical_conductor(math.lcm(n, 8))):
            for _ in range(30):
                d, e = [(rng.randrange(-7, 8), rng.randrange(-7, 8)) for _ in range(2)]
                assert b.chi_at(d, e, m) == b.chi(d, e)._lift(m), (b, d, e, m)


def test_chi_of_non_root_braidings_is_the_product_of_powers():
    # Both non-root branches: diagram exponents times a power of q12 (the
    # first non-root braiding and the rescaled ones), and the plain product.
    third = CycNum.from_rational(Fraction(1, 3))
    z8 = root_of_unity(1, 8)
    braidings = non_root_braidings()
    for c in (ONE + ONE, root_of_unity(1, 5) + third):
        braidings += [Braiding(z8 ** a, z8 ** k * c, c.inv(), z8 ** d)
                      for a, k, d in ((0, 0, 0), (1, 3, 5), (4, 7, 2), (6, 1, 7))]
    assert [b._exps is None for b in braidings] == [False, True] + [False] * 8
    assert not any(b.of_roots for b in braidings)
    labels = [((a, c), (d, e)) for a, c, d, e in itertools.product(range(-1, 3), repeat=4)]
    assert any(d1 * e2 - d2 * e1 < 0 for (d1, d2), (e1, e2) in labels)
    for b in braidings:
        assert [b.chi(d, e) for d, e in labels] == [
            b.q11 ** (d1 * e1) * b.q12 ** (d1 * e2) * b.q21 ** (d2 * e1) * b.q22 ** (d2 * e2)
            for (d1, d2), (e1, e2) in labels], b


def test_monomial_order_tests_match_scalar_tests():
    # Each value p sits in each slot of the monomial q11^i (q12 q21)^j q22^k:
    # as q11, q22, q12, and as q12 q21 with neither factor a root of unity.
    two = ONE + ONE
    values = [ONE + ONE, CycNum.from_rational(Fraction(1, 2)),
              root_of_unity(1, 12) + Fraction(1, 3)]
    values += [root_of_unity(k, d) for d in range(1, 31) for k in range(d) if math.gcd(k, d) == 1]
    seen = Counter()
    for p in values:
        for b, e in ((Braiding(p, ONE, ONE, ONE), (1, 0, 0)),
                     (Braiding(ONE, ONE, ONE, p), (0, 0, 1)),
                     (Braiding(ONE, p, ONE, ONE), (0, 1, 0)),
                     (Braiding(ONE, p * two, two.inv(), ONE), (0, 1, 0))):
            o = b.monomial_order(*e)
            assert o == p.order() == b.monomial_order(*(-x for x in e)), (p, e)
            assert (o == 2) == (p == MINUS_ONE), (p, e)
            for m in range(41):
                assert _qnum_zero(m, o) == qnum_vanishes(m, p), (m, p, e)
            seen["exponents" if b._exps is not None else "scalar"] += 1
    # 4 slots x (278 roots of order <= 30 by exponent, 3 non-roots by value).
    assert seen == {"exponents": 4 * 278, "scalar": 4 * 3}


def test_monomial_order_matches_scalar_order_on_mixed_monomials():
    z = root_of_unity
    braidings = [Braiding(z(a, 4), z(c, 3), z(e, 5), z(d, 6))
                 for a, c, e, d in itertools.product(range(4), range(3), range(5), range(6))]
    braidings += [Braiding(z(1, 8), z(3, 8) * 2, ONE / 2, -z(1, 3)),
                  Braiding(ONE + ONE, z(1, 5), ONE, z(2, 7))]
    for b in braidings:
        q = b.q12 * b.q21
        for i, j, k in itertools.product(range(-3, 4), repeat=3):
            want = (b.q11 ** i * q ** j * b.q22 ** k).order()
            assert b.monomial_order(i, j, k) == want, (b, i, j, k)


def test_tau0_examples():
    b = cartan_a2()
    t = TREES[2]
    assert tau0(t, b, LGH) == x(2)
    assert tau0(t, b, RGH) == x(1)
    assert tau0(t, b, t.root) == x(1) * x(2) - b.q12 * (x(2) * x(1))
    lch = t.lch(t.root)
    root_el = tau0(t, b, t.root)
    assert tau0(t, b, lch) == root_el * x(2) - (b.q12 * b.q22) * (x(2) * root_el)


def test_tau0_degree_is_label(rng):
    for key in (4, 6, 9, 13, 17):
        t = TREES[key]
        b = random_root_braiding(rng)
        for a in t.nodes():
            assert tau0(t, b, a).multidegree() == t.stern_brocot(a)


def test_bracket_examples():
    b = cartan_a2()
    assert bracket_word(b, "a") == x(2)
    assert bracket_word(b, "b") == x(1)
    assert bracket_word(b, "ab") == tau0(TREES[2], b, TREES[2].root)
    with pytest.raises(BraidedError):
        bracket_word(b, "ba")


def test_bracket_table_holds_one_braiding():
    clear_caches()
    words = [w for a, w in gamma(TREES[13]).items() if a not in (LGH, RGH)]
    z5 = root_of_unity(1, 5)
    first = {}
    for b in (cartan_a2(), Braiding(z5, z5 ** 3, ONE, z5 ** 4)):
        first[b] = [bracket_word(b, w) for w in words]
        # One context, that of b, holds the words' brackets.
        assert list(braidedalg._ENGINES) == [b]
        assert set(words) <= set(_engine(b).brackets)
    for b, values in first.items():
        assert [bracket_word(b, w) for w in words] == values
        assert list(braidedalg._ENGINES) == [b]


def test_one_engine_is_kept():
    # Each braiding replaces the last one's engine: a fixture matrix leaves
    # only the engine of its last braiding.
    from nichols2.classify import run_fixture_matrix

    clear_caches()
    run_fixture_matrix(3, 16)
    assert len(braidedalg._ENGINES) == 1
    b = cartan_a2()
    assert _engine(b) is _engine(b) and list(braidedalg._ENGINES) == [b]


def test_clear_caches_and_a_new_braiding_free_every_table():
    import weakref

    from conftest import assert_tables_freed, context_tables
    from nichols2.admissibility import heights
    from nichols2.classify import classify_full, fixtures

    b, t = fixtures()[(4, 1)], TREES[4]
    for free in (clear_caches, lambda: classify_full(fixtures()[(2, 1)], 6)):
        clear_caches()
        classify_full(b, 6)
        old, ctx = context_tables(t, b), weakref.ref(_engine(b))
        assert max(map(sum, old[3])) == 6
        # clear_caches, or a classification of another braiding, frees the
        # whole context of b: no height, lambda, bracket or oracle table is kept.
        free()
        assert b not in braidedalg._ENGINES and ctx() is None
        assert_tables_freed(old, t, b)
    # A new tree frees the last tree's tables, and keeps the braiding's.
    old, ctx = context_tables(t, b), _engine(b)
    assert heights(TREES[3], b) is ctx.heights and ctx.tree == TREES[3] and ctx.lambdas is None
    assert heights(t, b) is not old[0] and ctx.brackets["aab"] is old[2]
    assert _engine(b) is ctx and ctx.pivot_words is old[3]


def test_context_of_a_braiding_that_is_not_of_roots():
    # heights, lambdas and brackets take any nonzero entries, and share the
    # braiding's one context; only the rank oracle asks for roots of unity.
    from nichols2.admissibility import heights, lambda_of
    from nichols2.nicholscore import dim_at_degree

    z5, z12 = root_of_unity(1, 5), root_of_unity(1, 12)
    t = TREES[3]
    for b in (Braiding(MINUS_ONE, ONE, ONE, ONE + ONE),
              Braiding(z5 + Fraction(1, 3), z12, ONE, CycNum.from_rational(Fraction(1, 2)))):
        clear_caches()
        h = heights(t, b)
        lams = [lambda_of(t, b, a) for a in t.nodes()]
        el = bracket_word(b, "aab")
        ctx = _engine(b)
        assert not b.of_roots and list(braidedalg._ENGINES) == [b] and ctx.tree == t
        assert ctx.heights is h and ctx.brackets["aab"] is el
        assert lams == [CycNum(b.conductor, lam) for lam in ctx.lambdas]
        assert ctx.pivot_words == {(0, 0): [()]} and ctx.frontier == {}
        with pytest.raises(BraidedError, match="roots of unity"):
            dim_at_degree(b, 2)
        with pytest.raises(BraidedError, match="roots of unity"):
            is_zero_in_nichols(b, x(1) * x(2), "symmetrizer")
        assert _engine(b) is ctx and ctx.pivot_words == {(0, 0): [()]}


def test_symmetrizer_degree_one_is_identity():
    m = symmetrizer(cartan_a2(), 1)
    assert m[0][0] == ONE and m[1][1] == ONE
    assert m[0][1].is_zero() and m[1][0].is_zero()


def test_symmetrizer_degree_two_blocks(rng):
    for _ in range(5):
        b = random_root_braiding(rng)
        m = symmetrizer(b, 2)
        words = basis_words(2)
        i11, i22 = words.index((1, 1)), words.index((2, 2))
        assert m[i11][i11] == ONE + b.q11.inv()
        assert m[i22][i22] == ONE + b.q22.inv()


def test_symmetrizer_rank_exterior():
    m = symmetrizer(exterior(), 2)
    assert naive_rank(m) == 1


def test_skew_derivation_examples():
    b = cartan_a2()
    assert skew_derivation(b, 1, x(1)) == NCPoly.unit()
    assert skew_derivation(b, 1, x(2)).is_zero()
    assert skew_derivation(b, 1, x(1) * x(2)) == x(2)
    assert skew_derivation(b, 2, x(1) * x(2)) == b.q21.inv() * x(1)


def test_skew_derivation_is_graded(rng):
    for _ in range(10):
        b = random_root_braiding(rng)
        word = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(1, 6)))
        rho = NCPoly({word: root_of_unity(rng.randrange(8), 8)})
        d1, d2 = rho.multidegree()
        for i, expect in ((1, (d1 - 1, d2)), (2, (d1, d2 - 1))):
            out = skew_derivation(b, i, rho)
            if not out.is_zero():
                assert out.multidegree() == expect


def test_leibniz_rule(rng):
    for _ in range(12):
        b = random_root_braiding(rng)
        w1 = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(1, 4)))
        w2 = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(1, 4)))
        rho, rho2 = NCPoly({w1: ONE}), NCPoly({w2: ONE})
        for i in (1, 2):
            lhs = skew_derivation(b, i, rho * rho2)
            twist = b.chi((1, 0) if i == 1 else (0, 1), rho.multidegree()).inv()
            rhs = skew_derivation(b, i, rho) * rho2 + twist * (rho * skew_derivation(b, i, rho2))
            assert lhs == rhs


def test_pair_examples():
    b = cartan_a2()
    assert pair(b, x(1) * x(2), x(1) * x(2)) == NCPoly.scalar(b.q21.inv())
    rho = x(1) * x(2) - b.q12 * (x(2) * x(1))
    assert pair(b, NCPoly.unit(), rho) == rho


def test_pair_recovers_branching_scalar(rng):
    # <tau(root), tau(root)>, the first read as a y-polynomial, equals
    # q21^-1 - q12.
    for _ in range(10):
        b = random_root_braiding(rng)
        el = tau0(TREES[2], b, TREES[2].root)
        val = pair(b, el, el)
        assert val == NCPoly.scalar(b.q21.inv() - b.q12)


def test_twisted_commutativity_of_pairing_data(rng):
    # (f (x) g) sigma^-1 (v (x) w) = sigma^-1(g (x) f) (w (x) v) entrywise.
    for _ in range(8):
        b = random_root_braiding(rng)
        q = {(1, 1): b.q11, (1, 2): b.q12, (2, 1): b.q21, (2, 2): b.q22}
        for i, j, k, l in itertools.product((1, 2), repeat=4):
            lhs = q[(j, i)].inv() if (k, l) == (j, i) else ZERO
            rhs = q[(k, l)].inv() if (k, l) == (j, i) else ZERO
            assert lhs == rhs


def test_is_zero_examples():
    bext = exterior()
    assert is_zero_in_nichols(bext, x(1) * x(1))
    assert is_zero_in_nichols(bext, x(1) * x(1), "derivations")
    z5 = root_of_unity(1, 5)
    bgen = Braiding(z5, z5, ONE, z5)  # q12 q21 != q21^-1 here
    rho = x(1) * x(2) - bgen.q12 * (x(2) * x(1))
    assert not is_zero_in_nichols(bgen, rho)
    assert not is_zero_in_nichols(bgen, rho, "derivations")
    assert is_zero_in_nichols(bext, NCPoly.zero())
    # A nonzero scalar is not zero.  The exterior algebra is zero from
    # degree 3 on, so every element of degree 4 is zero.
    for rho, zero in ((NCPoly.scalar(root_of_unity(1, 3)), False),
                      (x(1) * x(2) * x(2) * x(1) + 2 * (x(2) * x(1) * x(1) * x(2)), True)):
        for method in ("symmetrizer", "derivations"):
            assert is_zero_in_nichols(bext, rho, method) == zero, (rho, method)
    with pytest.raises(BraidedError):
        is_zero_in_nichols(bext, x(1) + x(1) * x(2))


def test_methods_agree_on_small_corpus(rng):
    for _ in range(40):
        b = random_root_braiding(rng, max_conductor=9)
        m = rng.randrange(1, 9)
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            w = tuple(rng.choice((1, 2)) for _ in range(m))
            terms[w] = root_of_unity(rng.randrange(9), 9)
        rho = NCPoly(terms)
        assert (is_zero_in_nichols(b, rho, "symmetrizer")
                == is_zero_in_nichols(b, rho, "derivations"))


def test_integer_derivation_test_matches_the_reference(rng):
    # The derivation zero test runs on integer coordinates; the reference
    # recursion runs on CycNum polynomials.  Every verdict must agree.
    from nichols2.classify import fixtures
    from nichols2.nicholscore import relation_set

    cases = []
    for (n, c), b in sorted(fixtures().items()):
        for rel in relation_set(TREES[n], b, max_degree=8):
            w = min(rel.terms)
            cases += [(b, rel), (b, rel + NCPoly({w: rel.terms[w]}))]
    assert len(cases) == 546
    # Mixed relations whose coefficients have Fraction coordinates, one of
    # them of degree 9, and each perturbed by a rational multiple of a term.
    mixed = [((4, 1), 4), ((8, 2), 6), ((8, 3), 6), ((10, 1), 10), ((13, 1), 9),
             ((19, 1), 18), ((21, 1), 8), ((22, 1), 6)]
    samples = fixtures()
    for (n, c), bb in mixed:
        b = samples[(n, c)]
        rel = _mixed_relation(TREES[n], b, bb)
        assert any(type(x) is Fraction for v in rel.terms.values() for x in v.coeffs)
        w = max(rel.terms)
        cases += [(b, rel), (b, rel - NCPoly({w: rel.terms[w] * Fraction(1, 3)}))]
    # Random elements with coefficients of conductor 9 on braidings of
    # conductor 8, 12 and 30: the lift goes up to 72, 36 and 45.
    for k in range(40):
        N = (8, 12, 30)[k % 3]
        b = Braiding(*(root_of_unity(rng.randrange(N), N) for _ in range(4)))
        m = rng.randrange(1, 7)
        cases.append((b, NCPoly({tuple(rng.choice((1, 2)) for _ in range(m)):
                                 root_of_unity(rng.randrange(9), 9) * rng.randint(1, 3)
                                 for _ in range(rng.randrange(1, 5))})))
    # Twists with Fraction coordinates: q12 = 2 and q21 = 1/2.
    b = Braiding(MINUS_ONE, ONE + ONE, ONE / 2, MINUS_ONE)
    assert not b.of_roots
    for rho, zero in ((x(1) * x(1), True), (x(1) * x(2) - 2 * (x(2) * x(1)), True),
                      (x(1) * x(2) - Fraction(1, 2) * (x(2) * x(1)), False)):
        assert is_zero_in_nichols(b, rho, "derivations") == zero
        cases.append((b, rho))
    # A large twist, q12 = 2^20 and q21 = 2^-20: every twist of a walk of
    # degree m is cleared by one D up to 2^(20 m).
    b = Braiding(MINUS_ONE, CycNum.from_rational(1 << 20),
                 CycNum.from_rational(Fraction(1, 1 << 20)), root_of_unity(1, 3))
    cases += [(b, x(1) * x(2) - (1 << 20) * (x(2) * x(1))),
              (b, x(1) * x(2) - (1 << 19) * (x(2) * x(1)))]
    for _ in range(12):
        m = rng.randrange(1, 7)
        cases.append((b, NCPoly({tuple(rng.choice((1, 2)) for _ in range(m)):
                                 root_of_unity(rng.randrange(6), 6) * rng.randint(1, 3)
                                 for _ in range(rng.randrange(1, 5))})))
    verdicts = [is_zero_in_nichols(b, rho, "derivations") for b, rho in cases]
    assert verdicts == [derivations_vanish(b, rho) for b, rho in cases]
    assert sum(verdicts[:546:2]) == 273 and sum(verdicts[1:546:2]) == 130
    assert verdicts[546:562:2] == [True] * 8 and not any(verdicts[547:562:2])


def test_residue_walk_at_its_coordinate_bound():
    # Under the trivial braiding d_1^m (c x1^m) = m! c exactly, which meets
    # the walk's bound B_0 m! (kappa phi)^m at kappa = phi = 1: the scalar
    # must decode, of either sign, and neither zero test may call it zero.
    b, m = Braiding(ONE, ONE, ONE, ONE), 12
    word = (1,) * m
    for c in ((1 << 80) - 3, 3 - (1 << 80)):
        assert _engine(b).image_vectors({word: (c,)}, 1, [word]) == \
            {word: [math.factorial(m) * c]}
        rho = NCPoly({word: CycNum.from_rational(c)})
        assert not is_zero_in_nichols(b, rho, "symmetrizer")
        assert not is_zero_in_nichols(b, rho, "derivations")


def test_residue_walk_decodes_under_a_large_twist():
    # q12 = 2^20 and q21 = 2^-20: the walk scales each level by one D, so
    # every scalar it yields is D^m times the reference scalar, for one D,
    # only if the twists' norm joined the bound.
    b = Braiding(root_of_unity(1, 5), CycNum.from_rational(1 << 20),
                 CycNum.from_rational(Fraction(1, 1 << 20)), root_of_unity(1, 3))
    rho = NCPoly({(2, 1, 2, 1, 1, 1): ONE, (1, 2, 1, 1, 2, 1): root_of_unity(1, 3) * 5})

    def scalars(el, prefix=()):
        if () in el.terms:
            yield prefix, el.terms[()]
        for i in (1, 2):
            if not (d := skew_derivation(b, i, el)).is_zero():
                yield from scalars(d, prefix + (i,))

    n = braidedalg._conductor(b, rho)
    got = dict(braidedalg._derivatives_along(b, _integer_terms(rho, n)[0], n))
    want = dict(scalars(rho))
    assert got.keys() == want.keys() and len(want) > 4
    ratios = {CycNum(n, got[u]) / want[u] for u in want}
    assert len(ratios) == 1
    d = ratios.pop()._lift(n)
    assert d[0] > 1 << 100 and not any(d[1:])


def test_symmetrize_matches_per_term_products(rng):
    # Iterated skew derivations against one vector product per (term, word)
    # pair of the reference's whole-word images, at every word and at a few:
    # Fraction coefficients, a conductor above the engine's, and
    # coordinates near 2^80.
    for _ in range(6):
        b = random_root_braiding(rng, max_conductor=30)
        eng = _engine(b)
        for n in (eng.conductor, 3 * eng.conductor):
            for m in (3, 4, 5):
                words = basis_words(m)
                rho = NCPoly({w: root_of_unity(rng.randrange(n), n) * rng.randint(-3, 3)
                              + Fraction(rng.randint(-2, 2), rng.choice((1, 3, 7)))
                              for w in rng.sample(words, 5)})
                for some in (words, rng.sample(words, 7)):
                    got, den = lifted_image(eng, rho, n, some)
                    want = reference_symmetrize(b, rho, n, some)
                    assert got == {u: [den * c for c in v] for u, v in want.items()}, \
                        (b, n, rho, some)
    # Three terms of bidegree (3, 1) with coefficient 2^80 - 1 under the
    # trivial braiding: every entry is 3! = 6, so every sum is
    # 18 (2^80 - 1), above half the digit bound 3 2^(80 + 3) at conductor 1.
    big = (1 << 80) - 1
    b = Braiding(ONE, ONE, ONE, ONE)
    eng = _engine(b)
    words = [(1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1)]
    for sign in ((1, 1, 1), (1, -1, 1)):
        rho = NCPoly({w: CycNum.from_rational(s * big) for w, s in zip(words, sign)})
        for n in (1, 3, 20):
            for some in (basis_words(4), words[:2]):
                got, den = lifted_image(eng, rho, n, some)
                assert den == 1 and got == reference_symmetrize(b, rho, n, some)
                sums = {tuple(v) for v in got.values()}
                assert sums == {CycNum(1, (6 * sum(sign) * big,))._lift(n)}


def naive_symmetrizer(b, m):
    """Independent construction: multiply out the operator product of
    inverse-braiding leg matrices, never touching the recursive engine."""

    def mat_mul(a, c):
        n = len(a)
        return [[sum((a[i][k] * c[k][j] for k in range(n)), ZERO) for j in range(n)]
                for i in range(n)]

    def mat_add(a, c):
        return [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]

    def eye(k):
        n = 1 << k
        return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]

    def sigma_inv_leg(k, pos):
        # acts on tensor legs pos, pos+1 of a k-leg space
        words = basis_words(k)
        index = {w: i for i, w in enumerate(words)}
        n = len(words)
        out = [[ZERO] * n for _ in range(n)]
        for j, w in enumerate(words):
            i1, i2 = w[pos], w[pos + 1]
            coeff = b.chi((1, 0) if i2 == 1 else (0, 1),
                          (1, 0) if i1 == 1 else (0, 1)).inv()
            swapped = w[:pos] + (i2, i1) + w[pos + 2:]
            out[index[swapped]][j] = coeff
        return out

    def front_operator(j):
        # On j+1 legs: id + s_01 + s_01 s_12 + ... + s_01 ... s_{j-1,j}.
        total = eye(j + 1)
        term = eye(j + 1)
        for pos in range(j):
            term = mat_mul(term, sigma_inv_leg(j + 1, pos))
            total = mat_add(total, term)
        return total

    def embed_tail(op, k):
        # id^(m-k) (x) op  on the full m-leg space.
        words = basis_words(m)
        index = {w: i for i, w in enumerate(words)}
        small_words = basis_words(k)
        small_index = {w: i for i, w in enumerate(small_words)}
        n = len(words)
        out = [[ZERO] * n for _ in range(n)]
        for col, w in enumerate(words):
            head, tail = w[:m - k], w[m - k:]
            ti = small_index[tail]
            for sw in small_words:
                coeff = op[small_index[sw]][ti]
                if not coeff.is_zero():
                    out[index[head + sw]][col] = coeff
        return out

    # Rightmost factor first: the full-width operator applies before the
    # tail-only ones.
    acc = front_operator(m - 1)
    for j in range(m - 2, 0, -1):
        acc = mat_mul(embed_tail(front_operator(j), j + 1), acc)
    return acc


def test_symmetrizer_matches_operator_product(rng):
    for m in (2, 3, 4):
        b = random_root_braiding(rng, max_conductor=8)
        fast = symmetrizer(b, m)
        slow = naive_symmetrizer(b, m)
        assert fast == slow, m


def test_symmetrizer_matches_operator_product_up_to_conductor_30(rng):
    from nichols2.classify import fixtures

    for n in (16, 21, 24, 27, 30):
        b = Braiding(*(root_of_unity(rng.randrange(n), n) for _ in range(4)))
        for m in (2, 3, 4):
            assert symmetrizer(b, m) == naive_symmetrizer(b, m), (b, m)
    b = fixtures()[(15, 1)]
    assert _engine(b).conductor == 15
    assert symmetrizer(b, 5) == naive_symmetrizer(b, 5)


def test_symmetrizer_slots_do_not_carry():
    # x1^m symmetrizes to [m]_p! x1^m with p = q11^-1.  At q11 = 1 the
    # entry is m!, past 2^64 from m = 21 on; at q11 of order 26 it sums
    # the numbers of permutations of m letters per inversion count mod 26,
    # past 2^64 from m = 22 on.  Words imaged before and after the long
    # ones must read the same.
    mixed = NCPoly({(1, 1, 2, 1, 2, 2): ONE, (2, 1, 2, 1, 1, 2): root_of_unity(1, 3)})

    def image(b, rho):  # the whole image; the coefficients are integral
        return symmetrized(b, rho, bidegree_words(min(rho.terms)))

    for q11 in (ONE, root_of_unity(1, 26)):
        b = Braiding(q11, root_of_unity(1, 3), ONE, MINUS_ONE)
        clear_caches()
        before = image(b, mixed)
        for m in (6, 20, 21, 22, 25, 6, 20):
            img = image(b, x(1) ** m)
            assert img == ({(1,) * m: qfact(m, q11.inv())}, 1), (q11, m)
        assert image(b, mixed) == before
        clear_caches()
        assert image(b, x(1) ** 25) == ({(1,) * 25: qfact(25, q11.inv())}, 1)


def test_entries_match_whole_word_images(rng):
    # Entry by entry, the iterated skew derivations give the whole-word
    # images of the reference: every entry, and the entries at a few words,
    # among them words of another bidegree or length, which are dropped.
    braidings = [random_root_braiding(rng, max_conductor=30) for _ in range(5)]
    braidings += [Braiding(*(root_of_unity(rng.randrange(n), n) for _ in range(4)))
                  for n in (24, 30)]
    for b in braidings:
        clear_caches()
        ref = ReferenceImages(b)
        for m in range(1, 8):
            words = basis_words(m)
            for w in rng.sample(words, min(len(words), 12)):
                some = rng.sample(words, min(len(words), 5)) + basis_words(m - 1)[:2]
                assert word_image(b, w, some) == ref.image_vectors(w, some), (b, w, some)
        for m in range(8):
            words = basis_words(m)
            for w in words:
                assert word_image(b, w, words) == ref.image_vectors(w, words), (b, w)
    # Entries past 2^64, between reads of a short word.
    for q11 in (ONE, root_of_unity(1, 26)):
        b = Braiding(q11, root_of_unity(1, 3), ONE, MINUS_ONE)
        clear_caches()
        ref = ReferenceImages(b)
        short = (1, 2, 2, 1, 1, 2)
        cols = rng.sample(basis_words(6), 20)
        assert word_image(b, short, cols) == ref.image_vectors(short, cols)
        for w in ((1,) * 21, (1,) * 22, short, (1,) * 21, (2, 1) + (1,) * 20):
            words = bidegree_words(w)
            assert word_image(b, w, words) == ref.image_vectors(w, words), (q11, w)
        words = basis_words(6)
        assert word_image(b, short, words) == ref.image_vectors(short, words)


def test_restricted_symmetrize_is_the_restriction(rng):
    for _ in range(6):
        b = random_root_braiding(rng, max_conductor=30)
        clear_caches()
        eng = _engine(b)
        for n in (eng.conductor, 3 * eng.conductor):
            for m in (3, 4, 5):
                words = basis_words(m)
                rho = NCPoly({w: root_of_unity(rng.randrange(n), n) * rng.randint(1, 3)
                              + Fraction(rng.randint(-2, 2), 3)
                              for w in rng.sample(words, 4)})
                full = lifted_image(eng, rho, n, words)[0]
                for k in (0, 1, 5, len(words)):
                    some = rng.sample(words, k)
                    assert lifted_image(eng, rho, n, some)[0] == \
                        {w: v for w, v in full.items() if w in some}, (b, n, rho, some)
    clear_caches()
    eng = _engine(b)
    lifted_image(eng, NCPoly({(1, 2, 1, 2, 2): ONE}), eng.conductor, [(2, 2, 1, 1, 2)])


def test_transposed_symmetrizer_is_the_symmetrizer_of_the_transposed_braiding(rng):
    # The rank oracle reduces the columns of its blocks with this identity:
    # the columns of a symmetrizer block are images under the symmetrizer
    # of the transposed braiding (q11, q21, q12, q22).
    from nichols2.classify import fixtures

    cases = [(b, m) for b in fixtures().values() for m in (1, 2, 3, 4)]
    for _ in range(20):
        b = random_root_braiding(rng)
        cases += [(b, m) for m in (1, 2, 3, 4, 5)]
    for b, m in cases:
        mat = symmetrizer(b, m)
        transposed = symmetrizer(Braiding(b.q11, b.q21, b.q12, b.q22), m)
        n = len(mat)
        assert all(mat[i][j] == transposed[j][i] for i in range(n) for j in range(n)), (b, m)


def test_skew_derivation_matches_front_operator(rng):
    # By definition the derivation is evaluation against the first tensor
    # leg of the front operator id + s_01 + s_01 s_12 + ...; check the
    # Leibniz-style implementation against that operator directly.
    def sigma_inv_at(b, word, pos):
        i1, i2 = word[pos], word[pos + 1]
        coeff = b.chi((1, 0) if i2 == 1 else (0, 1),
                      (1, 0) if i1 == 1 else (0, 1)).inv()
        return word[:pos] + (i2, i1) + word[pos + 2:], coeff

    def front_operator_images(b, m):
        # Literal transcription: the k-th summand is the composition of the
        # inverse braidings at positions (k-1,k), ..., (0,1), innermost
        # (highest position) applied first.
        total = {}
        for w in basis_words(m):
            acc = {w: ONE}
            for k in range(1, m):
                word, coeff = w, ONE
                for pos in range(k - 1, -1, -1):
                    word, c = sigma_inv_at(b, word, pos)
                    coeff = coeff * c
                acc[word] = acc.get(word, ZERO) + coeff
            total[w] = acc
        return total

    # Entries that are not roots of unity take a non-root branch of chi.
    scaled = Braiding(root_of_unity(1, 4), 2 * root_of_unity(1, 5),
                      root_of_unity(1, 3) / 2, MINUS_ONE)
    assert not scaled.of_roots
    for m in (2, 3, 5):
        for b in (random_root_braiding(rng, max_conductor=9), scaled):
            images = front_operator_images(b, m)
            for w, img in images.items():
                for i in (1, 2):
                    expect = {}
                    for v, c in img.items():
                        if v[0] == i and not c.is_zero():
                            expect[v[1:]] = expect.get(v[1:], ZERO) + c
                    got = skew_derivation(b, i, NCPoly({w: ONE}))
                    assert got == NCPoly(expect), (b, m, w, i)


def test_symmetrize_poly_matches_matrix(rng):
    # A word maps to its column; a polynomial to the sum of its coefficients
    # times the columns, also when the coefficients lie outside the
    # braiding's field (zeta_9 + 1/2 against conductor 4 and 12), times the
    # D that clears the denominators of their lifts.
    z4 = root_of_unity(1, 4)
    coeffs = [root_of_unity(1, 9) + Fraction(1, 2), root_of_unity(2, 5) - 3,
              ONE / 3, root_of_unity(5, 12)]
    for b in (random_root_braiding(rng), Braiding(z4, MINUS_ONE, z4 ** 3, ONE)):
        for m in (2, 3):
            words = basis_words(m)
            mat = symmetrizer(b, m)
            for j, w in enumerate(words):
                img, den = symmetrized(b, NCPoly({w: ONE}), words)
                assert den == 1
                for i, ww in enumerate(words):
                    assert img.get(ww, ZERO) == mat[i][j]
            for _ in range(4):
                rho = {w: rng.choice(coeffs) for w in rng.sample(words, 3)}
                img, den = symmetrized(b, NCPoly(rho), words)
                for i, ww in enumerate(words):
                    expect = sum((c * mat[i][words.index(w)] for w, c in rho.items()), ZERO)
                    assert img.get(ww, ZERO) == expect * den, (b, rho, ww)


def test_scale_by_a_rational():
    b = cartan_a2()
    el = tau0(TREES[2], b, TREES[2].root)
    half = el.scale(Fraction(1, 2))
    assert half + half == el and 2 * half == el


def test_format_ncpoly():
    b = Braiding(MINUS_ONE, root_of_unity(1, 12), ONE, MINUS_ONE)
    rho = x(1) * x(2) - b.q12 * (x(2) * x(1))
    assert format_ncpoly(rho) == "x1 x2 - (1/12) x2 x1"
    assert format_ncpoly(NCPoly.zero()) == "0"
