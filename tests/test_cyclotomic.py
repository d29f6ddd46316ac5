import math
import operator
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from conftest import basis_words, skew_derivation
from nichols2 import braidedalg, cyclotomic
from nichols2.braidedalg import Braiding, NCPoly
from nichols2.cyclotomic import (MAX_CONDUCTOR, CycError, CycNum, MINUS_ONE, ONE, ZERO, Residues,
                                 _demoted, _root_exponent, _substitute, as_root_exponent,
                                 canonical_conductor, cyclotomic_polynomial, divisors, euler_phi,
                                 format_scalar, growth, parse_scalar, power_vector, qfact,
                                 qnum, root_of_unity, root_vectors, shift_gain, vector_product)

INVERSE_CONDUCTORS = (1, 3, 4, 5, 7, 9, 12, 15, 20, 24, 30)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def schoolbook_product(a, b, n):
    """Reference product modulo Phi_n: full convolution, then long division
    by the (monic) cyclotomic polynomial."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return long_division_remainder(conv, n)


def long_division_remainder(coeffs, n):
    """The coordinates of sum_j coeffs[j] z^j modulo Phi_n, by long division."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rem = list(coeffs) + [0] * (deg - len(coeffs))
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        for j, p in enumerate(phi):
            rem[top - deg + j] -= c * p
    return rem[:deg]


def extreme_signs(n):
    """Sign vectors (x, y) that, by alternating ascent, make one coordinate
    of the reduced product x y large: the inputs nearest the product bound
    (1 + rho) phi |x|_inf |y|_inf of `Residues.for_sums`."""
    deg, best = euler_phi(n), (0,)
    for j in range(deg):
        a = [[power_vector(n, i + k)[j] for k in range(deg)] for i in range(deg)]
        y = [1] * deg
        while True:
            x = [1 if sum(map(operator.mul, row, y)) >= 0 else -1 for row in a]
            last, y = y, [1 if sum(map(operator.mul, x, col)) >= 0 else -1 for col in zip(*a)]
            if y == last:
                break
        best = max(best, (sum(xi * yk * a[i][k] for i, xi in enumerate(x)
                              for k, yk in enumerate(y)), x, y))
    return best[1:]


def residue_sums(ring, xs, ys, products) -> dict:
    """{t: sum of xs[a] ys[b] over the (t, a, b) in products}, formed as the
    rank oracle forms its rows: each vector packed once, the packed products
    of a sum added, each sum reduced mod M once and decoded."""
    px = {a: ring.pack(v) for a, v in xs.items()}
    py = {b: ring.pack(v) for b, v in ys.items()}
    sums = {}
    for t, a, b in products:
        sums[t] = sums.get(t, 0) + px[a] * py[b]
    return {t: ring.decode(x % ring.modulus) for t, x in sums.items()}


def test_residue_sums_match_vector_products_at_the_product_bound(rng):
    # Three products, the most per sum, of vectors whose coordinates are all
    # +-(2^bits - 1), of one sign or signed by `extreme_signs`.  The latter
    # put one reduced coordinate of x y above phi |x|_inf |y|_inf from
    # conductor 9 on (435 times at 105, against phi = 48), so a ring
    # without the factor 1 + rho of `Residues.for_sums` would not decode
    # them at 12, 15, 20, 24, 30 or 105.
    for n in INVERSE_CONDUCTORS + (105,):
        deg = euler_phi(n)
        for extreme, (sx, sy) in enumerate((((1,) * deg, (1,) * deg), extreme_signs(n))):
            for xbits, ybits in ((80, 80), (7, 90)):
                for sign in (1, -1):
                    top = ((1 << xbits) - 1) * ((1 << ybits) - 1)
                    x = tuple(sign * s * ((1 << xbits) - 1) for s in sx)
                    y = tuple(s * ((1 << ybits) - 1) for s in sy)
                    ring = Residues.for_sums(n, [x], [y], 3)
                    want = [3 * c for c in schoolbook_product(x, y, n)]
                    assert residue_sums(ring, {0: x, 1: x, 2: x}, {0: y},
                                        [("t", k, 0) for k in range(3)]) == {"t": want}
                    if extreme and n == 105:
                        assert max(map(abs, want)) == 3 * 435 * top
        # Sums of random signed products, several targets at once.
        xs = {k: tuple(rng.randrange(-2 ** 70, 2 ** 70) for _ in range(deg)) for k in range(6)}
        ys = {k: tuple(rng.randrange(-99, 100) for _ in range(deg)) for k in range(4)}
        products = [(rng.randrange(3), rng.randrange(6), rng.randrange(4)) for _ in range(12)]
        want = {}
        for t, a, b in products:
            add = schoolbook_product(xs[a], ys[b], n)
            want[t] = [u + v for u, v in zip(want.get(t, [0] * deg), add)]
        per_sum = max(sum(t == s for t, _, _ in products) for s in want)
        ring = Residues.for_sums(n, xs.values(), ys.values(), per_sum)
        assert residue_sums(ring, xs, ys, products) == want


def test_residue_ring_carries_one_level_of_the_walk():
    # One level on coordinates near 2^80, against the reference on CycNum
    # polynomials: under the trivial braiding all five positions of x1^5
    # land on x1^4, a sum of 5 (2^80 - 1).  A level puts at most 5 moves on
    # a word, each by +-z^e, so the ring of bound 5 kappa phi B_0 for input
    # bound B_0 is exact on it (`braidedalg._derivatives_along`).  At
    # conductor 105, kappa = 2.
    big = (1 << 80) - 1
    z3, z8, z105 = root_of_unity(1, 3), root_of_unity(1, 8), root_of_unity(1, 105)
    assert growth(105) == (48, 2, 27)
    for b in (Braiding(ONE, ONE, ONE, ONE), Braiding(z3, z3 ** 2, ONE, z3),
              Braiding(z8, z8 ** 3, ONE, z8 ** 5),
              Braiding(z105 ** 2, z105 ** 103, ONE, root_of_unity(4, 15))):
        d = 21 if b.conductor == 105 else 9
        for rho in (NCPoly({(1,) * 5: CycNum.from_rational(big)}),
                    NCPoly({w: root_of_unity(k, d) * big for k, w in enumerate(basis_words(4))})):
            n = braidedalg._conductor(b, rho)
            terms = {w: c._lift(n) for w, c in rho.terms.items()}
            phi, kappa, _ = growth(n)
            ring = Residues(n, 5 * kappa * phi * max(max(map(abs, v)) for v in terms.values()))
            packed = {w: ring.pack(vec) for w, vec in terms.items()}
            for i in (1, 2):
                want = skew_derivation(b, i, rho)
                got = braidedalg.skew_derivation(b, i, packed, ring, {})
                assert {w: ring.decode(r) for w, r in got.items()} == \
                    {w: list(c._lift(n)) for w, c in want.terms.items()}, (b, n, rho, i)


def test_shift_gain_by_brute_force_and_attained_by_one_move():
    # g = max over k < n and j of sum_{i < phi} |(z^(i+k))_j|, summed here
    # power by power.  At n = 105 the sign vector y_i = sign (z^(i+k))_j of
    # a maximal (k, j) is moved by z^k, the twist of deleting the 1 of
    # (2, 1) for q12 = z^-k, to g B_0 at coordinate j: one level of the walk
    # on B_0 y must decode in the ring of bound B_0 g, the width one move
    # gets, with B_0 the largest that width allows.
    want = {1: 1, 3: 2, 4: 1, 5: 2, 7: 2, 9: 2, 12: 2, 15: 6, 20: 2, 24: 2, 30: 6, 105: 28}
    for n, g in want.items():
        phi, kappa, _ = growth(n)
        sums = {(k, j): sum(abs(power_vector(n, i + k)[j]) for i in range(phi))
                for k in range(n) for j in range(phi)}
        assert shift_gain(n) == max(sums.values()) == g <= kappa * phi
    k, j = max(sums, key=sums.get)  # of the last n, 105
    y = [(power_vector(n, i + k)[j] > 0) - (power_vector(n, i + k)[j] < 0) for i in range(phi)]
    big = ((1 << 80) - 3) // (2 * g)
    ring = Residues(n, big * g)
    assert ring.width == 80
    b = Braiding(root_of_unity(2, n), root_of_unity(-k, n), ONE, root_of_unity(4, 15))
    for sign in (1, -1):
        x = [sign * big * c for c in y]
        got = braidedalg.skew_derivation(b, 1, {(2, 1): ring.pack(x)}, ring, {})
        moved = list(vector_product(n)(power_vector(n, k), x))
        assert {w: ring.decode(r) for w, r in got.items()} == {(2,): moved}
        assert moved[j] == sign * g * big == sign * max(map(abs, moved))


def test_vector_product_matches_long_division(rng):
    for n in INVERSE_CONDUCTORS:
        mul = vector_product(n)
        deg = euler_phi(n)
        for _ in range(25):
            a = [rng.choice((0, 0, rng.randrange(-99, 100))) for _ in range(deg)]
            b = [rng.randrange(-99, 100) for _ in range(deg)]
            got = mul(a, b)
            assert got == schoolbook_product(a, b, n)
            assert all(type(c) is int for c in got)
            fa = [Fraction(rng.choice((-1, 1)) * rng.randrange(1, 30), rng.randrange(1, 9))
                  for _ in range(deg)]
            fb = [Fraction(rng.choice((-1, 1)) * rng.randrange(1, 30), rng.randrange(1, 9))
                  for _ in range(deg)]
            got = mul(fa, fb)
            assert got == schoolbook_product(fa, fb, n)
            assert all(isinstance(c, Fraction) for c in got)


def test_primitive_root_sum_reduces():
    z3 = root_of_unity(1, 3)
    assert z3 + z3 ** 2 == MINUS_ONE


def test_inverse_is_multiplicative_inverse(rng):
    for _ in range(40):
        n = rng.randrange(1, 16)
        a = root_of_unity(rng.randrange(n), n) + CycNum.from_rational(rng.randrange(-2, 3))
        if a.is_zero():
            continue
        assert a * a.inv() == ONE


# -- the fraction-free reference inverse ---------------------------------------
#
# A second exact solver, kept as the reference for `CycNum.inv` (which
# inverts by the norm) and for the Bareiss rank in test_linalg.


def _exact_div(vec, d) -> list[int]:
    """Divide every entry of an integer vector by d, which must divide it."""
    out = []
    for q in vec:
        quot, rem = divmod(q, d)
        if rem:
            raise ArithmeticError("fraction-free elimination produced an inexact division")
        out.append(quot)
    return out


def vector_inverse(n: int, vec) -> tuple[list[int], int]:
    """Inverse of a nonzero integer coordinate vector of Q(zeta_n), as an
    integer vector over a denominator: (W, d) with d > 0, gcd(W, d) = 1 and
    vec * W = d.

    Solves M x = e_0, where column j of M is vec * z^j, by fraction-free
    (Bareiss) elimination and integer back-substitution; W = det(M) x is
    integral by Cramer's rule.  Every division is checked to be exact.
    """
    mul = vector_product(n)
    deg = euler_phi(n)
    cols = [mul(vec, power_vector(n, j)) for j in range(deg)]
    rows = [[col[r] for col in cols] + [int(r == 0)] for r in range(deg)]
    prev = 1
    for k in range(deg):
        sel = next((r for r in range(k, deg) if rows[r][k]), None)
        if sel is None:
            raise CycError("inversion of zero")
        rows[k], rows[sel] = rows[sel], rows[k]
        top = rows[k]
        piv = top[k]
        for r in range(k + 1, deg):
            row = rows[r]
            f = row[k]
            row[k + 1:] = _exact_div([piv * x - f * y for x, y in zip(row[k + 1:], top[k + 1:])],
                                     prev)
            row[k] = 0
        prev = piv
    det = prev
    W = [0] * deg
    for i in range(deg - 1, -1, -1):
        row = rows[i]
        s = det * row[deg] - sum(row[j] * W[j] for j in range(i + 1, deg))
        W[i] = _exact_div((s,), row[i])[0]
    g = math.gcd(det, *W)
    if det < 0:
        g = -g
    return [w // g for w in W], det // g


def _bareiss_inverse(n, coeffs):
    """(conductor, coeffs) of the inverse of a nonzero non-root, by the
    reference solve on cleared denominators."""
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    W, d = vector_inverse(n, [int(c * den) for c in coeffs])
    x = CycNum(n, [Fraction(w * den, d) for w in W])
    return x.conductor, x.coeffs


def test_vector_inverse_is_integral(rng):
    for n in INVERSE_CONDUCTORS:
        mul = vector_product(n)
        deg = euler_phi(n)
        for _ in range(25):
            vec = [rng.choice((0, rng.randrange(-99, 100))) for _ in range(deg)]
            if not any(vec):
                continue
            W, d = vector_inverse(n, vec)
            assert all(type(c) is int for c in W) and type(d) is int
            assert d > 0 and math.gcd(d, *W) == 1
            assert mul(vec, W) == [d] + [0] * (deg - 1)
    with pytest.raises(CycError):
        vector_inverse(5, [0, 0, 0, 0])


CANONICAL_CONDUCTORS = [n for n in range(1, 61) if canonical_conductor(n) == n]


def test_norm_inverse_matches_bareiss_reference(rng):
    # Seeded integer and Fraction vectors at every canonical conductor up to
    # 60, and every non-root 1 + p and 1 + p + p^2 for p a root of order at
    # most 30.
    values = []
    for n in CANONICAL_CONDUCTORS:
        deg = euler_phi(n)
        for _ in range(3):
            values.append(CycNum(n, [rng.randrange(-30, 31) for _ in range(deg)]))
            values.append(CycNum(n, [Fraction(rng.randrange(-30, 31), rng.randrange(1, 9))
                                     for _ in range(deg)]))
    for d in range(1, 31):
        for k in range(d):
            if math.gcd(k, d) == 1:
                p = root_of_unity(k, d)
                values += [1 + p, 1 + p + p * p]
    values = [x for x in values if x and as_root_exponent(x) is None]
    assert len(values) > 700
    for x in values:
        got = x.inv()
        assert (got.conductor, got.coeffs) == _bareiss_inverse(x.conductor, x.coeffs), x
    for n in (1, 5, 12, 60):
        with pytest.raises(CycError):
            CycNum(n, [0] * euler_phi(n)).inv()


def test_inverse_of_rational_coordinates(rng):
    for n in INVERSE_CONDUCTORS:
        deg = euler_phi(n)
        for _ in range(10):
            coeffs = [Fraction(rng.randrange(-30, 31), rng.randrange(1, 9)) for _ in range(deg)]
            coeffs[rng.randrange(deg)] = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 30),
                                                  rng.choice((2, 3, 7)))
            a = CycNum(n, coeffs)
            assert a * a.inv() == ONE
            assert a.inv().inv() == a


def test_neg_zero_is_zero():
    assert -ZERO == ZERO


def test_inverting_zero_raises():
    with pytest.raises(CycError):
        ZERO.inv()


def test_root_of_unity_values():
    assert root_of_unity(0, 5) == ONE
    assert root_of_unity(1, 2) == MINUS_ONE
    assert root_of_unity(2, 4) == MINUS_ONE


def test_roots_power_to_one():
    for n in range(1, 31):
        for k in range(1, n + 1):
            assert (root_of_unity(k, n) ** n).is_one()


def test_order_matches_exponent_arithmetic():
    for n in range(1, 31):
        for k in range(1, n + 1):
            assert root_of_unity(k, n).order() == n // math.gcd(k, n)


def _reference_order(a):
    # The divisor sweep: every root of unity in Q(zeta_N) has order
    # dividing lcm(2, N).
    for d in divisors(math.lcm(2, a.conductor)):
        if (a ** d).is_one():
            return d
    return None


@lru_cache(maxsize=None)
def _primitive_roots(d):
    return tuple((k, root_of_unity(k, d)) for k in range(d) if math.gcd(k, d) == 1)


def _reference_exponent(a):
    # The exponent search: the primitive d-th root equal to a.
    d = _reference_order(a)
    if d is None:
        return None
    return next((k, d) for k, r in _primitive_roots(d) if r == a)


def test_root_lookup_matches_power_sweep():
    for n in range(1, 61):
        for k in range(n):
            for a in (root_of_unity(k, n), -root_of_unity(k, n)):
                expected = _reference_exponent(a)
                assert as_root_exponent(a) == expected
                assert a.order() == expected[1]


def test_non_roots_are_not_recognized():
    z5 = root_of_unity(1, 5)
    for a in (2 + z5, z5 / 2, 1 + z5, ONE / 2, CycNum.from_rational(2), ZERO,
              root_of_unity(1, 12) - 1):
        assert as_root_exponent(a) is None
        assert a.order() is None


def test_roots_at_non_minimal_conductor_are_recognized():
    # Arithmetic keeps values at the common conductor of its operands, so a
    # root of unity may sit in a larger field than the one it generates.
    for k, n, big in ((1, 3, 12), (2, 3, 12), (1, 4, 12), (1, 5, 20), (3, 8, 24), (1, 1, 15),
                      (1, 2, 9), (7, 15, 60)):
        for a in (root_of_unity(k, n), -root_of_unity(k, n)):
            lifted = CycNum(big, a._lift(big))
            assert lifted.conductor == big
            assert as_root_exponent(lifted) == as_root_exponent(a)
            assert lifted.order() == a.order()
            assert hash(lifted) == hash(a)
            assert format_scalar(lifted) == format_scalar(a)
            assert lifted.is_one() == a.is_one()
            assert lifted.inv() == a.inv()
            assert lifted * lifted.inv() == ONE


def test_large_conductor_root():
    assert as_root_exponent(root_of_unity(7, 1000)) == (7, 1000)
    assert as_root_exponent(-root_of_unity(7, 1000)) == (507, 1000)
    assert root_of_unity(7, 1000).order() == 1000


def test_order_examples():
    assert MINUS_ONE.order() == 2
    assert root_of_unity(4, 12).order() == 3
    assert (ONE + root_of_unity(1, 3)).order() == 6  # equals -zeta_3^2
    assert (CycNum.from_rational(2) + root_of_unity(1, 3)).order() is None


small_scalars = st.builds(
    lambda k, n, r: root_of_unity(k, n) + CycNum.from_rational(r),
    st.integers(0, 23), st.sampled_from([1, 3, 4, 5, 8, 9, 12]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@settings(max_examples=60, deadline=None)
@given(small_scalars, small_scalars, small_scalars)
def test_field_axioms_across_conductors(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a - b) + b == a and 1 - a == -(a - 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(2, 12), st.integers(1, 4))
def test_embedding_commutes_with_arithmetic(k, n, factor):
    # The lift into a larger conductor is a ring map.
    a = root_of_unity(k, n) + ONE
    big = n * factor
    lifted = CycNum(big, a._lift(big))
    assert lifted == a
    assert hash(lifted) == hash(a)
    assert format_scalar(lifted) == format_scalar(a)
    assert lifted.is_one() == a.is_one()
    assert lifted * lifted == a * a
    assert lifted + lifted == a + a


def test_qnum_qfact_values():
    z3 = root_of_unity(1, 3)
    z4 = root_of_unity(1, 4)
    assert qnum(2, MINUS_ONE) == ZERO
    assert qnum(3, z3) == ZERO
    assert qnum(0, z3) == ZERO
    assert qfact(0, z3) == ONE
    assert qfact(3, z4) == (ONE + z4) * z4


def test_qfact_recursion(rng):
    for _ in range(12):
        n = rng.randrange(1, 13)
        p = root_of_unity(rng.randrange(n), n)
        for m in range(1, 11):
            assert qfact(m, p) == qnum(m, p) * qfact(m - 1, p)


def test_scalar_grammar_round_trip():
    assert parse_scalar("0/1") == ONE
    assert parse_scalar("1/2") == MINUS_ONE
    assert parse_scalar("-2/12") == -root_of_unity(2, 12)
    with pytest.raises(CycError):
        parse_scalar("7")
    with pytest.raises(CycError):
        parse_scalar("a/b")
    with pytest.raises(CycError, match="nonpositive conductor"):
        parse_scalar("1/0")
    assert parse_scalar(f"1/{MAX_CONDUCTOR}").conductor == MAX_CONDUCTOR
    with pytest.raises(CycError, match=f"conductor {MAX_CONDUCTOR + 1} over the bound"):
        parse_scalar(f"0/{MAX_CONDUCTOR + 1}")
    # int() reads signs, underscores, inner spaces and non-ASCII digits; the
    # grammar takes one optional leading "-" and ASCII digits only.
    for text in ("--1/3", "+1/3", "1_0/3", "\u0661/\u0663", "1/+3", " 1/ 3", "1/-3"):
        with pytest.raises(CycError, match="does not match the grammar k/N"):
            parse_scalar(text)
    assert parse_scalar(" -1/3\n") == -root_of_unity(1, 3)
    for text in ("0/1", "1/2", "5/12", "3/7"):
        val = parse_scalar(text)
        assert parse_scalar(format_scalar(val)) == val


def test_format_prefers_canonical_root():
    # -zeta_12^2 is a primitive cube root, so it prints at conductor 3.
    assert format_scalar(-root_of_unity(2, 12)) == "2/3"
    k, d = as_root_exponent(root_of_unity(5, 12))
    assert (k, d) == (5, 12)


def test_demotion_to_minimal_conductor():
    # Arithmetic stays at the operands' common conductor; only the hash and
    # the text see the smallest subfield containing the value.
    cube = root_of_unity(1, 12) ** 4
    assert cube.conductor == 12
    assert cube == root_of_unity(1, 3)
    assert str(cube) == "1/3"
    assert hash(cube) == hash(root_of_unity(1, 3))
    minus = root_of_unity(1, 8) * root_of_unity(3, 8)
    assert minus.conductor == 8
    assert str(minus) == "1/2"
    assert hash(minus) == hash(MINUS_ONE)
    # A rational value hashes like the int or Fraction it equals.
    assert hash(MINUS_ONE) == hash(-1)
    assert hash(ONE / 2) == hash(Fraction(1, 2))
    assert (minus * minus).is_one() and not minus.is_one()
    mixed = root_of_unity(1, 3) * root_of_unity(1, 4)
    assert mixed.conductor == 12
    assert str(mixed) == "7/12"
    # A non-root computed at conductor 12 that lies in Q(i) prints at
    # conductor 4.
    z3, z4 = root_of_unity(1, 3), root_of_unity(1, 4)
    gauss = (z3 + z3 * z4) * z3.inv() / 2 - 1
    assert gauss.conductor == 12
    assert gauss == (z4 - 1) / 2
    assert str(gauss) == "(-1/2 + 1/2*z4^1)"
    assert hash(gauss) == hash((z4 - 1) / 2)
    # (z^3 - 1) z^4 / 2 = (1 - z - z^2) / 2 for z = zeta_12 needs all of Q(zeta_12).
    assert str(gauss * z3) == "(1/2 + -1/2*z12^1 + -1/2*z12^2)"


def test_conductor_two_mod_four_is_folded(monkeypatch):
    z6 = root_of_unity(1, 6)
    assert z6.conductor == 3
    assert z6.order() == 6
    assert z6 == -root_of_unity(2, 3)
    for d in range(2, 63, 4):
        for k in range(d):
            # Any power of z at conductor d lands at d/2, with the coordinates
            # of zeta_{2m}^k = (-1)^k zeta_m^(k(m+1)/2), m = d/2 odd.
            m = d // 2
            sign = -1 if k % 2 else 1
            expected = (m, tuple(sign * x for x in power_vector(m, k * ((m + 1) // 2) % m)))
            a = CycNum(d, power_vector(d, k))
            assert (a.conductor, a.coeffs) == expected
            if math.gcd(k, d) == 1:
                a = root_of_unity(k, d)
                assert (a.conductor, a.coeffs) == expected
                assert as_root_exponent(a) == (k, d)
    # A root of large order d = 2m, m odd, is built at m: no reduction table
    # at d is formed.
    built = []
    rows = cyclotomic._reduction_rows
    monkeypatch.setattr(cyclotomic, "_reduction_rows", lambda n: built.append(n) or rows(n))
    for k, d in ((4001, 4002), (1001, 1002), (997, 1002)):
        a = root_of_unity(k, d)
        assert a.conductor == d // 2 and as_root_exponent(a) == (k, d)
        if d == 1002:
            # zeta_d^2 = zeta_m, computed on the coordinates.
            assert vector_product(501)(a.coeffs, a.coeffs) == list(power_vector(501, k))
    assert not {4002, 1002} & set(built)


def test_root_vectors_are_lifted_roots():
    for d in range(1, 61):
        for n in range(1, 121):
            if canonical_conductor(n) == n and n % canonical_conductor(d) == 0:
                table = root_vectors(d, n)
                assert len(table) == d
                for e, vec in enumerate(table):
                    assert vec == root_of_unity(e, d)._lift(n), (e, d, n)


CANONICAL_UP_TO_30 = [n for n in CANONICAL_CONDUCTORS if n <= 30]


def _coordinates(n):
    deg = euler_phi(n)
    return st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3),
                    min_size=deg, max_size=deg)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_substitution_is_a_ring_map_and_lifts_compose(data):
    # sigma_k: z -> z^k for a unit k mod m is a field automorphism of
    # Q(zeta_m), and the lifts c -> n -> m compose to c -> m.
    m = data.draw(st.sampled_from(CANONICAL_UP_TO_30))
    k = data.draw(st.sampled_from([k for k in range(1, m + 1) if math.gcd(k, m) == 1]))
    x, y = CycNum(m, data.draw(_coordinates(m))), CycNum(m, data.draw(_coordinates(m)))

    def sigma(a):
        return CycNum(m, _substitute(a.coeffs, k, m))

    assert sigma(x * y) == sigma(x) * sigma(y)
    assert sigma(x + y) == sigma(x) + sigma(y)
    assert sigma(root_of_unity(1, m)) == root_of_unity(k, m)
    n = data.draw(st.sampled_from([d for d in divisors(m) if d in CANONICAL_UP_TO_30]))
    c = data.draw(st.sampled_from([d for d in divisors(n) if d in CANONICAL_UP_TO_30]))
    a = CycNum(c, data.draw(_coordinates(c)))
    assert CycNum(n, a._lift(n))._lift(m) == a._lift(m)


# -- roots of unity by exponent against the vector path ---------------------
#
# The references below work on (conductor, coeffs) pairs with the vector
# product on lifted coordinates, exactly as arithmetic without exponents
# does: products and positive powers at the operands' common conductor,
# inverses (and so negative powers) at the smallest conductor holding the
# value, and powers by repeated squaring from the rational 1.


def _pair(a):
    return a.conductor, a.coeffs


def _ref_lift(x, n):
    return CycNum(*x)._lift(n)


def _ref_mul(x, y):
    n = canonical_conductor(math.lcm(x[0], y[0]))
    return n, tuple(vector_product(n)(_ref_lift(x, n), _ref_lift(y, n)))


@lru_cache(maxsize=None)
def _ref_inv(x):
    n, coeffs = x
    root = _root_exponent(n, coeffs)
    if root is not None:
        # x^(d-1), in the smallest field holding it.
        return _demoted(*_ref_pow(x, root[1] - 1))
    return _bareiss_inverse(n, coeffs)


def _ref_pow(x, e):
    if e < 0:
        x, e = _ref_inv(x), -e
    result = (1, (1,))
    while e:
        if e & 1:
            result = _ref_mul(result, x)
        x = _ref_mul(x, x) if e > 1 else x
        e >>= 1
    return result


def _ref_eq(x, y):
    n = canonical_conductor(math.lcm(x[0], y[0]))
    return _ref_lift(x, n) == _ref_lift(y, n)


def _assert_same(got, expected):
    assert (got.conductor, got.coeffs) == expected
    assert got == CycNum(*expected)
    assert as_root_exponent(got) == _root_exponent(*expected)
    root = _root_exponent(*expected)
    assert got.order() == (None if root is None else root[1])


def _exponent_operands():
    # Every root zeta_d^k with d <= 60, carrying its exponent; roots that
    # sit above their own conductor, some found by lookup; the constants;
    # values that are not roots.
    z5, z12 = root_of_unity(1, 5), root_of_unity(1, 12)
    roots = [root_of_unity(k, d) for d in range(1, 61) for k in range(d) if math.gcd(k, d) == 1]
    lifted = [z12 ** 4, -root_of_unity(2, 12) * root_of_unity(1, 4) ** 4, z12 ** 6,
              root_of_unity(1, 8) * root_of_unity(3, 8), root_of_unity(1, 20) * z5.inv() ** 4]
    for k, n, big in ((1, 3, 12), (1, 5, 20), (3, 8, 24), (1, 2, 9), (7, 15, 60), (0, 1, 8)):
        found = CycNum(big, root_of_unity(k, n)._lift(big))
        found.order()
        lifted.append(found)
    others = [2 + z5, z12 + Fraction(1, 3), z5 / 2, 1 + z5, ZERO, CycNum.from_rational(3),
              CycNum(12, root_of_unity(1, 4)._lift(12))]
    return roots, lifted, [ONE, MINUS_ONE, -ONE, ONE / 1] + others


def test_exponent_arithmetic_matches_vector_path(rng):
    roots, lifted, others = _exponent_operands()
    special = lifted + others
    for a in roots + special:
        # Partners whose common conductor with a keeps the reference
        # products small.
        def near(values):
            return [b for b in values
                    if canonical_conductor(math.lcm(a.conductor, b.conductor)) <= 120]
        partners = near(special) + rng.sample(near(roots), 4)
        x = _pair(a)
        _assert_same(a, x)
        _assert_same(-a, (x[0], tuple(-c for c in x[1])))
        if a:
            _assert_same(a.inv(), _ref_inv(x))
        for e in range(-3, 4):
            if a or e >= 0:
                _assert_same(a ** e, _ref_pow(x, e))
        for b in partners:
            y = _pair(b)
            _assert_same(a * b, _ref_mul(x, y))
            if b:
                _assert_same(a / b, _ref_mul(x, _ref_inv(y)))
            assert (a == b) == _ref_eq(x, y)
    assert all(a.conductor != canonical_conductor(a.order()) for a in lifted)


def test_lookup_stores_the_exponent():
    z12 = root_of_unity(1, 12)
    for a in (CycNum(12, root_of_unity(1, 3)._lift(12)), z12 + 1 - 1, 2 + root_of_unity(1, 5),
              z12 + Fraction(1, 3)):
        assert a._root is False
        assert as_root_exponent(a) == _root_exponent(a.conductor, a.coeffs)
        assert a._root == _root_exponent(a.conductor, a.coeffs)
