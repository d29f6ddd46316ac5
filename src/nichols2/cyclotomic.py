"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A scalar is represented in the power basis 1, z, ..., z^(phi(N)-1) of
Q(zeta_N), where z is an abstract primitive N-th root of unity reduced
modulo the N-th cyclotomic polynomial.  No complex embedding is ever used:
every identity checked downstream is algebraic, so the choice of primitive
root is immaterial.  Conductors are kept canonical (never congruent to
2 mod 4, since Q(zeta_{2m}) = Q(zeta_m) for odd m).  Arithmetic stays at
the common conductor of its operands; a value is demoted to the smallest
cyclotomic subfield containing it only where it leaves the arithmetic: in
its hash, so equal values at different conductors hash alike, and in its
text, so every printed scalar is canonical.

A root of unity carries its exponent (k, d), zeta_d^k with gcd(k, d) = 1:
`root_of_unity` sets it, and `CycNum.order`, `as_root_exponent` and `inv`
store it after a lookup (the roots of Q(zeta_n) are exactly the +-z^e,
0 <= e < n).
When both operands carry one, products, quotients, inverses, powers, negation
and equality are exponent arithmetic.  Each result comes from one cache of at
most ROOT_CACHE_SIZE values keyed by the reduced exponent and the conductor,
at the conductor the vector path gives: the operands' common one for products
and positive powers, the root's own for inverses and negative powers.  Sums
and non-roots take the vector path.  A non-root is inverted by its norm: with
the denominators cleared, x^-1 is the product of the conjugates sigma_k(x),
k a unit other than 1, over the rational N(x) = x * prod sigma_k(x).

A single product of coordinate vectors is formed and reduced modulo Phi_N
in one place, `vector_product(N)`.  Sums of many products are formed in one
integer image of Z[zeta_N], the residue ring `Residues`: z -> X = 2^W
modulo Phi_N(X), W from a stated coordinate bound.  The constants of every
coordinate bound, phi(N), kappa and rho, come from one helper, `growth(N)`,
and the growth of a product by a root, g, from `shift_gain(N)`.

Every field map is one substitution z -> z^k (`_substitute`): the lift into a
larger conductor, a Galois conjugate, and the fold of zeta_{2m} into zeta_m.
A root of unity is +-z^e at its conductor (`root_power`), zeta_{2m} being
-zeta_m^((m+1)/2).  `root_vectors(d, n)` is the table of the coordinates
of every power of zeta_d at conductor n, for callers that read a bicharacter
value by its exponent (`Braiding.chi_at` and the lambda step); at most
ROOT_TABLE_CACHE_SIZE tables are kept.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain


class CycError(ValueError):
    """Domain error in cyclotomic arithmetic (e.g. inverting zero)."""


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, den monic.  Used only for
    # building cyclotomic polynomials where divisibility is guaranteed.
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * (len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - deg_d] = c
        for j, dj in enumerate(den):
            num[i - deg_d + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in divisors(n):
        if d < n:
            poly = _poly_divmod_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def canonical_conductor(n: int) -> int:
    """Smallest conductor presenting the same field: 2m -> m for odd m."""
    if n % 2 == 0 and (n // 2) % 2 == 1:
        return n // 2
    return n


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    # Row k is the vector of z^(deg+k) mod Phi_n; enough rows are kept to
    # reduce both raw products (degree <= 2 deg - 2) and bare powers z^e
    # with e < n.
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = []
    cur = [-c for c in phi[:deg]]
    rows.append(tuple(cur))
    for _ in range(max(deg - 2, n - deg - 1)):
        nxt = [0] + cur[:-1]
        top = cur[-1]
        if top:
            red = rows[0]
            nxt = [a + top * b for a, b in zip(nxt, red)]
        cur = nxt
        rows.append(tuple(cur))
    return tuple(rows)


def power_vector(n: int, e: int) -> tuple[int, ...]:
    """Integer coordinate vector of z^e in Q(zeta_n), e reduced mod n."""
    deg = euler_phi(n)
    e %= n
    if e < deg:
        vec = [0] * deg
        vec[e] = 1
        return tuple(vec)
    return _reduction_rows(n)[e - deg]


@lru_cache(maxsize=None)
def growth(n: int) -> tuple[int, int, int]:
    """(phi, kappa, rho) at conductor n, the constants of every coordinate
    bound over Z[zeta_n]: phi = phi(n); kappa the largest |coordinate| of
    z^e, e < n; rho = max_j sum_t |z^(phi+t) mod Phi_n|_j over t < phi - 1,
    so reducing a raw product multiplies its largest |coordinate| by at most
    1 + rho."""
    phi, rows = euler_phi(n), _reduction_rows(n)
    kappa = max(map(abs, chain.from_iterable(rows[:n - phi])), default=1)
    return phi, kappa, max((sum(map(abs, col)) for col in zip(*rows[:phi - 1])), default=0)


@lru_cache(maxsize=None)
def shift_gain(n: int) -> int:
    """g = max over k < n and j of sum_{i < phi} |(z^(i+k) mod Phi_n)_j|, so
    |z^k y|_inf <= g |y|_inf over Z[zeta_n]: coordinate j of z^k y = sum_i
    y_i z^(i+k) is sum_i y_i (z^(i+k))_j, and y_i = sign (z^(i+k))_j attains
    it.  g <= kappa phi (`growth`).  The window of powers slides by one."""
    phi = euler_phi(n)
    powers = [tuple(map(abs, power_vector(n, e))) for e in range(n)]
    window, best = [sum(col) for col in zip(*powers[:phi])], 0
    for k in range(n):
        best = max(best, *window)
        window = [w - a + b for w, a, b in zip(window, powers[k], powers[(k + phi) % n])]
    return best


@lru_cache(maxsize=None)
def vector_product(n: int):
    """The product of Q(zeta_n): mul(a, b) multiplies two coordinate
    vectors and returns the coordinate list of the product modulo Phi_n.

    This is the one place single products of coordinate vectors are formed
    and reduced; sums of many are formed in `Residues`.  No coordinate is
    converted: integer inputs give integer outputs, and
    Fraction inputs Fraction outputs, so fraction-free callers stay on
    plain integer arithmetic.
    """
    deg = euler_phi(n)
    if deg == 1:
        def mul(a, b):
            return [a[0] * b[0]]
        return mul
    # z^(deg+k) mod Phi_n for the degrees a raw product can reach, with the
    # zero coordinates dropped.
    rows = tuple(tuple((j, r) for j, r in enumerate(row) if r)
                 for row in _reduction_rows(n)[:deg - 1])

    def mul(a, b):
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        out = conv[:deg]
        for c, row in zip(conv[deg:], rows):
            if c:
                for j, r in row:
                    out[j] += c * r
        return out

    return mul


class Residues:
    """The ring map z -> X = 2^W, Z[zeta_n] -> Z/MZ for M = Phi_n(X), a ring
    map as Phi_n(X) = 0 mod M, where W is the least width exact on vectors
    whose coordinates are at most bound: the one integer image in which sums
    of products over Z[zeta_n] are formed, by the walk of iterated skew
    derivations and by the rank oracle.  A vector packs to sum_j c_j X^j
    (`pack`); packed vectors multiply and add, the caller reduces mod M,
    and a residue decodes to coordinates (`decode`).

    Let B = bound and H the largest |coefficient| of Phi_n, at most kappa
    (`growth`), as Phi_n(z) = 0 makes them those of -z^phi; W makes
    X > 2 B + H.  Then y = sum_j c_j z^j with every |c_j| <= B maps to
    Y = sum_j c_j X^j, 2 |Y| <= 2 B (X^phi - 1) / (X - 1) < X^phi - H (X^phi
    - 1) / (X - 1) <= M: the balanced residue is Y, 0 only for y = 0, and
    its balanced base-X digits are the c_j."""

    __slots__ = ("n", "width", "modulus", "_phi", "_offset")

    def __init__(self, n: int, bound: int):
        self.n, (self._phi, kappa, _) = n, growth(n)
        self.width = (2 * bound + kappa).bit_length()
        self.modulus = self.pack(cyclotomic_polynomial(n))
        self._offset = self.pack([1 << self.width - 1] * self._phi)

    @classmethod
    def for_sums(cls, n: int, xs, ys, per_sum: int) -> Residues:
        """The ring exact on every sum of at most per_sum products x y, x among
        the vectors xs and y among ys (or supersets of them): a raw product
        has coordinates at most phi |x|_inf |y|_inf, so the reduced one at
        most (1 + rho) phi |x|_inf |y|_inf (`growth`)."""
        phi, _, rho = growth(n)
        x, y = (max(map(abs, chain.from_iterable(vs)), default=0) for vs in (xs, ys))
        return cls(n, per_sum * (1 + rho) * phi * x * y)

    def pack(self, vec) -> int:
        """sum_j vec[j] X^j, the image of a coordinate vector before reduction."""
        x, w = 0, self.width
        for c in reversed(vec):
            x = (x << w) + c
        return x

    def decode(self, r: int) -> list[int]:
        """The coordinates of the residue r, 0 <= r < M: the balanced
        residue's balanced base-X digits."""
        w, m = self.width, self.modulus
        half, mask = 1 << w - 1, (1 << w) - 1
        r += self._offset - (m if 2 * r > m else 0)
        return [(r >> w * j & mask) - half for j in range(self._phi)]


def clear_denominators(vectors: dict) -> tuple[dict, int]:
    """(the coordinate vectors times D, as int tuples; D), for the least
    positive integer D that clears their denominators."""
    dens = [x.denominator for vec in vectors.values() for x in vec if type(x) is not int]
    if not dens:
        return vectors, 1
    den = math.lcm(*dens)
    return {k: tuple(int(x * den) for x in vec) for k, vec in vectors.items()}, den


def _substitute(coeffs, k: int, n: int) -> tuple:
    """Coordinates in Q(zeta_n) of sum_j c_j z^(jk): the one place a
    polynomial in z is evaluated at a power of z modulo Phi_n."""
    deg, rows = euler_phi(n), _reduction_rows(n)
    out = [0] * deg
    for j, c in enumerate(coeffs):
        if c:
            e = j * k % n
            if e < deg:
                out[e] += c
            else:
                out = [x + c * y if y else x for x, y in zip(out, rows[e - deg])]
    return tuple(out)


@lru_cache(maxsize=None)
def _root_table(n: int) -> dict[tuple, int]:
    # z^e -> e for phi(n) <= e < n.  The keys are the rows _reduction_rows
    # already holds, not copies of them.
    deg = euler_phi(n)
    return {row: deg + i for i, row in enumerate(_reduction_rows(n)[:n - deg])}


def _root_exponent(n: int, coeffs: tuple) -> tuple[int, int] | None:
    """(k, d) with gcd(k, d) = 1 if coeffs, at canonical conductor n, is
    zeta_d^k, else None.

    The roots of unity of Q(zeta_n) are exactly the +-z^e with 0 <= e < n,
    so this is a lookup: a single coordinate +-1 below phi(n), or a row of
    _root_table(n) up to sign.
    """
    support = [j for j, c in enumerate(coeffs) if c]
    if len(support) == 1 and coeffs[support[0]] in (1, -1):
        e = support[0]
        negative = coeffs[e] == -1
    else:
        table = _root_table(n)
        e = table.get(coeffs)
        negative = e is None
        if negative:
            e = table.get(tuple(-c for c in coeffs))
            if e is None:
                return None
    # +z^e = zeta_{2n}^(2e) and -z^e = zeta_{2n}^(2e + n).
    k = (2 * e + n) % (2 * n) if negative else 2 * e
    g = math.gcd(k, 2 * n)
    return k // g, 2 * n // g


@lru_cache(maxsize=None)
def _embedding_solver(small: int, big: int):
    # Left inverse of the embedding Q(zeta_small) -> Q(zeta_big), whose
    # matrix E has the images of the power basis as columns: one
    # Gauss-Jordan pass over [E | I] leaves P E = I in the pivot rows of
    # the right half, and P x recovers the coordinates of any x in the
    # image.  Row i is kept sparse, as (j, P[i][j]) for the nonzero entries.
    deg_s, deg_b = euler_phi(small), euler_phi(big)
    step = big // small
    cols = [power_vector(big, j * step) for j in range(deg_s)]
    work = [[Fraction(cols[c][r]) for c in range(deg_s)]
            + [Fraction(int(r == j)) for j in range(deg_b)] for r in range(deg_b)]
    for col in range(deg_s):
        sel = next(r for r in range(col, deg_b) if work[r][col])
        work[col], work[sel] = work[sel], work[col]
        piv = work[col][col]
        work[col] = [v / piv for v in work[col]]
        for r in range(deg_b):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return tuple(tuple((j, v) for j, v in enumerate(row[deg_s:]) if v) for row in work[:deg_s])


_INT = frozenset((int,))
_set = object.__setattr__


def _norm_coeff(c):
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class CycNum:
    """An element of Q(zeta_N), immutable; all operations are pure.

    Coordinates that are integers are stored as plain ints (a Fraction with
    denominator one hashes and compares equal to its int, so the two mix
    freely); this keeps the overwhelmingly common integral case on fast
    integer arithmetic.  `_root` is the exponent (k, d) of a root of unity,
    None for any other value, or False before anything has looked.
    """

    __slots__ = ("conductor", "coeffs", "_hash", "_root")

    def __init__(self, conductor: int, coeffs):
        coeffs = tuple(coeffs)
        if not set(map(type, coeffs)) <= _INT:
            coeffs = tuple(map(_norm_coeff, coeffs))
        if conductor % 4 == 2:
            # Coordinates arrive in the zeta_{2m} basis (m odd): rewrite them
            # in the zeta_m basis via zeta_{2m} = -zeta_m^((m+1)/2).
            m = conductor // 2
            flipped = [-c if j % 2 else c for j, c in enumerate(coeffs)]
            conductor, coeffs = m, _substitute(flipped, (m + 1) // 2, m)
        deg = euler_phi(conductor)
        if len(coeffs) != deg:
            raise CycError(f"need {deg} coordinates at conductor {conductor}, got {len(coeffs)}")
        _set(self, "conductor", conductor)
        _set(self, "coeffs", coeffs)
        _set(self, "_hash", None)
        _set(self, "_root", False)

    def __setattr__(self, *args):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q) -> CycNum:
        return CycNum(1, (q,))

    # -- basic predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring structure ----------------------------------------------------

    def _lift(self, n: int) -> tuple:
        """Coordinates of self in Q(zeta_n), where conductor | n."""
        if n == self.conductor:
            return self.coeffs
        return _substitute(self.coeffs, n // self.conductor, n)

    def _common(self, other: CycNum) -> tuple[int, tuple[Fraction, ...], tuple[Fraction, ...]]:
        n = canonical_conductor(math.lcm(self.conductor, other.conductor))
        return n, self._lift(n), other._lift(n)

    def __add__(self, other) -> CycNum:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n, a, b = self._common(other)
        return CycNum(n, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __sub__(self, other) -> CycNum:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n, a, b = self._common(other)
        return CycNum(n, tuple(x - y for x, y in zip(a, b)))

    def __rsub__(self, other) -> CycNum:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> CycNum:
        r = self._root
        if r:
            # -zeta_d^k = zeta_2d^(2k + d).
            return _root_at(2 * r[0] + r[1], 2 * r[1], self.conductor)
        return CycNum(self.conductor, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> CycNum:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self.conductor
        if n != other.conductor:
            n = canonical_conductor(math.lcm(n, other.conductor))
        ra, rb = self._root, other._root
        if ra and rb:
            d = math.lcm(ra[1], rb[1])
            return _root_at(ra[0] * (d // ra[1]) + rb[0] * (d // rb[1]), d, n)
        return CycNum(n, vector_product(n)(self._lift(n), other._lift(n)))

    __rmul__ = __mul__

    def inv(self) -> CycNum:
        """Multiplicative inverse; raises CycError on zero."""
        if self.is_zero():
            raise CycError("inversion of zero")
        root = self._exponent()
        if root is not None:
            return _root_at(-root[0], root[1], canonical_conductor(root[1]))
        # x = X / den with X integral; X^-1 = prod sigma_k(X) / N(X).
        n = self.conductor
        vecs, den = clear_denominators({0: self.coeffs})
        X = vecs[0]
        mul = vector_product(n)
        num = [1] + [0] * (len(X) - 1)
        for k in _conjugation_exponents(n, 1):
            num = mul(num, _substitute(X, k, n))
        norm = mul(X, num)
        if not norm[0] or any(norm[1:]):
            raise ArithmeticError("the norm of a nonzero scalar is not a nonzero rational")
        return CycNum(n, [Fraction(c * den, norm[0]) for c in num])

    def __truediv__(self, other) -> CycNum:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other) -> CycNum:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, e: int) -> CycNum:
        r = self._root
        if r:
            # Positive powers stay at this conductor, negative ones are powers
            # of the inverse at the root's own, and the zeroth is 1.
            k, d = r
            n = self.conductor if e > 0 else canonical_conductor(d) if e else 1
            return _root_at(k * e, d, n)
        if e < 0:
            return self.inv() ** (-e)
        result = CycNum.from_rational(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(other)
        elif not isinstance(other, CycNum):
            return NotImplemented
        if self._root and other._root:
            return self._root == other._root
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        n, a, b = self._common(other)
        return a == b

    def __hash__(self):
        # Hash the fully demoted form so equal values at different
        # conductors collide, and a rational value like the int or Fraction
        # it equals.
        h = self._hash
        if h is None:
            n, coeffs = _demoted(self.conductor, self.coeffs)
            h = hash(coeffs[0]) if n == 1 else hash((n, coeffs))
            _set(self, "_hash", h)
        return h

    def __repr__(self):
        return f"CycNum({self.conductor}, {[str(c) for c in self.coeffs]})"

    def __str__(self):
        return format_scalar(self)

    # -- root-of-unity structure --------------------------------------------

    def _exponent(self) -> tuple[int, int] | None:
        root = self._root
        if root is False:
            root = _root_exponent(self.conductor, self.coeffs)
            _set(self, "_root", root)
        return root

    def order(self) -> int | None:
        """Multiplicative order if self is a root of unity, else None."""
        root = self._exponent()
        return None if root is None else root[1]


ZERO = CycNum(1, (0,))
ONE = CycNum(1, (1,))
MINUS_ONE = CycNum(1, (-1,))
for _value in (ZERO, ONE, MINUS_ONE):
    _value._exponent()


def _coerce(x):
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum.from_rational(x)
    return NotImplemented


@lru_cache(maxsize=None)
def _conjugation_exponents(n: int, d: int) -> tuple[int, ...]:
    # The k of every Galois automorphism z -> z^k of Q(zeta_n) fixing
    # Q(zeta_d) pointwise (k = 1 mod d, coprime to n), the identity excluded.
    return tuple(k for k in range(1 + d, n, d) if math.gcd(k, n) == 1)


@lru_cache(maxsize=None)
def _subfield_conductors(n: int) -> tuple[int, ...]:
    # Canonical conductors of the proper subfields of Q(zeta_n) other than
    # Q, smallest field first.
    deg = euler_phi(n)
    return tuple(sorted((d for d in divisors(n)
                         if d != n and canonical_conductor(d) == d and d > 1
                         and euler_phi(d) < deg),
                        key=lambda d: (euler_phi(d), d)))


def _demoted(conductor: int, coeffs: tuple) -> tuple[int, tuple]:
    # Smallest cyclotomic subfield containing the element.  Membership in
    # Q(zeta_d) for d | N is exactly invariance under the Galois subgroup
    # fixing Q(zeta_d) (a cheap integer check); the coordinates then come
    # from a cached linear solve against the embedding.  Candidates ascend
    # so the first hit is minimal.
    if not any(coeffs[1:]):
        return 1, (coeffs[0],)
    for d in _subfield_conductors(conductor):
        if any(_substitute(coeffs, k, conductor) != coeffs
               for k in _conjugation_exponents(conductor, d)):
            continue
        return d, tuple(_norm_coeff(sum(v * coeffs[j] for j, v in row))
                        for row in _embedding_solver(d, conductor))
    return conductor, coeffs


def root_of_unity(k: int, n: int) -> CycNum:
    """zeta_n^k as an exact scalar, at the canonical minimal conductor."""
    if n < 1:
        raise CycError("conductor must be positive")
    return _root_at(k, n, canonical_conductor(n // math.gcd(k, n)))


# The bound of the one cache of roots of unity by exponent and conductor.
ROOT_CACHE_SIZE = 4096


def _root_at(k: int, d: int, n: int) -> CycNum:
    """zeta_d^k at the canonical conductor n, which the root's own divides."""
    k %= d
    g = math.gcd(k, d)
    return _cached_root(k // g, d // g, n)


@lru_cache(maxsize=ROOT_CACHE_SIZE)
def _cached_root(k: int, d: int, n: int) -> CycNum:
    # zeta_d^k with gcd(k, d) = 1 at n, built as a power of z there.
    value = CycNum(n, _root_coords(k, d, n))
    _set(value, "_root", (k, d))
    return value


def root_power(k: int, d: int, n: int) -> tuple[int, int]:
    """(s, e) with zeta_d^k = s z^e, s = +-1, 0 <= e < n, at the canonical conductor
    n, which that of d divides; zeta_{2m} = -zeta_m^((m+1)/2) for odd m."""
    if d % 4 == 2:
        m = d // 2
        return -1 if k % 2 else 1, k * ((m + 1) // 2) % m * (n // m)
    return 1, k * (n // d) % n


def _root_coords(k: int, d: int, n: int) -> tuple[int, ...]:
    # Coordinates of zeta_d^k at n (`root_power`); no table at d is built.
    s, e = root_power(k, d, n)
    return power_vector(n, e) if s == 1 else tuple(-c for c in power_vector(n, e))


# The bound of the cache of root tables by order and conductor.
ROOT_TABLE_CACHE_SIZE = 64


@lru_cache(maxsize=ROOT_TABLE_CACHE_SIZE)
def root_vectors(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Coordinates at the canonical conductor n of zeta_d^e for 0 <= e < d,
    where the canonical conductor of d divides n: entry e is
    root_of_unity(e, d)._lift(n)."""
    return tuple(_root_coords(e, d, n) for e in range(d))


def as_root_exponent(a: CycNum) -> tuple[int, int] | None:
    """Return (k, d) with a = zeta_d^k, gcd(k, d) = 1, if a is a root of unity."""
    return a._exponent()


def qnum(m: int, p: CycNum) -> CycNum:
    """q-integer [m]_p = 1 + p + ... + p^(m-1); [0]_p = 0."""
    acc = ZERO
    term = ONE
    for _ in range(m):
        acc = acc + term
        term = term * p
    return acc


def qfact(m: int, p: CycNum) -> CycNum:
    """q-factorial [m]_p! = [1]_p [2]_p ... [m]_p; [0]_p! = 1."""
    acc = ONE
    for j in range(1, m + 1):
        acc = acc * qnum(j, p)
    return acc


# The largest conductor a command takes, of a scalar or of a braiding: at the
# prime 499 every command measured at its default caps ran in under 6 s and
# 70 MB (2-vCPU x86-64 VM, Python 3.11; README, "Guarantees and limits").
MAX_CONDUCTOR = 500


def parse_scalar(text: str) -> CycNum:
    """Parse the scalar grammar `[-] <digits> "/" <digits>` meaning +-zeta_N^k,
    ASCII digits only, 1 <= N <= MAX_CONDUCTOR; outer whitespace is stripped."""
    m = re.fullmatch(r"(-?)([0-9]+)/([0-9]+)", text.strip())
    try:
        if m is None:
            raise ValueError
        k, n = int(m[2]), int(m[3])  # ValueError past int()'s limit on digits
    except ValueError as exc:
        raise CycError(f"scalar {text!r} does not match the grammar k/N") from exc
    if n < 1:
        raise CycError(f"scalar {text!r} has nonpositive conductor")
    if n > MAX_CONDUCTOR:
        raise CycError(f"scalar {text!r} has conductor {n} over the bound {MAX_CONDUCTOR}")
    val = root_of_unity(k, n)
    return -val if m[1] else val


def format_scalar(a: CycNum) -> str:
    """Canonical text for a scalar: `k/N` for roots of unity, else a basis sum."""
    exp = as_root_exponent(a)
    if exp is not None:
        k, d = exp
        return f"{k}/{d}"
    if a.is_zero():
        return "0"
    n, coeffs = _demoted(a.conductor, a.coeffs)
    parts = []
    for j, c in enumerate(coeffs):
        if c:
            parts.append(f"{c}*z{n}^{j}" if j else f"{c}")
    return "(" + " + ".join(parts) + ")"
