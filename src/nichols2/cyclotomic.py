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

A raw product, a polynomial in z of degree below 2 phi(N) - 1, is reduced
modulo Phi_N in one place, `reduce_mod_phi(N)`: single products
(`vector_product`), sums of products (`kronecker_sums`) and the exact check
of the modular rank all call it.

Every field map is one substitution z -> z^k (`_substitute`): the lift into a
larger conductor, a Galois conjugate, and the fold of zeta_{2m} into zeta_m.
A root of unity is built directly as a power of z at its conductor, zeta_{2m}
as -zeta_m^((m+1)/2).  `root_vectors(d, n)` is the table of the coordinates
of every power of zeta_d at conductor n, for callers that read a bicharacter
value by its exponent (`Braiding.chi_at` and the lambda step); at most
ROOT_TABLE_CACHE_SIZE tables are kept.
"""

from __future__ import annotations

import math
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


@lru_cache(maxsize=None)
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
def reduce_mod_phi(n: int):
    """The reduction modulo Phi_n: reduce(digits) takes the coefficient list
    of a polynomial in z of degree below 2 phi(n) - 1, constant term first,
    and returns the phi(n) coordinates of its class as a new list: the one
    place a raw product is reduced (module docstring).
    """
    deg = euler_phi(n)
    # z^(deg+k) mod Phi_n for the degrees a raw product can reach, with the
    # zero coordinates dropped.
    rows = tuple(tuple((j, r) for j, r in enumerate(row) if r)
                 for row in _reduction_rows(n)[:deg - 1])

    def reduce(digits):
        out = digits[:deg]
        if len(out) < deg:
            out += [0] * (deg - len(out))
        for c, row in zip(digits[deg:], rows):
            if c:
                for j, r in row:
                    out[j] += c * r
        return out

    return reduce


@lru_cache(maxsize=None)
def vector_product(n: int):
    """The product of Q(zeta_n): mul(a, b) multiplies two coordinate
    vectors and returns the coordinate list of the product modulo Phi_n.

    This is the one place single products of coordinate vectors are
    formed; sums of many go through `kronecker_sums`.  No coordinate is
    converted: integer inputs give integer outputs, and
    Fraction inputs Fraction outputs, so fraction-free callers stay on
    plain integer arithmetic.
    """
    deg = euler_phi(n)
    if deg == 1:
        def mul(a, b):
            return [a[0] * b[0]]
        return mul
    reduce = reduce_mod_phi(n)

    def mul(a, b):
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return reduce(conv)

    return mul


def kronecker_sums(n: int, xs: dict, ys: dict, products, per_sum: int) -> dict:
    """{t: sum of xs[a] ys[b] over the (t, a, b) in products} for integer
    coordinate vectors at conductor n, as coordinate lists, where at most
    per_sum products share a t.  By Kronecker substitution (Harvey 2009): a
    vector packs into sum_j c_j 2^(W j), so a product of packed vectors
    holds the coefficients of the unreduced product in its W-bit digits,
    and packed products add.  A digit adds at most per_sum phi(n) products
    x y with |x| < 2^xbits and |y| < 2^ybits, so it is below
    per_sum phi(n) 2^(xbits + ybits) in magnitude; W is one bit wider, and
    every digit decodes exactly, balanced.  Each sum is reduced mod Phi_n
    once."""
    deg, flat = euler_phi(n), chain.from_iterable
    width = ((per_sum * deg).bit_length() + 1
             + max(map(abs, flat(xs.values())), default=0).bit_length()
             + max(map(abs, flat(ys.values())), default=0).bit_length())
    half, mask = 1 << width - 1, (1 << width) - 1

    def pack(vec):
        x = 0
        for c in reversed(vec):
            x = (x << width) + c
        return x

    px = {a: pack(v) for a, v in xs.items()}
    py = {b: pack(v) for b, v in ys.items()}
    sums: dict = {}
    for t, a, b in products:
        sums[t] = sums.get(t, 0) + px[a] * py[b]
    offset = sum(half << width * j for j in range(2 * deg - 1))
    reduce = reduce_mod_phi(n)
    out = {}
    for t, x in sums.items():
        x += offset
        out[t] = reduce([(x >> width * j & mask) - half for j in range(2 * deg - 1)])
    return out


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
    deg = euler_phi(n)
    out = [0] * deg
    for j, c in enumerate(coeffs):
        if c:
            vec = power_vector(n, j * k % n)
            for i in range(deg):
                if vec[i]:
                    out[i] += c * vec[i]
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


def _root_coords(k: int, d: int, n: int) -> tuple[int, ...]:
    # Coordinates of zeta_d^k at the canonical conductor n, which the
    # canonical conductor of d divides.  For d = 2m, m odd, that is m:
    # zeta_d^k = (-1)^k zeta_m^(k(m+1)/2), the convention of CycNum.__init__,
    # so no table at d is built.
    if d % 4 == 2:
        m = d // 2
        vec = power_vector(n, k * ((m + 1) // 2) % m * (n // m))
        return tuple(-c for c in vec) if k % 2 else vec
    return power_vector(n, k * (n // d))


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


def parse_scalar(text: str) -> CycNum:
    """Parse the scalar grammar `[-] <int> "/" <posint>` meaning +-zeta_N^k."""
    s = text.strip()
    neg = False
    if s.startswith("-"):
        neg = True
        s = s[1:]
    if "/" not in s:
        raise CycError(f"scalar {text!r} does not match the grammar k/N")
    k_str, n_str = s.split("/", 1)
    try:
        k, n = int(k_str), int(n_str)
    except ValueError as exc:
        raise CycError(f"scalar {text!r} does not match the grammar k/N") from exc
    if n < 1:
        raise CycError(f"scalar {text!r} has nonpositive conductor")
    val = root_of_unity(k, n)
    return -val if neg else val


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
