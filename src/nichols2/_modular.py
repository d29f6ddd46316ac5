"""The certified modular rank route of `_linalg.exact_rank_vectors`.

`certified_rank` proves a rank found mod p from both sides, as described
in the `_linalg` docstring, or gives up; it never returns a rank without
both certificates.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cyclotomic import cyclotomic_polynomial, divisors, euler_phi, vector_product

# Deterministic Miller-Rabin: these bases decide primality below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def split_prime(n: int) -> int:
    """The smallest prime p > 2^62 with p = 1 (mod n): Phi_n splits mod p."""
    p = (2 ** 62 // n + 1) * n + 1
    while not _is_prime(p):
        p += n
    return p


@lru_cache(maxsize=None)
def split_roots(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(powers, inverse Vandermonde) at the roots of Phi_n mod split_prime(n).

    powers[t][i] is w_t^i for the primitive n-th roots w_t = w^k (k prime
    to n, ascending) of the first w found.  The inverse Vandermonde takes
    the values of a coordinate vector at those roots back to the vector:
    its column t is the Lagrange basis polynomial Phi_n(z) / ((z - w_t)
    Phi_n'(w_t)).
    """
    p = split_prime(n)
    deg = euler_phi(n)
    proper = divisors(n)[:-1]
    g = 2
    while True:
        w = pow(g, (p - 1) // n, p)
        if all(pow(w, d, p) != 1 for d in proper):
            break
        g += 1
    roots = [pow(w, k, p) for k in range(1, n + 1) if math.gcd(k, n) == 1]
    phi = cyclotomic_polynomial(n)
    powers, columns = [], []
    for r in roots:
        pw = [1] * deg
        for i in range(1, deg):
            pw[i] = pw[i - 1] * r % p
        powers.append(tuple(pw))
        # Synthetic division: Phi_n(z) = (z - r) quot(z) + Phi_n(r), and
        # quot(r) = Phi_n'(r).
        quot = [0] * deg
        acc = 0
        for i in range(deg, 0, -1):
            acc = (acc * r + phi[i]) % p
            quot[i - 1] = acc
        if (acc * r + phi[0]) % p:
            raise ArithmeticError(f"{r} is not a root of the {n}-th cyclotomic polynomial mod {p}")
        scale = pow(sum(c * x for c, x in zip(quot, pw)) % p, -1, p)
        columns.append([c * scale % p for c in quot])
    return tuple(powers), tuple(zip(*columns))


def _eliminate_mod(mat, p: int, track: bool):
    """Elimination over F_p, one row at a time in input order.

    Returns (pivot rows, their pivot columns, dependencies).  With track,
    dependencies maps each row that reduces to zero to its coefficients on
    the pivot rows, in their order.
    """
    n_cols = len(mat[0])
    basis = []  # (pivot column, reduced row with 1 there, its combination of input rows)
    prows, pcols, zero_combs = [], [], {}
    for i, row in enumerate(mat):
        x = list(row)
        comb = {i: 1} if track else None
        for col, vec, vcomb in basis:
            f = x[col]
            if f:
                x = [(a - f * b) % p for a, b in zip(x, vec)]
                if track:
                    for k, c in vcomb.items():
                        comb[k] = (comb.get(k, 0) - f * c) % p
        col = next((j for j in range(n_cols) if x[j]), None)
        if col is None:
            if track:
                zero_combs[i] = comb
            continue
        inv = pow(x[col], -1, p)
        x = [a * inv % p for a in x]
        if track:
            comb = {k: c * inv % p for k, c in comb.items()}
        basis.append((col, x, comb))
        prows.append(i)
        pcols.append(col)
    # 0 = row_i + sum_k comb[k] row_k, so row_i = -sum_k comb[k] row_k.
    deps = {i: [-comb.get(k, 0) % p for k in prows] for i, comb in zero_combs.items()}
    return prows, pcols, deps


def _rational_lift(a: int, p: int, bound: int) -> tuple[int, int] | None:
    """(n, d) with n = a d (mod p), |n| <= bound and 0 < d <= bound, or None."""
    r0, r1, t0, t1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or math.gcd(r1, t1) != 1:
        return None
    return r1, t1


def certified_rank(rows, conductor: int) -> tuple[list[int], list[int]] | None:
    """(pivot rows, pivot columns) of integer rows, certified by the modular
    route, or None where a certificate is missing."""
    p = split_prime(conductor)
    powers, vinv = split_roots(conductor)

    def at(pw):
        return [[sum(c * w for c, w in zip(vec, pw)) % p if any(vec) else 0 for vec in row]
                for row in rows]

    first = at(powers[0])
    prows, pcols, _ = _eliminate_mod(first, p, track=False)
    if len(prows) == min(len(rows), len(rows[0])):
        return prows, sorted(pcols)
    # The coefficients of each dependent row on the pivot rows, at every root.
    per_root = []
    for t, pw in enumerate(powers):
        rs, _, deps = _eliminate_mod(first if t == 0 else at(pw), p, track=True)
        if rs != prows:
            return None
        per_root.append(deps)
    bound = math.isqrt((p - 1) // 2)
    pmul = vector_product(conductor)
    deg = len(powers)
    for i in per_root[0]:
        lifted = []
        for k in range(len(prows)):
            values = [deps[i][k] for deps in per_root]
            coeffs = []
            for vrow in vinv:
                c = _rational_lift(sum(v * x for v, x in zip(vrow, values)) % p, p, bound)
                if c is None:
                    return None
                coeffs.append(c)
            lifted.append(coeffs)
        den = 1
        for coeffs in lifted:
            for _, d in coeffs:
                den = den * d // math.gcd(den, d)
        terms = [(rows[prows[k]], [num * (den // d) for num, d in coeffs])
                 for k, coeffs in enumerate(lifted) if any(num for num, _ in coeffs)]
        for j, target in enumerate(rows[i]):
            acc = [0] * deg
            for prow, c in terms:
                v = prow[j]
                if any(v):
                    acc = [a + b for a, b in zip(acc, pmul(c, v))]
            if acc != [den * x for x in target]:
                return None
    return prows, sorted(pcols)
