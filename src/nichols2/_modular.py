"""The certified modular rank route of `_linalg.exact_rank_vectors`.

`certified_rank` proves a rank found modulo split primes from both sides,
as described in the `_linalg` docstring; it never returns a rank without
both certificates, so it is correct for any p.  The primes are the
smallest above 2^25 with p = 1 (mod N), one CPython digit: a small prime
only means that a large coefficient is lifted from more primes.  At each
prime p it works on packed rows: one int per row, whose slot j, bytes
j s to (j + 1) s - 1, holds entry j.  A slot is a whole number of
little-endian 64-bit words (`pack_slots`); at one word, rows convert to
and from slot lists in C.

- Evaluation: coordinate a of each entry, reduced mod p, is packed once
  per row as C_a; the row at a root w is sum_a C_a w^a (slots < phi(N) p^2),
  each w^a < p a one-digit multiplier.
- Elimination: a row operation x += (p - f) pivot, the pivot row reduced,
  multiplies by one digit and adds less than p^2 to a slot, and a slot is
  reduced only when a pivot reads it, so s is 2 bitlen(p) +
  bitlen(phi(N) + rows) bits, rounded up to words: one word at 26-bit p
  for phi(N) + rows < 4096.  Any p is correct; a larger one, or a larger
  block, only takes more words.  Identity slots after the columns
  record each row's pivot combination.  The rows are eliminated at every
  root on all columns, and the combinations are interpolated from the
  roots at the same width; `_roots` checks that its inverse Vandermonde
  inverts evaluation.
- Coordinate bound (Cabay, "Exact solution of linear equations", SYMSAC
  1971): `_lift` checks num_k = D c_k (mod m) for the combination c_k
  found at each prime joined, whose product is m, so E = D row_i -
  sum_k num_k row_k vanishes mod m at every column.  A coordinate of
  num_k row_k before reduction mod Phi_N is at most R_k |num_k|_1, for R_k
  the largest |coordinate| of row k; reduction multiplies that by at most
  1 + rho (`cyclotomic.growth`).  So |E| <= B_i = D R_i + (1 + rho)
  sum_k R_k |num_k|_1, and E = 0 once 2 B_i < m.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache
from itertools import chain, islice
from operator import mul

from .cyclotomic import ROOT_TABLE_CACHE_SIZE, cyclotomic_polynomial, divisors, euler_phi, growth

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


@lru_cache(maxsize=ROOT_TABLE_CACHE_SIZE)
def split_prime(n: int) -> int:
    """The smallest prime p > 2^25 with p = 1 (mod n): Phi_n splits mod p.
    While p < 2^26, a packed slot is one 64-bit word for phi(n) + rows <
    4096 (module docstring); any p is correct, a larger one takes more words."""
    p = (2 ** 25 // n + 1) * n + 1
    while not _is_prime(p):
        p += n
    return p


@lru_cache(maxsize=ROOT_TABLE_CACHE_SIZE)
def split_roots(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """`_roots(n, split_prime(n))`, cached per conductor."""
    return _roots(n, split_prime(n))


def _split_primes(n: int):
    """(p, powers, inverse Vandermonde) for the primes p > 2^25 with p = 1
    (mod n), ascending (`split_prime`); only the first prime's tables are cached."""
    p = split_prime(n)
    yield (p, *split_roots(n))
    while True:
        p += n
        if _is_prime(p):
            yield (p, *_roots(n, p))


def _roots(n: int, p: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(powers, inverse Vandermonde) at the roots of Phi_n mod a prime
    p = 1 (mod n).

    powers[t][i] is w_t^i for the primitive n-th roots w_t = w^k (k prime
    to n, ascending) of the first w found.  The inverse Vandermonde takes
    the values of a coordinate vector at those roots back to the vector:
    its column t is the Lagrange basis polynomial Phi_n(z) / ((z - w_t)
    Phi_n'(w_t)).  Raises ArithmeticError unless it inverts evaluation.
    """
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
    # Interpolation rests on row t of V vinv being e_t, for V[t][a] = w_t^a.
    step = _slot_bytes(p, deg, 0)
    packed = [pack_slots(row, step) for row in zip(*columns)]
    for t, pw in enumerate(powers):
        if [s % p for s in unpack_slots(sum(map(mul, pw, packed)), deg, step)] != [
                int(s == t) for s in range(deg)]:
            raise ArithmeticError(f"the inverse Vandermonde of Phi_{n} mod {p} does not "
                                  "invert evaluation")
    return tuple(powers), tuple(zip(*columns))


def _slot_bytes(p: int, deg: int, n_rows: int) -> int:
    """Bytes per slot of a packed row mod p: whole 64-bit words (module docstring)."""
    return 8 * -(-(2 * p.bit_length() + (deg + n_rows).bit_length()) // 64)


assert array("Q").itemsize == 8, "a packed slot word is an 8-byte array('Q') item"


def pack_slots(values, step: int) -> int:
    """Nonnegative ints below 2^(8 step) as the slots of one int, slot j at
    bit 8 step j; step is a whole number of 64-bit words, in bytes.  A slot
    of one word converts in C, as a little-endian array('Q') item."""
    if step == 8:
        words = array("Q", values)
        if sys.byteorder == "big":
            words.byteswap()
        return int.from_bytes(words, "little")
    return int.from_bytes(b"".join([v.to_bytes(step, "little") for v in values]), "little")


def unpack_slots(x: int, n: int, step: int) -> list[int]:
    """The n slots of step bytes of a packed int (`pack_slots`)."""
    raw = x.to_bytes(n * step, "little")
    if step == 8:
        words = array("Q", raw)
        if sys.byteorder == "big":
            words.byteswap()
        return words.tolist()
    return [int.from_bytes(raw[i * step:(i + 1) * step], "little") for i in range(n)]


def _eliminate(rows, n_cols: int, p: int, step: int):
    """Elimination over F_p of packed rows, one row at a time in input order:
    (pivot rows, {dependent row: its coefficients on the pivot rows, in
    their order})."""
    bits, mask = 8 * step, (1 << 8 * step) - 1
    basis = []  # (bit offset of its pivot slot, that slot's inverse, reduced row)
    prows, zero_combs = [], {}
    for i, x in enumerate(rows):
        r = len(basis)
        # Slot n_cols + k carries the coefficient of the k-th pivot row, and
        # slot n_cols + r that of this row.
        x += 1 << (n_cols + r) * bits
        for shift, inv, piv in basis:
            f = (x >> shift & mask) * inv % p
            if f:
                x += (p - f) * piv
        slots = [s % p for s in unpack_slots(x, n_cols + r + 1, step)]
        col = next(filter(slots.__getitem__, range(n_cols)), None)
        if col is None:
            zero_combs[i] = slots[n_cols:-1]
            continue
        basis.append((col * bits, pow(slots[col], -1, p), pack_slots(slots, step)))
        prows.append(i)
    # 0 = row_i + sum_k comb[k] row_k, so row_i = -sum_k comb[k] row_k.
    return prows, {i: [-c % p for c in comb] + [0] * (len(prows) - len(comb))
                   for i, comb in zero_combs.items()}


def _rational_lift(a: int, m: int, bound: int) -> tuple[int, int] | None:
    """(n, d) with n = a d (mod m), |n| <= bound and 0 < d <= bound, or None."""
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or math.gcd(r1, t1) != 1:
        return None
    return r1, t1


# A defect must end in an error, not a spin; 159 primes > 2^25 lift coefficients of 1983 bits.
_MAX_PRIMES = 159


def certified_rank(rows, conductor: int, dependencies: dict | None = None) -> list[int]:
    """The pivot rows of integer rows, certified at one or more split primes
    (see the `_linalg` docstring): the rows independent of the rows before
    them modulo the prime that certified.  If dependencies is given, it is
    filled as `_linalg.exact_rank_vectors` describes.  Raises
    ArithmeticError if _MAX_PRIMES primes do not certify."""
    n_rows = len(rows)
    # A zero row is never a pivot row and lies in every span.
    live = [i for i, row in enumerate(rows) if any(map(any, row))]
    if len(live) <= 1:  # rank 0 or 1 exactly, with no prime
        if dependencies is not None:
            dependencies.clear()
            dependencies.update((i, (1, [(0,) * euler_phi(conductor)] * len(live)))
                                for i in range(n_rows) if i not in live)
        return live
    n_cols, rows = len(rows[0]), [rows[i] for i in live]
    # Without dependencies, a rank equal to either dimension needs no lift.
    full = len(rows) if dependencies is not None else min(len(rows), n_cols)
    best = None  # the key of the primes whose residues, mod their product m, are in acc
    sizes, grow = None, 1 + growth(conductor)[2]  # each R_i, and 1 + rho, of the coordinate bound
    for p, powers, vinv in islice(_split_primes(conductor), _MAX_PRIMES):
        mod_p = _at_prime(rows, n_cols, p, powers, vinv, full)
        if mod_p is None:
            continue
        prows, residues = mod_p
        lifted = []
        if residues is not None:
            # Reduction mod p can only lose pivot rows or move them later, so
            # the smallest key is the best, and primes of a larger key are bad.
            key = (-len(prows), prows)
            if best is not None and key > best:
                continue
            if key != best:
                best, m, acc = key, 1, [0] * len(residues)
            t = pow(m, -1, p)
            acc = [a + m * ((r - a) * t % p) for a, r in zip(acc, residues)]
            m *= p
            deps = sorted(set(range(len(rows))).difference(prows))
            lifted = _lift(acc, m, deps, len(prows), len(vinv))
            if lifted is None:
                continue
            if sizes is None:
                sizes = [max(map(abs, chain.from_iterable(row))) for row in rows]
            # Every lifted combination is exact once 2 B_i < m (module docstring).
            if any(2 * (den * sizes[i] + grow * sum(sizes[k] * sum(map(abs, vec))
                                                     for k, vec in zip(prows, nums))) >= m
                   for i, den, nums in lifted):
                continue
        if dependencies is not None:
            dependencies.clear()
            for i in set(range(n_rows)).difference(live):  # the zero rows
                dependencies[i] = (1, [(0,) * len(vinv)] * len(prows))
            dependencies.update((live[i], (den, nums)) for i, den, nums in lifted)
        return [live[k] for k in prows]
    raise ArithmeticError(f"no certified rank for a {n_rows} x {n_cols} block at conductor "
                          f"{conductor} in {_MAX_PRIMES} split primes")


def _at_prime(rows, n_cols: int, p: int, powers, vinv, full: int):
    """(pivot rows, residues) of integer rows mod p at the first root, or
    None where another root gives other pivot rows.  The residues, None at
    rank full, are the power-basis coordinates mod p of each other row's
    coefficients on the pivot rows, flat by (row, pivot row, coordinate)."""
    deg = len(vinv)
    step = _slot_bytes(p, deg, len(rows))
    # packed[r][a]: C_a of row r
    packed = [[pack_slots([c % p for c in coords], step) for coords in zip(*row)]
              for row in rows]

    def at(pw):
        return _eliminate([sum(map(mul, cs, pw)) for cs in packed], n_cols, p, step)

    prows, deps = at(powers[0])
    if len(prows) == full:
        return prows, None
    # Every root must give the same pivot rows, on all columns, for the
    # combinations to hold at every column (module docstring).
    combs = [list(deps.values())]
    for pw in powers[1:]:
        rs, solved = at(pw)
        if rs != prows:
            return None
        combs.append(list(solved.values()))
    # Interpolate them to coordinates, packed over the pivot rows.
    rank, residues = len(prows), []
    for per_root in zip(*combs):
        values = [pack_slots(c, step) for c in per_root]
        coords = [unpack_slots(sum(map(mul, vrow, values)), rank, step)
                  for vrow in vinv]
        residues += [a % p for vec in zip(*coords) for a in vec]
    return prows, residues


def _lift(residues, m: int, deps: list[int], rank: int, deg: int):
    """[(i, D, nums)] per dependent row i: its coefficients on the pivot rows,
    lifted from the residues mod m and cleared by their common denominator
    D, nums[k] the coordinates on pivot row k; None if one does not lift.
    Every coordinate returned is checked to be D times its residue mod m.
    A residue within the bound of 0 mod m is its own lift over 1: the lift
    is unique, as 2 bound^2 < m."""
    bound = math.isqrt((m - 1) // 2)
    top = m - bound
    fracs = [(a, 1) if a <= bound else (a - m, 1) if a >= top else _rational_lift(a, m, bound)
             for a in residues]
    if None in fracs:
        return None
    lifted, size = [], rank * deg
    for n, i in enumerate(deps):
        cs, rs = fracs[n * size:(n + 1) * size], residues[n * size:(n + 1) * size]
        den = math.lcm(*(d for _, d in cs))
        nums = [num * (den // d) for num, d in cs]
        if any((x - r * den) % m for x, r in zip(nums, rs)):
            return None
        lifted.append((i, den, [nums[k:k + deg] for k in range(0, size, deg)]))
    return lifted
