"""Exact rank of matrices over cyclotomic fields.

Rows are scaled to integer coordinate vectors in the power basis of
Q(zeta_N).  The rank is then certified by `_modular.certified_rank` at the
primes p > 2^62 with p = 1 (mod N), in ascending order.  Modulo such a p
the cyclotomic polynomial Phi_N splits into phi(N) linear factors z - w,
one per primitive N-th root of unity w in F_p, and z -> w is a ring map
from the integer coordinate vectors to F_p.

1. Lower bound.  The entries are mapped at the first root and eliminated
   over F_p in input row order.  This gives pivot rows R and pivot columns
   C with a nonzero R x C minor mod p.  A minor that is nonzero modulo a
   prime ideal is nonzero, so the rank is at least |R|.  If |R| is the
   number of rows or of columns, that is the rank.
2. Upper bound.  Otherwise every root is eliminated, and each must give
   the same R.  The coefficients of every other row on the rows R are then
   known at each root; they are interpolated to power-basis coordinates
   mod p, joined by the Chinese remainder theorem to those of the earlier
   primes that gave the same R, lifted to rationals modulo the product of
   those primes by rational reconstruction (Wang, Guy and Davenport,
   "P-adic reconstruction of rational numbers", 1982), cleared of
   denominators, and checked exactly: D row_i = sum_k (D c_k) row_k, one
   big-int product per row of R by Kronecker substitution (Harvey, 2009;
   layouts in `_modular`).  Every row then lies in the span of R, so the
   rank is at most |R|.

A caller that needs only a lower bound needs only the first certificate:
`nicholscore.verify_type` proves PBW monomials independent by a full rank
mod p of rows it builds in F_p itself (`_modular.rank_mod_p`), and calls
this exact rank only where that rank falls short.

A mod-p rank is never reported here without both certificates.  Where the
roots disagree, a reconstruction fails or a check fails, the next prime is
tried.  Only finitely many primes are bad for a matrix, and the product of
the good ones outgrows the true coefficients, so some prime certifies.  The
pivot rows are the first rows independent modulo the prime that certified.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain


def _integer_rows(rows) -> list:
    """The rows as integer coordinate vectors: a row of ints as it is, and a
    row holding a Fraction scaled by the lcm of its denominators (rank kept)."""
    cleaned = []
    for row in rows:
        if Fraction in set(map(type, chain.from_iterable(row))):
            den = math.lcm(*(c.denominator for vec in row for c in vec))
            row = [[int(c * den) for c in vec] for vec in row]
        cleaned.append(row)
    return cleaned


def exact_rank_vectors(rows, conductor: int, pivot_rows: list[int] | None = None,
                       pivot_cols: list[int] | None = None) -> int:
    """Rank of a matrix whose entries are coordinate vectors at a fixed
    conductor.  Rational entries are scaled per row first (which preserves
    rank).  A rank found mod p is returned only with two certificates (see
    the module docstring): a nonzero minor mod p on the pivot rows, and an
    exact check that every other row is the lifted combination of them.
    A prime without both certificates is followed by the next, up to
    `_modular._MAX_PRIMES` primes; then ArithmeticError reports a defect.

    If pivot_rows is given, its contents are replaced by the sorted input
    indices of the pivot rows: those rows are independent and span the
    row space.  Likewise pivot_cols receives the sorted indices of the
    pivot columns, which are independent and span the column space.  The
    pivot rows are the first rows independent modulo the prime that
    certified.
    """
    for pivots in (pivot_rows, pivot_cols):
        if pivots is not None:
            pivots.clear()
    if not rows or not rows[0]:
        return 0
    rows = _integer_rows(rows)
    # Imported on the first rank, so that commands which never rank do not
    # load the modular route.
    from ._modular import certified_rank

    rank_rows, rank_cols = certified_rank(rows, conductor)
    if pivot_rows is not None:
        pivot_rows.extend(rank_rows)
    if pivot_cols is not None:
        pivot_cols.extend(rank_cols)
    return len(rank_rows)
