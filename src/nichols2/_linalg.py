"""Exact rank of matrices over cyclotomic fields.

Rows are scaled to integer coordinate vectors in the power basis of
Q(zeta_N).  The rank is then found by a certified modular route
(`_modular.certified_rank`), and only where that route cannot certify its
answer by exact elimination.

The modular route works at p, the smallest prime above 2^62 with
p = 1 (mod N).  Modulo p the cyclotomic polynomial Phi_N splits into
phi(N) linear factors z - w, one per primitive N-th root of unity w in F_p,
and z -> w is a ring map from the integer coordinate vectors to F_p.

1. Lower bound.  The entries are mapped at the first root and eliminated
   over F_p in input row order.  This gives pivot rows R and pivot columns
   C with a nonzero R x C minor mod p.  A minor that is nonzero modulo a
   prime ideal is nonzero, so the rank is at least |R|.  If |R| is the
   number of rows or of columns, that is the rank.
2. Upper bound.  Otherwise every root is eliminated, and each must give
   the same R.  The coefficients of every other row on the rows R are then
   known at each root; they are interpolated to power-basis coordinates
   mod p, lifted to rationals by rational reconstruction (Wang, Guy and
   Davenport, "P-adic reconstruction of rational numbers", 1982), cleared
   of denominators, and checked exactly: D row_i = sum_k (D c_k) row_k, one
   big-int product per row of R by Kronecker substitution (Harvey, 2009;
   layouts in `_modular`).  Every row then lies in the span of R, so the
   rank is at most |R|.

A mod-p rank is never reported without both certificates.  Where the roots
disagree, a reconstruction fails or a check fails, the rows go to one-step
fraction-free (Bareiss) elimination, `_bareiss_rank`: entries stay genuine
minors of the input, so the division by the previous pivot (a product with
its integer inverse from `cyclotomic.vector_inverse`, then an exact integer
division) is exact.  Its pivots are chosen by coefficient size among
eligible rows, with index order breaking ties; the modular route's pivot
rows are the first independent rows in input order.  Both are deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .cyclotomic import _exact_div, vector_inverse, vector_product


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
    A mod-p rank is never returned on its own; without both certificates
    the rank comes from Bareiss elimination.

    If pivot_rows is given, its contents are replaced by the sorted input
    indices of the pivot rows: those rows are independent and span the
    row space.  Likewise pivot_cols receives the sorted indices of the
    pivot columns, which are independent and span the column space.  On
    the certified route the pivot rows are the first independent rows in
    input order; Bareiss picks them by coefficient size.
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

    found = certified_rank(rows, conductor)
    if found is None:
        found = _bareiss_rank(rows, conductor)
    rank_rows, rank_cols = found
    if pivot_rows is not None:
        pivot_rows.extend(rank_rows)
    if pivot_cols is not None:
        pivot_cols.extend(rank_cols)
    return len(rank_rows)


def _bareiss_rank(rows, conductor: int) -> tuple[list[int], list[int]]:
    """(sorted pivot rows, pivot columns) of integer rows by fraction-free
    elimination; the input rows are left as they are."""
    rows = [list(row) for row in rows]
    pmul = vector_product(conductor)
    n_rows, n_cols = len(rows), len(rows[0])

    def size(vec):
        return sum(c.bit_length() if c >= 0 else (-c).bit_length() for c in vec)

    order = list(range(n_rows))  # input index of the row now at each position
    pivot_cols = []
    rank = 0
    prev_inv = None  # (W, r): previous pivot inverse as W / r
    col = 0
    while col < n_cols and rank < n_rows:
        best = None
        for i in range(rank, n_rows):
            v = rows[i][col]
            if any(v):
                s = size(v)
                if best is None or s < best[0]:
                    best = (s, i)
        if best is None:
            col += 1
            continue
        i = best[1]
        rows[rank], rows[i] = rows[i], rows[rank]
        order[rank], order[i] = order[i], order[rank]
        pivot_row = rows[rank]
        pivot = pivot_row[col]
        for r in range(rank + 1, n_rows):
            row = rows[r]
            factor = row[col]
            has_factor = any(factor)
            for j in range(col, n_cols):
                if has_factor:
                    a = pmul(pivot, row[j])
                    bvec = pmul(factor, pivot_row[j])
                    t = [x - y for x, y in zip(a, bvec)]
                elif any(row[j]):
                    t = pmul(pivot, row[j])
                else:
                    continue
                if prev_inv is not None and any(t):
                    W, d = prev_inv
                    t = pmul(t, W)
                    t = _exact_div(t, d)
                row[j] = t
        prev_inv = vector_inverse(conductor, pivot)
        pivot_cols.append(col)
        rank += 1
        col += 1
    return sorted(order[:rank]), pivot_cols
