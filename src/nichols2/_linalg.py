"""Exact rank of matrices over cyclotomic fields.

Rows are scaled to integer coordinate vectors, then eliminated with
one-step fraction-free (Bareiss) updates: entries stay genuine minors of
the input, so the division by the previous pivot is exact in the ring of
integer vectors modulo the cyclotomic polynomial.  Entries are multiplied
by the field's one product kernel, `cyclotomic.vector_product`, and the
division by the previous pivot multiplies by its integer inverse from
`cyclotomic.vector_inverse` and divides exactly by the denominator.  Pivots
are chosen by coefficient size among eligible rows, with index order
breaking ties, so ranks are deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import _exact_div, vector_inverse, vector_product


def exact_rank_vectors(rows, conductor: int, pivot_rows: list[int] | None = None,
                       pivot_cols: list[int] | None = None) -> int:
    """Rank of a matrix whose entries are coordinate vectors at a fixed
    conductor.  Integer entries go straight to elimination; rational ones
    are scaled per row first (which preserves rank).

    If pivot_rows is given, its contents are replaced by the sorted input
    indices of the pivot rows: those rows are independent and span the
    row space.  Likewise pivot_cols receives the sorted indices of the
    pivot columns, which are independent and span the column space.
    """
    for pivots in (pivot_rows, pivot_cols):
        if pivots is not None:
            pivots.clear()
    if not rows or not rows[0]:
        return 0
    cleaned = []
    for row in rows:
        if any(isinstance(c, Fraction) and c.denominator != 1 for vec in row for c in vec):
            den = 1
            for vec in row:
                for c in vec:
                    d = c.denominator if isinstance(c, Fraction) else 1
                    den = den * d // math.gcd(den, d)
            cleaned.append([[int(c * den) for c in vec] for vec in row])
        else:
            cleaned.append([[int(c) for c in vec] for vec in row])
    rows = cleaned
    pmul = vector_product(conductor)
    n_rows, n_cols = len(rows), len(rows[0])

    def size(vec):
        return sum(c.bit_length() if c >= 0 else (-c).bit_length() for c in vec)

    order = list(range(n_rows))  # input index of the row now at each position
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
        if pivot_cols is not None:
            pivot_cols.append(col)
        rank += 1
        col += 1
    if pivot_rows is not None:
        pivot_rows.extend(sorted(order[:rank]))
    return rank
