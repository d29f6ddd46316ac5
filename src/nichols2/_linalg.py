"""Exact rank of matrices over cyclotomic fields.

The rows are integer coordinate vectors in the power basis of Q(zeta_N),
that is, entries of Z[zeta_N]: every caller ranks symmetrizer images for a
braiding of roots of unity, and their coefficients are sums of products of
roots.  The rank is certified by `_modular.certified_rank` at the primes
p > 2^62 with p = 1 (mod N), in ascending order.  Modulo such a p the
cyclotomic polynomial Phi_N splits into phi(N) linear factors z - w, one
per primitive N-th root of unity w in F_p, and z -> w is a ring map from
Z[zeta_N] to F_p.

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

A mod-p rank is never reported here without both certificates.  Where the
roots disagree, a reconstruction fails or a check fails, the next prime is
tried.  Only finitely many primes are bad for a matrix, and the product of
the good ones outgrows the true coefficients, so some prime certifies.

The pivot rows are then exactly the rows that raise the exact rank of the
rows before them, provided every nonzero row is a pivot or the rank is
below both dimensions.  In the first case there is nothing to show.  In
the second, the upper bound was certified: elimination in row order
writes each other row on the pivot rows before it only, and the exact
check proves that combination.  So each other row lies in the span of the
pivot rows before it, and each pivot row, independent of them, raises the
rank.  (A full column rank found by the lower bound alone can put a pivot
after a row that is independent over Q(zeta_N) but not mod p.)
"""

from __future__ import annotations


def exact_rank_vectors(rows, conductor: int, pivot_rows: list[int] | None = None) -> int:
    """Rank of a matrix whose entries are integer coordinate vectors at a
    fixed conductor (elements of Z[zeta_N]).  A rank found mod p is
    returned only with two certificates (see the module docstring): a
    nonzero minor mod p on the pivot rows, and an exact check that every
    other row is the lifted combination of them.  A prime without both
    certificates is followed by the next, up to `_modular._MAX_PRIMES`
    primes; then ArithmeticError reports a defect.

    If pivot_rows is given, its contents are replaced by the sorted input
    indices of the pivot rows: those rows are independent and span the
    row space.  If every nonzero row is a pivot or the rank is below both
    dimensions, they are exactly the rows that raise the rank of the rows
    before them (module docstring).
    """
    found = []
    if rows and rows[0]:
        # Imported on the first rank, so that commands which never rank do
        # not load the modular route.
        from ._modular import certified_rank

        found = certified_rank(rows, conductor)
    if pivot_rows is not None:
        pivot_rows[:] = found
    return len(found)
