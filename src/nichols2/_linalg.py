"""Exact rank of matrices over cyclotomic fields.

The rows are integer coordinate vectors in the power basis of Q(zeta_N),
that is, entries of Z[zeta_N]: the oracle's derivative rows, cleared of
denominators, and symmetrized monomials, for a braiding of roots of
unity.  The rank is certified by `_modular.certified_rank` at the primes
p > 2^25 with p = 1 (mod N), in ascending order.  Modulo such a p the
cyclotomic polynomial Phi_N splits into phi(N) linear factors z - w, one
per primitive N-th root of unity w in F_p, and z -> w is a ring map from
Z[zeta_N] to F_p.

1. Lower bound.  The entries are mapped at the first root and eliminated
   over F_p in input row order.  This gives pivot rows R and pivot columns
   C with a nonzero R x C minor mod p.  A minor that is nonzero modulo a
   prime ideal is nonzero, so the rank is at least |R|.  If every nonzero
   row is in R, |R| is the rank.
2. Upper bound.  Otherwise, at every other root, the rows are eliminated
   on all columns in input row order, and must give the same R.  Each
   other row's coefficients c_k on the rows R, known at every root, are
   interpolated to coordinates mod p (the roots separate Z[zeta_N] mod p),
   joined by the Chinese remainder theorem to those of the earlier primes
   that gave the same R, lifted modulo their product m by rational
   reconstruction (Wang, Guy and Davenport, 1982) and cleared of
   denominators: num_k = D c_k (mod m), checked.  So E = D row_i -
   sum_k num_k row_k is 0 mod m, and its coordinates are at most B, from
   D, the num_k, the rows and Phi_N (Cabay, SYMSAC 1971; `_modular`):
   E = 0 once 2 B < m, else the next prime joins.  Every row then lies in
   the span of R, so the rank is at most |R|.  The out-parameter
   `dependencies` returns these proven combinations.

A mod-p rank is never reported here without both certificates.  Where
another root gives pivot rows other than R, or a lift fails or is
unproven, the next prime is tried.  Only finitely many primes are bad for
a matrix, and the product of the good ones outgrows B, so some prime certifies.

The pivot rows are then exactly the rows that raise the exact rank of the
rows before them.  Where every nonzero row is a pivot there is nothing to
show.  Otherwise the upper bound was certified: elimination in row order
writes each other row on the pivot rows before it only, and the bound
proves that combination.  So each other row lies in the span of the
pivot rows before it, and each pivot row, independent of them, raises the
rank.
"""

from __future__ import annotations


def exact_rank_vectors(rows, conductor: int, pivot_rows: list[int] | None = None,
                       dependencies: dict | None = None) -> int:
    """Rank of a matrix whose entries are integer coordinate vectors at a
    fixed conductor (elements of Z[zeta_N]).  A rank found mod p is
    returned only with two certificates (see the module docstring): a
    nonzero minor mod p on the pivot rows, and a coordinate bound proving
    every other row the lifted combination of them.  A prime without both
    certificates is followed by the next, up to `_modular._MAX_PRIMES`
    primes; then ArithmeticError reports a defect.

    If pivot_rows is given, its contents are replaced by the sorted input
    indices of the pivot rows: the rows that raise the rank of the rows
    before them, so they are independent and span the row space (module
    docstring).

    If dependencies is given, its contents are replaced by i: (D, nums) for
    every other row i: D row_i = sum_k nums[k] row_k exactly over the pivot
    rows k in order, D > 0 (step 2; D = 1 and nums zero for a zero row).
    """
    # Imported on the first rank, so that commands which never rank do not
    # load the modular route.
    from ._modular import certified_rank

    found = certified_rank(rows, conductor, dependencies)
    if pivot_rows is not None:
        pivot_rows[:] = found
    return len(found)
