import math

from conftest import naive_rank

from nichols2._linalg import exact_rank_vectors
from nichols2.cyclotomic import CycNum, ZERO, canonical_conductor, root_of_unity


def lifted_rank(matrix, pivot_rows=None, pivot_cols=None):
    """Rank of a matrix of cyclotomic scalars: every entry is lifted to the
    common conductor and the coordinate vectors are eliminated."""
    conductor = 1
    for row in matrix:
        for entry in row:
            conductor = canonical_conductor(math.lcm(conductor, entry.conductor))
    return exact_rank_vectors([[entry._lift(conductor) for entry in row] for row in matrix],
                              conductor, pivot_rows=pivot_rows, pivot_cols=pivot_cols)


def random_matrix(rng, rows, cols, rational=False):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.25:
                row.append(ZERO)
            else:
                v = root_of_unity(rng.randrange(12), 12)
                if rational:
                    from fractions import Fraction
                    v = v * CycNum.from_rational(Fraction(rng.randrange(1, 5), rng.randrange(1, 5)))
                row.append(v)
        out.append(row)
    return out


def test_rank_matches_naive_gaussian(rng):
    for trial in range(60):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        m = random_matrix(rng, rows, cols, rational=trial % 2 == 0)
        # inject linear dependence half the time
        if rows >= 2 and rng.random() < 0.5:
            m[-1] = [a + b for a, b in zip(m[0], m[rng.randrange(rows - 1)])]
        assert lifted_rank(m) == naive_rank(m)


def test_rank_edge_cases():
    assert lifted_rank([]) == 0
    assert lifted_rank([[ZERO, ZERO]]) == 0
    one = CycNum.from_rational(1)
    assert lifted_rank([[one]]) == 1
    assert lifted_rank([[one, one], [one, one]]) == 1


def test_rank_vectors_entry_point(rng):
    z5 = root_of_unity(1, 5)
    m = [[z5, z5 * z5], [z5 * z5, z5 ** 4]]
    lifted = [[tuple(e._lift(5)) for e in row] for row in m]
    assert exact_rank_vectors(lifted, 5) == lifted_rank(m) == naive_rank(m)


def test_rank_deterministic(rng):
    m = random_matrix(rng, 6, 6)
    assert lifted_rank(m) == lifted_rank(m)


def test_rank_on_symmetrizer_blocks(rng):
    # Dual-route rank on the real objects the oracle eliminates: bidegree
    # blocks of degree-4 symmetrizers for random braidings.
    from conftest import random_root_braiding
    from nichols2.braidedalg import basis_words, symmetrizer

    for _ in range(6):
        b = random_root_braiding(rng, max_conductor=9)
        mat = symmetrizer(b, 4)
        words = basis_words(4)
        for k in range(5):
            cols = [j for j, w in enumerate(words) if w.count(1) == k]
            block = [[mat[i][j] for j in cols] for i in cols]
            assert lifted_rank(block) == naive_rank(block)


def test_pivot_rows_index_an_independent_spanning_subset(rng):
    reordered = 0
    for trial in range(60):
        rows = rng.randrange(2, 8)
        cols = rng.randrange(1, 7)
        m = random_matrix(rng, rows, cols)
        # A zero leading entry in the first row makes the first pivot come
        # from further down, so the elimination has to swap rows.
        m[0][0] = ZERO
        if all(row[0].is_zero() for row in m):
            m[-1][0] = root_of_unity(trial, 12)
        # Dependent rows: a sum of two others, a multiple, or zero.
        k = rng.randrange(rows)
        choice = trial % 3
        if choice == 0:
            i, j = rng.randrange(rows), rng.randrange(rows)
            m[k] = [a + b for a, b in zip(m[i], m[j])]
        elif choice == 1:
            c = root_of_unity(rng.randrange(12), 12)
            m[k] = [c * a for a in m[rng.randrange(rows)]]
        else:
            m[k] = [ZERO] * cols
        pivots = [-1, 99]  # replaced, not appended to
        rank = lifted_rank(m, pivot_rows=pivots)
        assert rank == lifted_rank(m) == naive_rank(m)
        assert pivots == sorted(set(pivots)) and len(pivots) == rank
        assert all(0 <= i < rows for i in pivots)
        sub = [m[i] for i in pivots]
        assert lifted_rank(sub) == naive_rank(sub) == rank
        reordered += pivots != list(range(rank))
    assert reordered > 0


def test_pivot_cols_index_an_independent_spanning_subset(rng):
    reordered = 0
    for trial in range(60):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(2, 8)
        m = random_matrix(rng, rows, cols)
        # A zero first column, or a column dependent on the ones before it
        # (a sum, a multiple, or zero), is not a pivot column.
        k = rng.randrange(1, cols)
        choice = trial % 4
        if choice == 0:
            for row in m:
                row[0] = ZERO
        elif choice == 1:
            i, j = rng.randrange(k), rng.randrange(k)
            for row in m:
                row[k] = row[i] + row[j]
        elif choice == 2:
            c = root_of_unity(rng.randrange(12), 12)
            i = rng.randrange(k)
            for row in m:
                row[k] = c * row[i]
        else:
            for row in m:
                row[k] = ZERO
        pivots = [-1, 99]  # replaced, not appended to
        rank = lifted_rank(m, pivot_cols=pivots)
        assert rank == lifted_rank(m) == naive_rank(m)
        assert pivots == sorted(set(pivots)) and len(pivots) == rank
        assert all(0 <= j < cols for j in pivots)
        sub = [[row[j] for j in pivots] for row in m]
        assert lifted_rank(sub) == naive_rank(sub) == rank
        reordered += pivots != list(range(rank))
    assert reordered > 0


def test_pivot_rows_of_empty_and_zero_matrices():
    pivots, cols = [3], [4]
    assert exact_rank_vectors([], 12, pivot_rows=pivots, pivot_cols=cols) == 0
    assert pivots == [] and cols == []
    pivots, cols = [3], [4]
    assert lifted_rank([[ZERO, ZERO], [ZERO, ZERO]], pivot_rows=pivots, pivot_cols=cols) == 0
    assert pivots == [] and cols == []
