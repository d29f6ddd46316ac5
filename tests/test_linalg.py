import math
from fractions import Fraction

import pytest

from conftest import naive_rank

from nichols2 import _linalg
from nichols2._linalg import _bareiss_rank, _integer_rows, exact_rank_vectors
from nichols2._modular import split_prime, split_roots
from nichols2.cyclotomic import CycNum, ZERO, canonical_conductor, euler_phi, root_of_unity


def lifted_rank(matrix, pivot_rows=None, pivot_cols=None):
    """Rank of a matrix of cyclotomic scalars: every entry is lifted to the
    common conductor and the coordinate vectors are eliminated."""
    conductor = common_conductor(matrix)
    return exact_rank_vectors([[entry._lift(conductor) for entry in row] for row in matrix],
                              conductor, pivot_rows=pivot_rows, pivot_cols=pivot_cols)


def common_conductor(matrix):
    conductor = 1
    for row in matrix:
        for entry in row:
            conductor = canonical_conductor(math.lcm(conductor, entry.conductor))
    return conductor


def bareiss_rank(matrix):
    """The exact-elimination reference on the same lifted rows."""
    conductor = common_conductor(matrix)
    rows = [[entry._lift(conductor) for entry in row] for row in matrix]
    return len(_bareiss_rank(_integer_rows(rows), conductor)[0])


@pytest.fixture
def fallbacks(monkeypatch):
    """Input row counts of the calls that fell back to Bareiss elimination."""
    seen = []

    def counting(rows, conductor):
        seen.append(len(rows))
        return _bareiss_rank(rows, conductor)

    monkeypatch.setattr(_linalg, "_bareiss_rank", counting)
    return seen


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
        assert lifted_rank(m) == bareiss_rank(m) == naive_rank(m)


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
            assert lifted_rank(block) == bareiss_rank(block) == naive_rank(block)


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


def random_cyclotomic(rng, n):
    """A small integer combination of a few n-th roots of unity."""
    out = ZERO
    for _ in range(rng.randrange(1, 4)):
        c = CycNum.from_rational(rng.randrange(-3, 4))
        out = out + c * root_of_unity(rng.randrange(n), n)
    return out


def assert_valid_pivots(m, rank, pivot_rows, pivot_cols):
    assert len(pivot_rows) == len(pivot_cols) == rank
    assert pivot_rows == sorted(set(pivot_rows)) and pivot_cols == sorted(set(pivot_cols))
    assert naive_rank([m[i] for i in pivot_rows]) == rank
    assert naive_rank([[row[j] for j in pivot_cols] for row in m]) == rank


@pytest.mark.parametrize("n", [12, 30])
def test_certified_rank_with_cyclotomic_dependencies(rng, fallbacks, n):
    # Rows after the first few are combinations of two of those with
    # coefficients outside Q, so the certified route must lift non-rational
    # dependencies; none of these matrices needs the fallback.
    deficient = 0
    cb = root_of_unity(1, n) + CycNum.from_rational(Fraction(1, 3))
    for trial in range(12):
        base, cols = rng.randrange(2, 5), rng.randrange(3, 7)
        m = [[random_cyclotomic(rng, n) for _ in range(cols)] for _ in range(base)]
        for _ in range(rng.randrange(1, 4)):
            a, b = rng.sample(range(base), 2)
            ca = random_cyclotomic(rng, n)
            m.append([ca * x + cb * y for x, y in zip(m[a], m[b])])
        rows = len(m)
        pivot_rows, pivot_cols = [], []
        rank = lifted_rank(m, pivot_rows, pivot_cols)
        assert rank == bareiss_rank(m) == naive_rank(m)
        assert_valid_pivots(m, rank, pivot_rows, pivot_cols)
        deficient += rank < min(rows, cols)
    assert deficient > 0
    assert fallbacks == []


def test_certified_rank_of_fraction_rows(rng, fallbacks):
    for trial in range(20):
        rows, cols = rng.randrange(2, 6), rng.randrange(2, 6)
        m = random_matrix(rng, rows, cols, rational=True)
        q = CycNum.from_rational(Fraction(rng.randrange(1, 9), rng.randrange(2, 9)))
        m[-1] = [q * x + y for x, y in zip(m[0], m[rng.randrange(rows)])]
        assert any(c.denominator != 1 for row in m for e in row for c in e._lift(12))
        pivot_rows, pivot_cols = [], []
        rank = lifted_rank(m, pivot_rows, pivot_cols)
        assert rank == bareiss_rank(m) == naive_rank(m)
        assert_valid_pivots(m, rank, pivot_rows, pivot_cols)
    assert fallbacks == []


def test_fallback_when_the_prime_divides_an_entry(fallbacks):
    # [[p]] has rank 0 mod p but rank 1; the certificate that every row lies
    # in the span of no rows fails, and Bareiss decides.
    for n in (1, 12, 15):
        p = split_prime(n)
        assert p > 2 ** 62 and (p - 1) % n == 0
        entry = (p,) + (0,) * (euler_phi(n) - 1)
        pivot_rows, pivot_cols = [], []
        assert exact_rank_vectors([[entry]], n, pivot_rows, pivot_cols) == 1
        assert pivot_rows == [0] and pivot_cols == [0]
    assert fallbacks == [1, 1, 1]


def test_fallback_when_the_roots_disagree(fallbacks):
    # z - w vanishes at the first root w of Phi_12 mod p and at no other, so
    # the second row depends on the first at that root only.
    w = split_roots(12)[0][0][1]
    one, zero = (1, 0, 0, 0), (0, 0, 0, 0)
    rows = [[one, zero], [one, (-w, 1, 0, 0)]]
    pivot_rows, pivot_cols = [], []
    assert exact_rank_vectors(rows, 12, pivot_rows, pivot_cols) == 2
    assert pivot_rows == [0, 1] and pivot_cols == [0, 1]
    assert fallbacks == [2]


def test_fallback_when_a_dependency_is_too_large_to_lift(rng, fallbacks):
    # A coefficient with a 40-bit numerator and denominator is beyond
    # rational reconstruction mod a 63-bit prime, so the dependency cannot be
    # certified and Bareiss decides.
    num, den = (1 << 40) + 15, (1 << 40) - 87
    assert math.gcd(num, den) == 1
    big = CycNum.from_rational(Fraction(num, den)) * root_of_unity(1, 12)
    m = [[random_cyclotomic(rng, 12) for _ in range(4)] for _ in range(2)]
    m.append([big * x + y for x, y in zip(m[0], m[1])])
    m.append([random_cyclotomic(rng, 12) for _ in range(4)])
    pivot_rows, pivot_cols = [], []
    rank = lifted_rank(m, pivot_rows, pivot_cols)
    assert rank == naive_rank(m) == 3
    assert_valid_pivots(m, rank, pivot_rows, pivot_cols)
    assert fallbacks == [4]


def test_certified_rank_on_fixture_matrix_blocks(monkeypatch, fallbacks):
    # Every oracle block and every verify_type block of the fixture matrix at
    # cap 5 is certified mod p, with the same rank as exact elimination.
    from nichols2 import nicholscore
    from nichols2.braidedalg import clear_caches
    from nichols2.classify import run_fixture_matrix

    blocks = []

    def recording(rows, conductor, pivot_rows=None, pivot_cols=None):
        rank = exact_rank_vectors(rows, conductor, pivot_rows, pivot_cols)
        blocks.append((rows, conductor, rank))
        return rank

    monkeypatch.setattr(nicholscore, "exact_rank_vectors", recording)
    clear_caches()
    try:
        assert all(row.passed for row in run_fixture_matrix(degree_cap=5))
    finally:
        clear_caches()
    assert fallbacks == []
    assert any(rank < min(len(rows), len(rows[0])) for rows, _, rank in blocks if rows)
    for rows, conductor, rank in blocks:
        if rows and rows[0]:
            assert len(_bareiss_rank(_integer_rows(rows), conductor)[0]) == rank
