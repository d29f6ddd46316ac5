import math
import sys
from fractions import Fraction
from itertools import chain, islice

import pytest

from conftest import naive_rank

from nichols2 import _modular
from nichols2._linalg import exact_rank_vectors
from nichols2._modular import (_MAX_PRIMES, _eliminate, _is_prime, _slot_bytes,
                               _split_primes, certified_rank, pack_slots, split_prime,
                               split_roots, unpack_slots)
from nichols2.cyclotomic import (CycNum, ZERO, canonical_conductor, euler_phi, root_of_unity,
                                 shift_gain, vector_product)
from test_cyclotomic import _exact_div, vector_inverse


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


def lifted_rank(matrix, pivot_rows=None):
    """Rank of a matrix of cyclotomic scalars: every entry is lifted to the
    common conductor, rows with rational coordinates are scaled to integer
    ones, and the coordinate vectors are eliminated."""
    conductor = common_conductor(matrix)
    rows = _integer_rows([[entry._lift(conductor) for entry in row] for row in matrix])
    return exact_rank_vectors(rows, conductor, pivot_rows=pivot_rows)


def common_conductor(matrix):
    conductor = 1
    for row in matrix:
        for entry in row:
            conductor = canonical_conductor(math.lcm(conductor, entry.conductor))
    return conductor


def _bareiss_rank(rows, conductor: int) -> list[int]:
    """The sorted pivot rows of integer rows by fraction-free elimination;
    the input rows are left as they are."""
    rows = [list(row) for row in rows]
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
        rank += 1
        col += 1
    return sorted(order[:rank])


def bareiss_rank(matrix):
    """The exact-elimination reference on the same lifted rows."""
    conductor = common_conductor(matrix)
    rows = [[entry._lift(conductor) for entry in row] for row in matrix]
    return len(_bareiss_rank(_integer_rows(rows), conductor))


def primes_to_lift(bits: int, prime_bits: int) -> int:
    """The split primes of bit length prime_bits that rational reconstruction
    needs for a coefficient of the given bit length: each prime is above
    2^(prime_bits - 1), and their product must exceed 2^(2 bits + 1)."""
    return -(-(2 * bits + 1) // (prime_bits - 1))


def coordinate_bound(rows, n: int, pivot_rows, deps: dict) -> int:
    """The largest B_i of the `_modular` docstring over the dependencies
    i: (D, nums) on the pivot rows: D R_i + g sum_k R_k |nums_k|_1, for R_j
    the largest |coordinate| of row j and g = `shift_gain`(n)."""
    size = [max(abs(c) for vec in row for c in vec) for row in rows]
    return max(den * size[i] + shift_gain(n) * sum(size[k] * sum(map(abs, vec))
                                                   for k, vec in zip(pivot_rows, nums))
               for i, (den, nums) in deps.items())


def primes_to_certify(n: int, bound: int, height: int, skip: int = 0) -> int:
    """The split primes a rank-deficient block takes when the first skip fail
    and the rest join: skip and the fewest after them whose product m exceeds
    2 bound and lifts every coefficient of height at most height (rational
    reconstruction needs isqrt((m - 1) / 2) >= height)."""
    m = 1
    for k, (p, _, _) in enumerate(islice(_split_primes(n), skip, None), skip + 1):
        m *= p
        if m > 2 * bound and math.isqrt((m - 1) // 2) >= height:
            return k


@pytest.fixture
def fallbacks(monkeypatch):
    """The number of split primes each rank used, for the ranks that fell
    back to a later prime: [] when the first prime certified every rank."""
    seen = []
    split_primes = _modular._split_primes

    def counting(n):
        primes = split_primes(n)
        yield next(primes)
        seen.append(1)
        for prime in primes:
            seen[-1] += 1
            yield prime

    monkeypatch.setattr(_modular, "_split_primes", counting)
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


def test_integer_rows_keeps_int_rows_and_scales_fraction_rows():
    ints = [(1, -2), (0, 3)]
    fracs = [(Fraction(1, 2), 0), (Fraction(3, 1), Fraction(-1, 3))]
    out = _integer_rows([ints, fracs])
    assert out[0] is ints
    assert out[1] == [[3, 0], [18, -2]] and all(type(c) is int for vec in out[1] for c in vec)


def test_rank_deterministic(rng):
    m = random_matrix(rng, 6, 6)
    assert lifted_rank(m) == lifted_rank(m)


def test_rank_on_symmetrizer_blocks(rng):
    # Dual-route rank on the real objects the oracle eliminates: bidegree
    # blocks of degree-4 symmetrizers for random braidings.
    from conftest import basis_words, random_root_braiding, symmetrizer

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


def test_pivot_rows_of_empty_and_zero_matrices():
    pivots = [3]
    assert exact_rank_vectors([], 12, pivot_rows=pivots) == 0
    assert pivots == []
    pivots = [3]
    assert lifted_rank([[ZERO, ZERO], [ZERO, ZERO]], pivot_rows=pivots) == 0
    assert pivots == []


def random_cyclotomic(rng, n):
    """A small integer combination of a few n-th roots of unity."""
    out = ZERO
    for _ in range(rng.randrange(1, 4)):
        c = CycNum.from_rational(rng.randrange(-3, 4))
        out = out + c * root_of_unity(rng.randrange(n), n)
    return out


def assert_valid_pivots(m, rank, pivot_rows):
    assert len(pivot_rows) == rank
    assert pivot_rows == sorted(set(pivot_rows))
    assert naive_rank([m[i] for i in pivot_rows]) == rank


@pytest.mark.parametrize("n", [12, 30])
def test_certified_rank_with_cyclotomic_dependencies(rng, fallbacks, n):
    # Rows after the first few are combinations of two of those with
    # coefficients outside Q, so the certified route must lift non-rational
    # dependencies.  Only a tall block of full column rank, whose rows
    # depend on its pivot rows with generic coefficients, may need the
    # fallback; the first prime certifies every other block.
    deficient = 0
    cb = root_of_unity(1, n) + CycNum.from_rational(Fraction(1, 3))
    for trial in range(12):
        base, cols = rng.randrange(2, 5), rng.randrange(3, 7)
        m = [[random_cyclotomic(rng, n) for _ in range(cols)] for _ in range(base)]
        for _ in range(rng.randrange(1, 4)):
            a, b = rng.sample(range(base), 2)
            ca = random_cyclotomic(rng, n)
            m.append([ca * x + cb * y for x, y in zip(m[a], m[b])])
        rows, before = len(m), len(fallbacks)
        pivot_rows = []
        rank = lifted_rank(m, pivot_rows)
        assert rank == bareiss_rank(m) == naive_rank(m)
        assert_valid_pivots(m, rank, pivot_rows)
        assert len(fallbacks) == before or rows > cols == rank
        deficient += rank < min(rows, cols)
    assert deficient > 0


def test_certified_rank_of_fraction_rows(rng, fallbacks):
    # As with cyclotomic dependencies, only a tall block of full column rank
    # may need the fallback.
    for trial in range(20):
        rows, cols = rng.randrange(2, 6), rng.randrange(2, 6)
        m = random_matrix(rng, rows, cols, rational=True)
        q = CycNum.from_rational(Fraction(rng.randrange(1, 9), rng.randrange(2, 9)))
        m[-1] = [q * x + y for x, y in zip(m[0], m[rng.randrange(rows)])]
        assert any(c.denominator != 1 for row in m for e in row for c in e._lift(12))
        pivot_rows, before = [], len(fallbacks)
        rank = lifted_rank(m, pivot_rows)
        assert rank == bareiss_rank(m) == naive_rank(m)
        assert_valid_pivots(m, rank, pivot_rows)
        assert len(fallbacks) == before or rows > cols == rank


def test_fallback_when_the_prime_divides_an_entry(fallbacks):
    # [[p, 0], [0, 1]] has rank 1 mod p but rank 2; the certificate that row
    # 0 lies in the span of row 1 fails, and the second prime certifies.  (A
    # block with one nonzero row, such as [[p]], takes no prime.)
    for n in (1, 12, 15):
        p = split_prime(n)
        assert _is_prime(p) and (p - 1) % n == 0
        zero, one = (0,) * euler_phi(n), (1,) + (0,) * (euler_phi(n) - 1)
        pivot_rows = []
        assert exact_rank_vectors([[(p,) + zero[1:], zero], [zero, one]], n, pivot_rows) == 2
        assert pivot_rows == [0, 1]
    assert fallbacks == [2, 2, 2]


def test_blocks_with_at_most_one_nonzero_row_take_no_prime(monkeypatch):
    # Such a block has rank 0 or 1 exactly, so no prime is tried, even for
    # an entry that the first prime divides; a zero row depends on the
    # pivot rows by zero coefficients.
    tried = []
    at_prime = _modular._at_prime
    monkeypatch.setattr(_modular, "_at_prime", lambda *args: tried.append(args) or at_prime(*args))
    for n in (1, 12, 15):
        zero = (0,) * euler_phi(n)
        live = (split_prime(n),) + zero[1:]
        for rows, pivots in (([[zero, zero]], []), ([[zero], [zero], [zero]], []),
                             ([[live, zero]], [0]),
                             ([[zero, zero], [zero, live], [zero, zero]], [1])):
            pivot_rows, deps = [], {}
            assert exact_rank_vectors(rows, n, pivot_rows, deps) == len(pivots)
            assert pivot_rows == pivots
            assert deps == {i: (1, [zero] * len(pivots))
                            for i in range(len(rows)) if i not in pivots}
    # Rows of no columns, and no rows, take the same route.
    deps = {}
    assert exact_rank_vectors([[], []], 12, None, deps) == 0 and deps == {0: (1, []), 1: (1, [])}
    assert exact_rank_vectors([], 12, None, deps) == 0 and deps == {}
    assert tried == []


def small_zero_at_the_first_root() -> tuple:
    """alpha = (a, b, c, 0), |a| < 2^13 and 0 < c < 256, zero at the first
    root w of Phi_12 modulo its first split prime p."""
    p, w = split_prime(12), split_roots(12)[0][0][1]
    alpha = next((a, b, c, 0) for c in range(1, 256) for b in range(-255, 256)
                 for a in [(p // 2 - b * w - c * w * w) % p - p // 2] if abs(a) < 2 ** 13)
    assert sum(x * w ** k for k, x in enumerate(alpha)) % p == 0
    return alpha


def test_fallback_when_the_roots_disagree(fallbacks):
    # z - w vanishes at the first root w of Phi_12 mod p and at no other, so
    # the second row depends on the first at that root only: the other roots
    # give other pivot rows, and the second prime certifies.
    w = split_roots(12)[0][0][1]
    one, zero = (1, 0, 0, 0), (0, 0, 0, 0)
    rows = [[one, zero], [one, (-w, 1, 0, 0)]]
    pivot_rows = []
    assert exact_rank_vectors(rows, 12, pivot_rows) == 2
    assert pivot_rows == [0, 1]
    assert fallbacks == [2]
    # The same with the small alpha in place of z - w, off the first root's
    # pivot column: the bound of row 1 = row 0 holds at the first prime, so
    # only the other roots, eliminated on every column, reject it.
    rows = [[one, zero], [one, small_zero_at_the_first_root()]]
    assert 2 * coordinate_bound(rows, 12, [0], {1: (1, [one])}) < split_prime(12)
    assert exact_rank_vectors(rows, 12, pivot_rows) == 2
    assert pivot_rows == [0, 1]
    assert fallbacks == [2, 2]


def test_fallback_when_the_pivot_rows_vanish_at_another_root(fallbacks):
    # Both rows are (z - w) (1, 1) for the second root w of Phi_12 mod p: at
    # the first root the first row is the pivot, at w it is zero, so the
    # dependency cannot be solved there, and the second prime certifies.
    w = split_roots(12)[0][1][1]
    m = (-w, 1, 0, 0)
    pivot_rows, deps = [], {}
    assert exact_rank_vectors([[m, m], [m, m]], 12, pivot_rows, deps) == 1
    assert pivot_rows == [0] and deps == {1: (1, [[1, 0, 0, 0]])}
    # The second prime's pivot rows are right, and its coordinate bound
    # 2 B = 2 (w + 2 w) (g = 2 at 12) is below it: 6 w < p_2.
    assert coordinate_bound([[m, m], [m, m]], 12, [0], deps) == 3 * w
    assert fallbacks == [primes_to_certify(12, 3 * w, 1, skip=1)] == [2]


def test_fallback_when_a_later_pivot_row_spans_at_the_first_root(fallbacks):
    # alpha has small coordinates and vanishes at the first root w of Phi_12
    # mod p, so there the rows (1, 0, 0), (0, alpha, 0), (0, 1, 0) give the
    # pivot rows [0, 2], and row 1 = alpha row 2 would lift from that prime.
    # Row 1 raises the rank of the rows before it, so it must be a pivot row:
    # the other roots reject that prime, and later primes certify [0, 1].
    alpha = small_zero_at_the_first_root()
    one, zero = (1, 0, 0, 0), (0, 0, 0, 0)
    rows = [[one, zero, zero], [zero, alpha, zero], [zero, one, zero]]
    assert len(_bareiss_rank(rows, 12)) == 2
    pivot_rows = []
    assert exact_rank_vectors(rows, 12, pivot_rows) == 2
    assert pivot_rows == [0, 1] and len(fallbacks) == 1 and fallbacks[0] > 1


def test_a_tall_block_of_full_column_rank_certifies_its_pivot_rows(fallbacks):
    # The rows (1, 0), (0, alpha), (0, 1) have rank 2, the number of columns,
    # at the first prime too, but with the pivot rows [0, 2] there.  Asked
    # for its pivot rows alone, the rank still certifies its upper bound, so
    # the other roots reject that prime as they do when the dependencies are
    # asked for, and both calls return [0, 1].
    alpha = small_zero_at_the_first_root()
    one, zero = (1, 0, 0, 0), (0, 0, 0, 0)
    rows = [[one, zero], [zero, alpha], [zero, one]]
    plain, pivots, deps = [], [], {}
    assert exact_rank_vectors(rows, 12, plain) == 2
    assert exact_rank_vectors(rows, 12, pivots, deps) == 2
    assert plain == pivots == [0, 1] and sorted(deps) == [2]
    assert len(fallbacks) == 2 and fallbacks[0] == fallbacks[1] > 1


def test_fallback_when_a_dependency_is_too_large_to_lift(rng, fallbacks):
    # A coefficient with a 40-bit numerator and denominator is beyond
    # rational reconstruction mod one split prime, so the dependency is
    # certified modulo the product of the first few.
    num, den = (1 << 40) + 15, (1 << 40) - 87
    assert math.gcd(num, den) == 1
    big = CycNum.from_rational(Fraction(num, den)) * root_of_unity(1, 12)
    m = [[random_cyclotomic(rng, 12) for _ in range(4)] for _ in range(2)]
    m.append([big * x + y for x, y in zip(m[0], m[1])])
    m.append([random_cyclotomic(rng, 12) for _ in range(4)])
    pivot_rows = []
    rank = lifted_rank(m, pivot_rows)
    assert rank == naive_rank(m) == 3
    assert_valid_pivots(m, rank, pivot_rows)
    primes = primes_to_lift(40, split_prime(12).bit_length())
    assert primes > 1 and fallbacks == [primes]


# The ids name the bit length and, from when the split primes were above
# 2^62, the number of primes it took then.
@pytest.mark.parametrize("bits", [pytest.param(100, id="100-4"), pytest.param(200, id="200-7")])
def test_certified_rank_lifts_across_primes(rng, fallbacks, bits):
    # A coefficient whose numerator and denominator have the given bit length
    # lifts only modulo more than 2^(2 bits + 1): the product of the residues
    # of several split primes, joined by the Chinese remainder theorem.
    num, den = (1 << bits) - 15, (1 << bits) - 87
    assert math.gcd(num, den) == 1 and num.bit_length() == den.bit_length() == bits
    big = CycNum.from_rational(Fraction(num, den)) * root_of_unity(1, 12)
    m = [[random_cyclotomic(rng, 12) for _ in range(4)] for _ in range(2)]
    m.append([big * x + y for x, y in zip(m[0], m[1])])
    m.append([random_cyclotomic(rng, 12) for _ in range(4)])
    pivot_rows = []
    rank = lifted_rank(m, pivot_rows)
    rows = _integer_rows([[e._lift(12) for e in row] for row in m])
    assert pivot_rows == _bareiss_rank(rows, 12) == [0, 1, 3]
    assert rank == bareiss_rank(m) == naive_rank(m) == 3
    assert fallbacks == [primes_to_lift(bits, split_prime(12).bit_length())]


def test_split_primes_are_one_digit():
    # For every fixture conductor, and one far beyond them, the first split
    # prime is one CPython digit, so every row operation has a one-digit
    # multiplier, and a packed slot is one 64-bit word while
    # phi(N) + rows < 4096.
    from nichols2.classify import fixtures

    conductors = {canonical_conductor(math.lcm(*(q.conductor for q in b.entries())))
                  for b in fixtures().values()}
    for n in sorted(conductors) + [15000]:
        p = split_prime(n)
        assert _is_prime(p) and (p - 1) % n == 0
        assert p.bit_length() <= sys.int_info.bits_per_digit
        assert 2 * p.bit_length() + (4095).bit_length() <= 64
        assert _slot_bytes(p, 1, 4094) == 8


@pytest.mark.parametrize("n", [1, 12, 30])
def test_max_primes_lift_1983_bits(n):
    # The product of the first _MAX_PRIMES split primes lifts a coefficient
    # of 1983 bits: rational reconstruction needs it above 2^(2 1983 + 1).
    primes = [p for p, _, _ in islice(_split_primes(n), _MAX_PRIMES)]
    assert len(primes) == _MAX_PRIMES and math.prod(primes) > 2 ** (2 * 1983 + 1)


def test_the_prime_loop_ends(rng, monkeypatch, capsys, fallbacks):
    # A lift that is always wrong never passes `_lift`'s check: the rank
    # gives up after _MAX_PRIMES primes with an error that names the block,
    # and the command line reports it as an internal error.  Row 3 is 1/3
    # times row 0 plus row 1, so its coefficient 1/3 is rationally lifted,
    # as is a coefficient of a degree-4 block of the (4,1) sample braiding.
    from nichols2 import cli
    from nichols2.braidedalg import clear_caches

    lift = _modular._rational_lift

    def off_by_one(a, m, bound):
        found = lift(a, m, bound)
        return found and (found[0] + 1, found[1])

    monkeypatch.setattr(_modular, "_rational_lift", off_by_one)
    m = [[random_cyclotomic(rng, 12) for _ in range(4)] for _ in range(3)]
    m.append([x + y for x, y in zip(m[0], m[1])])
    m[0] = [3 * x for x in m[0]]
    with pytest.raises(ArithmeticError, match=f"4 x 4 block at conductor 12 in {_MAX_PRIMES} "):
        lifted_rank(m)
    assert fallbacks == [_MAX_PRIMES]
    clear_caches()
    try:
        code = cli.main(["dims", "--q11", "1/3", "--q12", "3/4", "--q21", "0/1", "--q22", "2/3",
                         "--degree-cap", "4"])
    finally:
        clear_caches()
    assert code == 3 and fallbacks == [_MAX_PRIMES] * 2
    assert "internal error in dims (ArithmeticError)" in capsys.readouterr().err


def test_certified_rank_on_fixture_matrix_blocks(monkeypatch, fallbacks):
    # Every oracle block of the fixture matrix at cap 5 is certified mod p,
    # with the same rank as exact elimination.  (Its monomials are proven
    # independent by their leading words, and reach this route only where
    # those differ from the basis words, which on no fixture they do.)
    from nichols2 import nicholscore
    from nichols2.braidedalg import clear_caches
    from nichols2.classify import run_fixture_matrix

    blocks = []

    def recording(rows, conductor, pivot_rows=None, dependencies=None):
        rank = exact_rank_vectors(rows, conductor, pivot_rows, dependencies)
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
        # The oracle hands the rank integer coordinates only.
        assert all(type(c) is int for row in rows for vec in row for c in vec)
        if rows and rows[0]:
            assert len(_bareiss_rank(rows, conductor)) == rank


def test_pivot_rows_raise_the_rank_of_the_rows_before_them(rng):
    # On square integer blocks at conductors 1 to 30, rank-deficient and
    # full, the pivot rows are exactly the rows that raise the exact rank of
    # the rows before them, by fraction-free elimination of every prefix.
    deficient = 0
    for trial in range(300):
        n = trial % 30 + 1
        deg, pmul = euler_phi(n), vector_product(n)
        size = rng.randrange(1, 6)

        def entry():
            return [rng.randrange(-3, 4) if rng.random() < 0.7 else 0 for _ in range(deg)]

        rows = [[tuple(entry()) for _ in range(size)] for _ in range(size)]
        if trial % 4:
            # Every row a combination of fewer base rows, some coefficients 0.
            base = rows[:rng.randrange(size)]
            rows = []
            for _ in range(size):
                row = [[0] * deg for _ in range(size)]
                for brow in base:
                    c = entry()
                    row = [[x + y for x, y in zip(acc, pmul(c, e))] for acc, e in zip(row, brow)]
                rows.append([tuple(vec) for vec in row])
        pivot_rows = []
        rank = exact_rank_vectors(rows, n, pivot_rows)
        prefix = [0] + [len(_bareiss_rank(rows[:i + 1], n)) for i in range(size)]
        assert pivot_rows == [i for i in range(size) if prefix[i + 1] > prefix[i]], (n, rows)
        assert rank == prefix[-1]
        deficient += rank < size
    assert 225 <= deficient < 300


def test_dependencies_combine_the_pivot_rows_exactly(rng):
    # The out-parameter of exact_rank_vectors on random blocks at conductors
    # 1 to 30, square and tall (more rows than columns), with zero rows and
    # rows that combine others: every other row satisfies D row_i =
    # sum_k nums_k row_k exactly, a zero row gets the zero combination, and
    # asking for dependencies leaves the pivot rows as they are, tall
    # blocks of full column rank among them.
    seen = {"zero": 0, "den > 1": 0, "tall full": 0}
    for trial in range(150):
        n = trial % 30 + 1
        deg, pmul = euler_phi(n), vector_product(n)
        n_cols = rng.randrange(1, 6)
        n_rows = n_cols + (rng.randrange(1, 4) if trial % 3 == 0 else 0)

        def entry():
            return tuple(rng.randrange(-3, 4) if rng.random() < 0.7 else 0 for _ in range(deg))

        base = [[entry() for _ in range(n_cols)] for _ in range(rng.randrange(1, n_rows + 1))]
        rows = []
        for _ in range(n_rows):
            if rng.random() < 0.2:
                rows.append([(0,) * deg] * n_cols)
                continue
            row = [[0] * deg for _ in range(n_cols)]
            for brow in base:
                c = entry()
                row = [[x + y for x, y in zip(acc, pmul(c, e))] for acc, e in zip(row, brow)]
            rows.append([tuple(vec) for vec in row])
        plain, pivots, deps = [], [], {"stale": None}
        exact_rank_vectors(rows, n, plain)
        rank = exact_rank_vectors(rows, n, pivots, dependencies=deps)
        assert pivots == plain
        assert sorted(deps) == [i for i in range(n_rows) if i not in pivots]
        for i, (den, nums) in deps.items():
            assert den > 0 and len(nums) == rank
            if not any(map(any, rows[i])):
                assert den == 1 and not any(map(any, nums))
                seen["zero"] += 1
            seen["den > 1"] += den > 1
            for col in range(n_cols):
                total = [0] * deg
                for vec, k in zip(nums, pivots):
                    total = [x + y for x, y in zip(total, pmul(vec, rows[k][col]))]
                assert total == [den * x for x in rows[i][col]], (n, rows, i)
        seen["tall full"] += n_cols == rank < sum(any(map(any, row)) for row in rows)
    assert all(seen.values()), seen


def test_slot_codec_matches_shift_and_mask(rng, monkeypatch):
    # Slots of one and two little-endian 64-bit words, against shifts and
    # masks; the extreme values fill every bit of a slot.
    for step in (8, 16):
        bits = 8 * step
        for n in (0, 1, 2, 7, 40):
            values = [rng.choice((0, 1, (1 << bits) - 1, rng.getrandbits(bits)))
                      for _ in range(n)]
            x = sum(v << bits * j for j, v in enumerate(values))
            assert pack_slots(values, step) == x
            assert unpack_slots(x, n, step) == [x >> bits * j & (1 << bits) - 1
                                                for j in range(n)] == values
    # On a big-endian host each word is byteswapped once, in place: here,
    # where array('Q') is little-endian, that reverses each word's bytes.
    values = [rng.getrandbits(64) for _ in range(9)]
    swapped = [int.from_bytes(v.to_bytes(8, "little"), "big") for v in values]
    monkeypatch.setattr(_modular.sys, "byteorder", "big")
    x = pack_slots(values, 8)
    assert x == sum(w << 64 * j for j, w in enumerate(swapped))
    assert unpack_slots(x, 9, 8) == values


def _eliminate_mod(mat, p: int):
    """Reference elimination over F_p, one slot at a time, in input row order:
    (pivot rows, dependencies), where dependencies maps each row that reduces
    to zero to its coefficients on the pivot rows, in their order.
    """
    n_cols = len(mat[0])
    basis = []  # (pivot column, reduced row with 1 there, its combination of input rows)
    prows, zero_combs = [], {}
    for i, row in enumerate(mat):
        x = list(row)
        comb = {i: 1}
        for col, vec, vcomb in basis:
            f = x[col]
            if f:
                x = [(a - f * b) % p for a, b in zip(x, vec)]
                for k, c in vcomb.items():
                    comb[k] = (comb.get(k, 0) - f * c) % p
        col = next((j for j in range(n_cols) if x[j]), None)
        if col is None:
            zero_combs[i] = comb
            continue
        inv = pow(x[col], -1, p)
        x = [a * inv % p for a in x]
        comb = {k: c * inv % p for k, c in comb.items()}
        basis.append((col, x, comb))
        prows.append(i)
    # 0 = row_i + sum_k comb[k] row_k, so row_i = -sum_k comb[k] row_k.
    deps = {i: [-comb.get(k, 0) % p for k in prows] for i, comb in zero_combs.items()}
    return prows, deps


def packed_elimination(mat, p, deg):
    """`_eliminate` on the rows of mat, residues mod p, each slot packed as
    the largest value below deg p^2 with its residue: the top of the range
    an evaluated slot starts in."""
    step = _slot_bytes(p, deg, len(mat))
    top = deg * p * p - 1
    rows = [pack_slots([v + (top - v) // p * p for v in row], step) for row in mat]
    return _eliminate(rows, len(mat[0]), p, step)


def staircase(n, p):
    """n - 1 rows e_k - sum_{j>k} e_j, then the row (1 - k)_k: eliminating it
    reads f = 1 at every pivot, so each of its n - 1 row operations adds
    (p - 1)^2 to every later slot, the most a row operation can add."""
    rows = [[0] * k + [1] + [p - 1] * (n - 1 - k) for k in range(n - 1)]
    return rows + [[(1 - k) % p for k in range(n)]]


# 2^63 - 25, 2^30 - 35 and 2^26 - 5 are the largest primes below 2^63, 2^30
# and 2^26: only for p this close to a power of two is the bound
# 2 bitlen(p) + bitlen(deg + rows) nearly reached, at 2^30 - 35 under a full
# one-digit multiplier, and at 2^26 - 5 in one 64-bit word up to
# deg + rows = 4095.  4611686018427388081, the smallest prime above 2^62 that
# is 1 mod 12, is a multi-digit p; the 63-bit primes and 2^30 - 35 take
# slots of two or three words.
@pytest.mark.parametrize("p", [split_prime(12), 4611686018427388081, 2 ** 63 - 25,
                               2 ** 30 - 35, 2 ** 26 - 5])
def test_packed_elimination_matches_reference(rng, p):
    assert _is_prime(p)
    mats = []
    for trial in range(40):
        rows, cols = rng.randrange(1, 13), rng.randrange(1, 13)
        m = [[rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(cols)] for _ in range(rows)]
        if rows >= 3:
            a, b = rng.sample(range(rows - 1), 2)
            m[-1] = [(x + rng.randrange(p) * y) % p for x, y in zip(m[a], m[b])]
            m[rng.randrange(rows - 1)] = [0] * cols
        mats.append(m)
    mats.append([[p - 1] * 7 for _ in range(9)])
    for n in (2, 5, 8, 10):
        # Dependent rows after the staircase: the sum of two of its rows, and
        # a row of p - 1.
        m = staircase(n, p)
        mats.append(m + [[(x + y) % p for x, y in zip(m[0], m[-1])], [p - 1] * n])
    for m in mats:
        for deg in (1, 4, 8):
            assert packed_elimination(m, p, deg) == _eliminate_mod(m, p)
    # The last staircase, 10 rows and the two dependent ones, at
    # deg + rows = 4095, the most one word holds at p < 2^26, and at 4105,
    # where its slots grow above 2^64 for p = 2^26 - 5.
    m = mats[-1]
    for deg in (4083, 4093):
        assert (_slot_bytes(p, deg, len(m)) == 8) == (p < 2 ** 26 and deg == 4083)
        assert packed_elimination(m, p, deg) == _eliminate_mod(m, p)


def test_packed_elimination_of_a_500_row_block():
    p = 2 ** 63 - 25
    m = staircase(499, p)
    m.append([(x + 2 * y) % p for x, y in zip(m[3], m[-1])])
    assert len(m) == 500
    prows, deps = packed_elimination(m, p, 8)
    assert (prows, deps) == _eliminate_mod(m, p)
    assert prows == list(range(499))
    assert deps[499] == [0, 0, 0, 1] + [0] * 494 + [2]


@pytest.mark.parametrize("n", [12, 30])
def test_exact_check_at_the_digit_bound(fallbacks, n):
    # Three pivot rows whose first column has every coordinate -(2^62 - 1),
    # and two dependent rows whose lifted coefficients have every coordinate
    # 2^30 - 1, then -(2^30 - 1).  The 30-bit coefficients lift from
    # primes_to_lift(30, ...) primes, but the coordinate bound, with R_k =
    # 2^62 - 1 on the pivot rows, takes more: each rank uses the primes that
    # primes_to_certify predicts from it.
    deg, pmul = euler_phi(n), vector_product(n)
    big, zero = (-(2 ** 62 - 1),) * deg, (0,) * deg
    pivots = [[big] + [zero] * k + [(-(2 ** 62 - 1),) + zero[1:]] + [zero] * (2 - k)
              for k in range(3)]
    rows = list(pivots)
    for sign in (1, -1):
        c = [sign * (2 ** 30 - 1)] * deg
        rows.append([[sum(t) for t in zip(*(pmul(c, row[j]) for row in pivots))]
                     for j in range(4)])
    assert certified_rank(rows, n) == [0, 1, 2]
    pivot_rows, deps = [], {}
    assert exact_rank_vectors(rows, n, pivot_rows, deps) == 3 == len(_bareiss_rank(rows, n))
    assert deps == {3 + k: (1, [[sign * (2 ** 30 - 1)] * deg] * 3)
                    for k, sign in enumerate((1, -1))}
    primes = primes_to_certify(n, coordinate_bound(rows, n, [0, 1, 2], deps), 2 ** 30 - 1)
    assert primes > primes_to_lift(30, split_prime(n).bit_length())
    assert pivot_rows == [0, 1, 2] and fallbacks == [primes] * 2


def test_exact_check_rejects_an_off_by_one_coefficient(rng, monkeypatch, fallbacks):
    # The first coefficient lifted one too large is no longer D times its
    # residue mod p, so `_lift` rejects the lift, and the residues of the
    # first two primes lift correctly.  Row 2 is tripled after row 3 is
    # formed, so row 3's coefficient on it has a coordinate 1/3, which is
    # rationally lifted.
    cb = root_of_unity(1, 12) + CycNum.from_rational(Fraction(1, 3))
    m = [[random_cyclotomic(rng, 12) for _ in range(4)] for _ in range(3)]
    ca = random_cyclotomic(rng, 12)
    m.append([ca * x + cb * y for x, y in zip(m[0], m[2])])
    m[2] = [3 * x for x in m[2]]
    rows = _integer_rows([[e._lift(12) for e in row] for row in m])
    assert certified_rank(rows, 12) == [0, 1, 2]
    lift = _modular._rational_lift
    calls = []

    def off_by_one(a, p, bound):
        num, den = lift(a, p, bound)
        calls.append(a)
        return (num + 1 if len(calls) == 1 else num), den

    lift_rows = _modular._lift
    checks = []

    def checking(*args):
        lifted = lift_rows(*args)
        checks.append(lifted is not None)
        return lifted

    monkeypatch.setattr(_modular, "_rational_lift", off_by_one)
    monkeypatch.setattr(_modular, "_lift", checking)
    assert certified_rank(rows, 12) == [0, 1, 2]
    assert checks == [False, True] and fallbacks == [2]
    calls.clear()
    assert lifted_rank(m) == naive_rank(m) == 3
    assert checks == [False, True] * 2 and fallbacks == [2, 2]


def test_the_coordinate_bound_joins_a_second_prime(rng, fallbacks):
    # Row 2 = row 0 + row 1, rows of coordinates near 2^30: the unit
    # coefficients lift from the first prime, but the coordinate bound B =
    # R_2 + 2 (R_0 + R_1), about 3 2^31, is above half of it, so the second
    # prime joins.  g = 2 at 12: Phi_12 = z^4 - z^2 + 1 makes z^4, z^5 and
    # z^6 the vectors of z^2 - 1, z^3 - z and -1, so no four consecutive
    # powers have an absolute sum above 2 at any coordinate.
    one, zero = (1, 0, 0, 0), (0, 0, 0, 0)
    assert coordinate_bound([[one], [zero]], 12, [0], {1: (0, [one])}) == 2
    near = [[tuple(2 ** 30 - rng.randrange(64) for _ in range(4)) for _ in range(3)]
            for _ in range(2)]
    rows = near + [[tuple(x + y for x, y in zip(a, b)) for a, b in zip(*near)]]
    pivot_rows, deps = [], {}
    assert exact_rank_vectors(rows, 12, pivot_rows, deps) == 2
    assert pivot_rows == _bareiss_rank(rows, 12) == [0, 1]
    assert deps == {2: (1, [[1, 0, 0, 0], [1, 0, 0, 0]])}
    bound = coordinate_bound(rows, 12, [0, 1], deps)
    assert 2 ** 32 < bound <= 2 ** 33 and primes_to_certify(12, 0, 1) == 1
    assert fallbacks == [primes_to_certify(12, bound, 1)] == [2]


def test_a_corrupted_inverse_vandermonde_is_refused(monkeypatch):
    # Interpolation rests on the inverse Vandermonde: one column scaled by 2,
    # through the modular inverse that normalizes it, is refused.
    p = split_prime(12)
    assert _modular._roots(12, p) == split_roots(12)
    inverses = []

    def doubling(base, exp, mod=None):
        found = pow(base, exp, mod)
        if exp == -1:
            inverses.append(found)
            return 2 * found % mod if len(inverses) == 1 else found
        return found

    monkeypatch.setattr(_modular, "pow", doubling, raising=False)
    with pytest.raises(ArithmeticError, match="inverse Vandermonde of Phi_12"):
        _modular._roots(12, p)
    assert len(inverses) == euler_phi(12)


def test_certified_rank_on_deep_blocks(monkeypatch, fallbacks):
    # Every oracle block of the (15,1) sample to degree 8, up to 25 rows at
    # conductor 15, is certified mod p, with the rank of exact elimination.
    from nichols2 import nicholscore
    from nichols2.braidedalg import clear_caches
    from nichols2.classify import fixtures

    blocks = []

    def recording(rows, conductor, pivot_rows=None, dependencies=None):
        rank = exact_rank_vectors(rows, conductor, pivot_rows, dependencies)
        blocks.append((rows, conductor, rank))
        return rank

    monkeypatch.setattr(nicholscore, "exact_rank_vectors", recording)
    clear_caches()
    try:
        dims = nicholscore.hilbert_prefix(fixtures()[(15, 1)], 8)
    finally:
        clear_caches()
    assert tuple(dims) == (1, 2, 4, 7, 12, 19, 29, 43, 62)
    assert fallbacks == []
    assert max(len(rows) for rows, _, _ in blocks) == 25
    for rows, conductor, rank in blocks:
        assert len(_bareiss_rank(_integer_rows(rows), conductor)) == rank


def test_certified_rank_lifts_oracle_blocks_across_primes(fallbacks):
    # The (6,1) sample to degree 16 has oracle blocks whose dependency
    # coefficients are too large for one split prime: those ranks join the
    # residues of several, and the dimensions are still the PBW counts.
    from nichols2.braidedalg import clear_caches
    from nichols2.classify import fixtures
    from nichols2.fbtree import TREES
    from nichols2.nicholscore import count_by_degree, hilbert_prefix, pbw_monomials

    b = fixtures()[(6, 1)]
    clear_caches()
    try:
        dims = hilbert_prefix(b, 16)
    finally:
        clear_caches()
    assert fallbacks
    assert dims == count_by_degree(pbw_monomials(TREES[6], b, 16), 16)
