import functools
import random

import pytest

from nichols2._linalg import exact_rank_vectors
from nichols2.admissibility import (NuDenominatorError, ScalarDomainError, lambda_of, p_of)
from nichols2.cyclotomic import ONE, ZERO, CycNum, qnum, root_of_unity, vector_product
from nichols2.braidedalg import BraidedError, Braiding, NCPoly, _engine
from nichols2.fbtree import LGH, RGH, FullBinaryTree


def random_root(rng: random.Random, max_conductor: int = 12) -> CycNum:
    n = rng.randrange(1, max_conductor + 1)
    return root_of_unity(rng.randrange(n), n)


def random_root_braiding(rng: random.Random, max_conductor: int = 12) -> Braiding:
    """Braiding with all entries powers of one root of unity.

    Drawing the four entries from a single conductor keeps the generated
    field small, so the symmetrizer oracle stays at desk scale; mixed
    conductors are exercised by the scalar-level tests instead.
    """
    n = rng.randrange(2, max_conductor + 1)
    return Braiding(*(root_of_unity(rng.randrange(n), n) for _ in range(4)))


def basis_words(m: int) -> list[tuple[int, ...]]:
    """All words of length m over {1, 2} in lexicographic order."""
    words = [()]
    for _ in range(m):
        words = [w + (i,) for w in words for i in (1, 2)]
    return sorted(words)


def symmetrizer(b: Braiding, m: int) -> list[list[CycNum]]:
    """Matrix of the degree-m quantum symmetrizer in the word basis, from
    the whole-word images of `ReferenceImages`.

    Entry [i][j] is the coefficient of basis word i in the image of basis
    word j; the kernel of this matrix is the degree-m relation space.
    """
    if m < 1:
        raise BraidedError("symmetrizer degree must be positive")
    if not b.of_roots:  # as the engine, whose entries are compared with these
        raise BraidedError(f"the reference takes roots of unity only, got {b!r}")
    words = basis_words(m)
    ref = reference_images(b)
    return [[ref.image(w).get(u, ZERO) for w in words] for u in words]


def word_image(b: Braiding, w: tuple[int, ...], words) -> dict:
    """`_SymEngine.image_vectors` of the single word w at the words: word ->
    coordinate list at the engine's conductor, zero entries dropped."""
    eng = _engine(b)
    return eng.image_vectors({w: ONE._lift(eng.conductor)}, eng.conductor, words)


def reference_symmetrize(b: Braiding, rho: NCPoly, n: int, words) -> dict:
    """The symmetrizer image of rho at the words, at conductor n, zero
    entries dropped, the reference for `_SymEngine.image_vectors`: one
    `vector_product` per (term, image word) pair of the whole-word images
    of `ReferenceImages`."""
    mul, ref = vector_product(n), reference_images(b)
    out: dict = {}
    for w, c in rho.terms.items():
        cv = c._lift(n)
        img = ref.image(w)
        for u in set(words) & img.keys():
            add = mul(cv, img[u]._lift(n))
            cur = out.get(u)
            out[u] = add if cur is None else [x + y for x, y in zip(cur, add)]
    return {u: v for u, v in out.items() if any(v)}


def skew_derivation(b: Braiding, i: int, rho: NCPoly) -> NCPoly:
    """The twisted letter-deleting operator <y_i, .> on polynomials with
    CycNum coefficients: the reference for the integer form
    `braidedalg.skew_derivation`."""
    if i not in (1, 2):
        raise BraidedError("derivation index must be 1 or 2")
    # Deleting the letter at position k twists by chi(e_i, deg word[:k])^-1,
    # which bimultiplicativity turns into one value of chi.
    minus_ei = (-1, 0) if i == 1 else (0, -1)
    out: dict = {}
    for word, c in rho.terms.items():
        for k, letter in enumerate(word):
            if letter == i:
                w = word[:k] + word[k + 1:]
                ones = word[:k].count(1)
                add = c * b.chi(minus_ei, (ones, k - ones))
                s = out.get(w)
                out[w] = add if s is None else s + add
    return NCPoly(out)


def derivations_vanish(b: Braiding, rho: NCPoly) -> bool:
    """The reference derivation zero test on CycNum polynomials: recursively,
    both skew derivations vanish, and a degree-0 element is zero iff its
    scalar is."""
    if rho.is_zero():
        return True
    if () in rho.terms:
        return False
    return (derivations_vanish(b, skew_derivation(b, 1, rho))
            and derivations_vanish(b, skew_derivation(b, 2, rho)))


class ReferenceImages:
    """Whole-word symmetrizer images over CycNum coefficients from
    `Braiding.chi`, the reference for the iterated skew derivations of
    `_SymEngine`: the image of a word is assembled from the images of all
    its one-letter deletions, the deleted letter moved to the front and
    twisted by chi(letter, deg word[:k])^-1, and every image is cached
    whole."""

    def __init__(self, b: Braiding):
        self.b = b
        self.cache: dict = {}

    def image(self, word: tuple[int, ...]) -> dict:
        """Image of a word: word -> CycNum, zero coefficients included."""
        hit = self.cache.get(word)
        if hit is None:
            hit = self.cache[word] = self._image(word)
        return hit

    def _image(self, word):
        if len(word) <= 1:
            return {word: ONE}
        out: dict = {}
        twist = ZERO  # summed over a run of letters, whose deletions agree
        for k, letter in enumerate(word):
            ones = word[:k].count(1)
            twist += self.b.chi((-1, 0) if letter == 1 else (0, -1), (ones, k - ones))
            if word[k + 1:k + 2] != (letter,):
                for tail, c in self.image(word[:k] + word[k + 1:]).items():
                    w = (letter,) + tail
                    out[w] = out.get(w, ZERO) + c * twist
                twist = ZERO
        return out

    def image_vectors(self, word: tuple[int, ...], words) -> dict:
        """Image of a word at the given words as coordinate lists at the
        braiding's conductor, zero coefficients dropped."""
        img = self.image(word)
        return {u: list(img[u]._lift(self.b.conductor)) for u in set(words)
                if u in img and img[u]}


@functools.lru_cache(maxsize=2)
def reference_images(b: Braiding) -> ReferenceImages:
    """The whole-word images of b, kept across calls."""
    return ReferenceImages(b)


def image_block_pivot_words(b: Braiding, n: int) -> dict:
    """The reference for the oracle's basis words through degree n, stopping
    at the first zero degree: each bidegree ranks the symmetrizer images of
    the candidates w.j at the columns R(w).j, for the basis words w of the
    two bidegrees below (`nicholscore` docstring, steps a-c)."""
    eng = _engine(b)
    known = {(0, 0): [()]}
    zero = (0,) * eng.deg
    for d in range(1, n + 1):
        for r in range(d + 1):
            cands, cols = [], []
            for j, below in ((1, (r - 1, d - r)), (2, (r, d - r - 1))):
                if min(below) >= 0:
                    cands += [w + (j,) for w in known[below]]
                    cols += [w[::-1] + (j,) for w in known[below]]
            rows = []
            for w in cands:
                img = word_image(b, w, cols)
                rows.append([img.get(u, zero) for u in cols])
            pivot_rows: list[int] = []
            exact_rank_vectors(rows, eng.conductor, pivot_rows=pivot_rows)
            known[(r, d - r)] = [cands[i] for i in pivot_rows]
        if not any(known[(r, d - r)] for r in range(d + 1)):
            break
    return known


def naive_rank(matrix) -> int:
    """Straightforward Gaussian elimination over the field, kept independent
    of the fraction-free implementation it cross-checks."""
    m = [row[:] for row in matrix]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if not m[r][c].is_zero()), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][c].inv()
        m[rank] = [v * inv for v in m[rank]]
        for r in range(rows):
            if r != rank and not m[r][c].is_zero():
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# -- scalar references ----------------------------------------------------------

# The node-scalar conditions as CycNum values: the references for the
# monomial order tests and the integer-row nu test of `admissibility`.

def qnum_vanishes(m: int, p: CycNum) -> bool:
    """Whether [m]_p = 0: [m]_1 = m, and otherwise [m]_p = (p^m - 1)/(p - 1)."""
    return m == 0 or (p != ONE and p ** m == ONE)


def lambda_closed(t: FullBinaryTree, b: Braiding, a: int, side: str) -> CycNum:
    """Closed form for lambda on the outer spines, in the branch length
    alone.  side "right" requires rgf(a) = RGH, side "left" lgf(a) = LGH.

    An inverted prefactor (q11 q12 q22)^-1 would contradict the recursion
    already at the root; the prefactor below is the one that agrees with
    lambda_of on every qualifying node.
    """
    prefactor = b.q11 * b.q12 * b.q22
    p_root = (b.q11 * b.q12 * b.q21 * b.q22).inv()
    if side == "right":
        if t.rgf(a) is not RGH:
            raise ScalarDomainError(f"node {a} is not on the right spine")
        m = t.lgfl(a)
        return prefactor * (p_root - b.q22.inv() * b.q11 ** (m - 2)) * qnum(m, b.q11.inv())
    if side == "left":
        if t.lgf(a) is not LGH:
            raise ScalarDomainError(f"node {a} is not on the left spine")
        m = t.rgfl(a)
        return prefactor * (p_root - b.q11.inv() * b.q22 ** (m - 2)) * qnum(m, b.q22.inv())
    raise ScalarDomainError(f"unknown side {side!r}")


def nu_of(t: FullBinaryTree, b: Braiding, a: int) -> CycNum:
    """Obstruction scalar at a node with a real left godfather and
    rgfl <= 2; raises NuDenominatorError when a q-integer denominator
    vanishes (which itself signals inadmissibility)."""
    c = t.lgf(a)
    if not isinstance(c, int):
        raise ScalarDomainError(f"nu undefined: lgf({a}) is virtual")
    k = t.rgfl(a)
    if k > 2:
        raise ScalarDomainError(f"nu undefined: rgfl({a}) = {k} > 2")
    f = t.rgf(c)
    p_c = p_of(t, b, c)
    p_f = p_of(t, b, f)
    two_f = qnum(2, p_f)
    two_c = qnum(2, p_c)
    if two_f.is_zero():
        raise NuDenominatorError(a, "[2]_{p_f}")
    if two_c.is_zero():
        raise NuDenominatorError(a, "[2]_{p_c}")
    if k == 1:
        return (b.chi_nodes(t, t.lgf(c), a).inv() - b.chi_nodes(t, a, t.lgf(c))
                + lambda_of(t, b, a) * lambda_of(t, b, c) * (two_f.inv() - two_c.inv()))
    three_c = qnum(3, p_c)
    if three_c.is_zero():
        raise NuDenominatorError(a, "[3]_{p_c}")
    rc = t.rch(c)
    return (b.chi_nodes(t, t.lgf(c), rc).inv()
            + lambda_of(t, b, c) * lambda_of(t, b, rc) * two_c.inv()
            * (two_f.inv() - three_c.inv()))


@pytest.fixture
def rng():
    return random.Random(20240811)
