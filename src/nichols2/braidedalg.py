"""The free braided algebra over a rank-2 diagonal braiding.

The braiding is a 2x2 matrix of nonzero scalars q_ij.  Everything the group
action contributes to downstream computations factors through the bicharacter
chi on Z^2 x Z^2, so no group data is represented.  Multidegrees are pairs
(d1, d2) with d1 counting x1-letters; the bracket element of a tree node is
homogeneous with multidegree equal to the node's Stern-Brocot label.

A polynomial holds integer coordinates at one conductor over its least
positive denominator (`NCPoly`), and is added and multiplied by one
routine, `_expand`, which forms every sum of products in one residue ring
(`cyclotomic.Residues`).  Both zero tests run on that integer data, lifted
where needed to the conductor n of the braiding and the coefficients.
Both read one walk of iterated skew derivations (`_derivatives_along`),
whose scalars are the symmetrizer entries: the derivation test at every
word, the symmetrizer test at the reversed basis words of the rank oracle
only, never a whole image.  The walk carries each coefficient as one integer, its image under
z -> 2^W mod Phi_n(2^W) (`cyclotomic.Residues`), for W from the walk's
coordinate bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .cyclotomic import (CycNum, MINUS_ONE, ONE, Residues, _coerce, _substitute,
                         as_root_exponent, canonical_conductor, clear_denominators, euler_phi,
                         format_scalar, root_of_unity, root_power, root_vectors, shift_gain)
from .fbtree import SHAPES, FullBinaryTree
from .lyndon import christoffel, is_lyndon, shirshow


_set = object.__setattr__


class BraidedError(ValueError):
    pass


class Braiding:
    """Immutable 2x2 matrix (q_ij) of nonzero scalars; of_roots: all are roots of
    unity; conductor: that of the entries' field, where every chi value lies;
    _exps: (L, exponents) of the entries as powers of zeta_L, or where only q11,
    q12 q21 and q22 are roots of unity those of (q11, q12 q21, 1, q22), else None.
    `monomial_order` reads them for every root-of-unity condition of
    admissibility and of the 22 families."""

    __slots__ = ("q11", "q12", "q21", "q22", "of_roots", "conductor", "_exps", "_hash")

    def __init__(self, q11: CycNum, q12: CycNum, q21: CycNum, q22: CycNum):
        entries = (q11, q12, q21, q22)
        for name, q in zip(("q11", "q12", "q21", "q22"), entries):
            if not isinstance(q, CycNum):
                raise BraidedError(f"{name} must be a CycNum")
            if q.is_zero():
                raise BraidedError(f"{name} must be nonzero")
            object.__setattr__(self, name, q)
        of_roots, exps = self._find_exponents()
        object.__setattr__(self, "of_roots", of_roots)
        object.__setattr__(self, "conductor", canonical_conductor(
            exps[0] if of_roots else math.lcm(*(q.conductor for q in entries))))
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "_hash", hash(entries))

    def __setattr__(self, *args):
        raise AttributeError("Braiding is immutable")

    def _find_exponents(self):
        # When all entries are roots of unity they generate a cyclic group
        # of order L; a bicharacter value is then a single power of zeta_L,
        # one cached root_of_unity.  Exponents are found at each entry's own
        # (small) order and rescaled.  Otherwise, where q11, q12 q21 and q22
        # are roots, they are those of (q11, q12 q21, 1, q22): the same
        # chi(a, a) for all a, the same conditions, and chi a power of
        # zeta_L times one power of q12.
        roots = [as_root_exponent(q) for q in self.entries()]
        of_roots = None not in roots
        if not of_roots:
            roots = [as_root_exponent(q) for q in (self.q11, self.q12 * self.q21, ONE, self.q22)]
            if None in roots:
                return False, None
        L = math.lcm(2, *(o for _, o in roots))
        return of_roots, (L, tuple(e * (L // o) % L for e, o in roots))

    def _exponent(self, k11: int, k12: int, k21: int, k22: int) -> int:
        """The e with q11^k11 q12^k12 q21^k21 q22^k22 = zeta_L^e, (L, _) = self._exps
        (not None); where only q11, q12 q21 and q22 are roots, for k12 = k21."""
        a11, a12, a21, a22 = self._exps[1]
        return a11 * k11 + a12 * k12 + a21 * k21 + a22 * k22

    def monomial_order(self, i: int, j: int, k: int) -> int | None:
        """The order of q11^i (q12 q21)^j q22^k, None if it is not a root of
        unity: exponent arithmetic where `_exps` has the three as powers of
        one zeta_L, the scalar otherwise."""
        if self._exps is None:
            return (self.q11 ** i * (self.q12 * self.q21) ** j * self.q22 ** k).order()
        L, (a11, a12, a21, a22) = self._exps
        return L // math.gcd(a11 * i + (a12 + a21) * j + a22 * k, L)

    def entries(self) -> tuple[CycNum, CycNum, CycNum, CycNum]:
        return (self.q11, self.q12, self.q21, self.q22)

    def __eq__(self, other):
        if not isinstance(other, Braiding):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Braiding({self.q11}, {self.q12}, {self.q21}, {self.q22})"

    def chi(self, d: tuple[int, int], e: tuple[int, int]) -> CycNum:
        """chi(d, e) = q11^(d1 e1) q12^(d1 e2) q21^(d2 e1) q22^(d2 e2).

        Where q11, q12 q21 and q22 are roots of unity, q21 = (q12 q21) q12^-1
        makes it the diagram's zeta_L^x, x = _exponent(d1 e1, d2 e1, d2 e1,
        d2 e2), times q12^(d1 e2 - d2 e1); where all four are roots, one
        power of zeta_L.  Otherwise it is the product of the four powers."""
        d1, d2 = d
        e1, e2 = e
        if self.of_roots:
            return root_of_unity(self._exponent(d1 * e1, d1 * e2, d2 * e1, d2 * e2), self._exps[0])
        if self._exps is None:
            return (self.q11 ** (d1 * e1) * self.q12 ** (d1 * e2)
                    * self.q21 ** (d2 * e1) * self.q22 ** (d2 * e2))
        return (root_of_unity(self._exponent(d1 * e1, d2 * e1, d2 * e1, d2 * e2), self._exps[0])
                * self.q12 ** (d1 * e2 - d2 * e1))

    def chi_at(self, d: tuple[int, int], e: tuple[int, int], n: int) -> tuple:
        """Coordinates of chi(d, e) at the canonical conductor n, which every
        entry's conductor divides.  For entries that are roots of unity the
        value is read by its exponent from the table `root_vectors`."""
        if self.of_roots:
            (L, (a11, a12, a21, a22)), (d1, d2), (e1, e2) = self._exps, d, e
            return root_vectors(L, n)[((a11 * e1 + a12 * e2) * d1 + (a21 * e1 + a22 * e2) * d2) % L]
        return self.chi(d, e)._lift(n)

    def chi_nodes(self, t: FullBinaryTree, a, b) -> CycNum:
        """chi evaluated on the labels of two extended nodes."""
        return self.chi(t.stern_brocot(a), t.stern_brocot(b))


class NCPoly:
    """Sparse noncommutative polynomial in x1, x2 over Q(zeta_n), held on
    integer coordinates: coords maps words over the index alphabet {1, 2} to
    nonzero integer coordinate vectors at the canonical conductor n
    (`conductor`), and a word's coefficient is its vector over den, the least
    positive integer that clears every coefficient.  The constructor takes a
    dict word -> CycNum and converts it once; `terms`, word -> CycNum, is
    built only when read, for formatting and tests.  Sums and products are
    formed by one routine, `_expand`.
    """

    __slots__ = ("conductor", "coords", "den", "_terms", "_shape")

    def __init__(self, terms: dict):
        n = canonical_conductor(math.lcm(*(c.conductor for c in terms.values())))
        self._hold(n, *clear_denominators({w: c._lift(n) for w, c in terms.items() if c}))

    def _hold(self, n: int, coords: dict, den: int) -> NCPoly:
        _set(self, "conductor", n)
        _set(self, "coords", coords)
        _set(self, "den", den)
        _set(self, "_terms", None)
        _set(self, "_shape", None)
        return self

    @classmethod
    def _of(cls, n: int, coords: dict, den: int = 1) -> NCPoly:
        """The polynomial of coordinates already at conductor n, over den."""
        return object.__new__(cls)._hold(n, coords, den)

    def __setattr__(self, *args):
        raise AttributeError("NCPoly is immutable")

    @property
    def terms(self) -> dict:
        """word -> nonzero CycNum coefficient, built at the first read."""
        if self._terms is None:
            n, den = self.conductor, self.den
            _set(self, "_terms", {w: CycNum(n, vec if den == 1 else [Fraction(x, den) for x in vec])
                                  for w, vec in self.coords.items()})
        return self._terms

    def _lifted(self, n: int) -> dict:
        """coords lifted to the conductor n, a multiple of this one's: the
        coordinates at n times den, which stays the least that clears them,
        as Z[zeta_n] meets Q(zeta_m) in Z[zeta_m] and both power bases are
        integral bases.  The dict is shared, not to be changed."""
        if n == self.conductor:
            return self.coords
        k = n // self.conductor
        return {w: _substitute(vec, k, n) for w, vec in self.coords.items()}

    def _factor(self, n: int) -> tuple[dict, int, int]:
        """(coords at the conductor n, the number of distinct word lengths,
        the largest |coordinate|), kept at this one's conductor."""
        if n == self.conductor and self._shape is not None:
            return self._shape
        coords = self._lifted(n)
        shape = (coords, len({len(w) for w in coords}),
                 max((abs(x) for vec in coords.values() for x in vec), default=0))
        if n == self.conductor:
            _set(self, "_shape", shape)
        return shape

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> NCPoly:
        return NCPoly._of(1, {})

    @staticmethod
    def unit() -> NCPoly:
        return NCPoly._of(1, {(): (1,)})

    @staticmethod
    def generator(i: int) -> NCPoly:
        if i not in (1, 2):
            raise BraidedError("generator index must be 1 or 2")
        return NCPoly._of(1, {(i,): (1,)})

    @staticmethod
    def scalar(c: CycNum) -> NCPoly:
        return NCPoly({(): c})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: NCPoly) -> NCPoly:
        return _expand(((self,), (other,)))

    def __sub__(self, other: NCPoly) -> NCPoly:
        return _expand(((self,), (-other,)))

    def __neg__(self) -> NCPoly:
        return NCPoly._of(self.conductor, {w: tuple(-x for x in vec)
                                           for w, vec in self.coords.items()}, self.den)

    def __mul__(self, other) -> NCPoly:
        if isinstance(other, NCPoly):
            return _expand(((self, other),))
        return self.scale(other) if isinstance(other, (CycNum, int, Fraction)) else NotImplemented

    def __rmul__(self, other) -> NCPoly:
        return self.scale(other) if isinstance(other, (CycNum, int, Fraction)) else NotImplemented

    def scale(self, c) -> NCPoly:
        """self times the scalar c, a CycNum, int or Fraction."""
        return _expand(((self, NCPoly({(): _coerce(c)})),))

    def __pow__(self, e: int) -> NCPoly:
        if e < 0:
            raise BraidedError("negative power of a polynomial")
        return _expand(((self,) * e,))

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        if self.den != other.den or self.coords.keys() != other.coords.keys():
            return False
        n = canonical_conductor(math.lcm(self.conductor, other.conductor))
        return self._lifted(n) == other._lifted(n)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.coords

    # -- grading --------------------------------------------------------------

    def multidegree(self) -> tuple[int, int] | None:
        """(x1-degree, x2-degree) if homogeneous, else None; zero counts as (0, 0)."""
        degs = {(w.count(1), w.count(2)) for w in self.coords}
        if not degs:
            return (0, 0)
        if len(degs) > 1:
            return None
        return degs.pop()

    def total_degree(self) -> int | None:
        d = self.multidegree()
        return None if d is None else d[0] + d[1]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __repr__(self):
        return f"NCPoly({format_ncpoly(self)!r})"


def _coefficient(n: int, vec, den: int = 1) -> NCPoly:
    """The degree-0 polynomial vec / den at conductor n, for a nonzero
    coordinate vector vec and den > 0.  Where q12 and q21 are not roots of
    unity, the chi and mu that callers pass hold Fraction coordinates."""
    if den == 1 and all(type(x) is int for x in vec):
        return NCPoly._of(n, {(): tuple(vec)})
    coords, d = clear_denominators({(): vec})
    vec, den = coords[()], den * d
    g = math.gcd(den, *vec)
    return NCPoly._of(n, {(): tuple(x // g for x in vec)}, den // g)


def _expand(sums) -> NCPoly:
    """sum_s prod_i f_si over sums, tuples of NCPoly factors, each product
    taken in the order given (the empty one is 1): the one routine in which
    polynomials are added and multiplied.

    Factor f_si holds integer coordinates F_si, lifted to the common
    conductor n, over its denominator d_si.  With D_s = prod_i d_si and D the
    lcm of the D_s, the value is N / D for N = sum_s (D / D_s) prod_i F_si.
    Every term of N is formed in one ring `cyclotomic.Residues`, each factor
    packed once, and decoded once; N / D is then reduced to the least
    positive denominator, D / gcd(D, every coordinate of N).

    The ring is exact on the coordinates of N once its bound is B = sum_s
    (D / D_s) P_s (g phi)^(k_s - 1) prod_i |F_si|_inf over the products of
    k_s factors, g = `cyclotomic.shift_gain`(n): a product of vectors has
    |x y|_inf <= sum_e |x_e| |z^e y|_inf <= g phi |x|_inf |y|_inf, and a
    word w is the concatenation u_1 ... u_k, u_i a word of f_si, in at most
    P_s = prod_{i<k} l_i ways, l_i the number of distinct word lengths in
    f_si (1 where it is homogeneous), as the lengths of u_1 ... u_(k-1) fix
    u_k.  Where P_s = 1 no word arises twice in the product."""
    n = 1
    for fs in sums:
        for f in fs:
            if n % f.conductor:
                n = canonical_conductor(math.lcm(n, f.conductor))
    gain, plan = shift_gain(n) * euler_phi(n), []
    for fs in sums:
        d, top, splits, lengths = 1, 1, 1, 1
        for f in fs:
            splits *= lengths
            _, lengths, inf = f._factor(n)
            d, top = d * f.den, top * inf
        if top:  # else a factor, and the product, is zero
            plan.append((fs, d, splits, splits * top * gain ** (len(fs) - 1) if fs else 1))
    den = math.lcm(*(d for _, d, _, _ in plan))
    ring = Residues(n, sum(den // d * bound for _, d, _, bound in plan))
    m, pack, total, packed = ring.modulus, ring.pack, {}, {}
    for fs, d, splits, _ in plan:
        for f in fs:
            if id(f) not in packed:
                packed[id(f)] = {w: pack(vec) for w, vec in f._factor(n)[0].items()}
        acc = packed[id(fs[0])] if fs else {(): 1}
        for i, f in enumerate(fs[1:], 1):
            if i > 1:  # a partial product is reduced mod M
                acc = {w: x % m for w, x in acc.items()}
            right = packed[id(f)]
            if splits == 1:
                acc = {u + v: r * s for u, r in acc.items() for v, s in right.items()}
                continue
            step: dict = {}
            for u, r in acc.items():
                for v, s in right.items():
                    step[u + v] = step.get(u + v, 0) + r * s
            acc = step
        if not total and den == d and len(fs) > 1:  # acc is built here
            total = acc
            continue
        for w, x in acc.items():
            total[w] = total.get(w, 0) + den // d * x
    coords = {w: tuple(ring.decode(r)) for w, x in total.items() if (r := x % m)}
    if den > 1 and (g := math.gcd(den, *chain.from_iterable(coords.values()))) > 1:
        coords, den = {w: tuple(x // g for x in vec) for w, vec in coords.items()}, den // g
    return NCPoly._of(n, coords, den)


def tau0(t: FullBinaryTree, b: Braiding, a) -> NCPoly:
    """Iterated q-commutator of an extended node: the bracket of the Lyndon word of
    its label (`lyndon.christoffel`), so x2 at LGH, x1 at RGH, and otherwise
    tau0(rgf a) tau0(lgf a) - chi(rgf a, lgf a) tau0(lgf a) tau0(rgf a)."""
    return bracket_word(b, christoffel(*t.stern_brocot(a)))


def bracket_word(b: Braiding, u: str) -> NCPoly:
    """Bracket element of a Lyndon word: single letters map to the generators
    (a -> x2, b -> x1) and u = vw splits by the standard decomposition into
    [w][v] - chi(deg w, deg v) [v][w], one `_expand` on integer coordinates
    at the braiding's conductor, chi read by `Braiding.chi_at`.  Values are
    kept in the word table of the braiding's context (`_engine`)."""
    table = _engine(b).brackets
    el = table.get(u)
    if el is None:
        if len(u) == 0 or not is_lyndon(u):
            raise BraidedError(f"{u!r} is not a Lyndon word")
        v, w = shirshow(u)
        pv = bracket_word(b, v)
        pw = bracket_word(b, w)
        dv, dw = ((x.count("b"), x.count("a")) for x in (v, w))
        chi = _coefficient(b.conductor, [-x for x in b.chi_at(dw, dv, b.conductor)])
        el = table[u] = _expand(((pw, pv), (chi, pv, pw)))
    return el


# -- quantum symmetrizer ------------------------------------------------------


class _SymEngine:
    """The context of the braiding in hand (`_engine`): every table read from
    it, or from it and one tree.  pivot_words maps each bidegree the rank
    oracle has reached to words whose classes form a basis of that graded
    piece, and frontier each bidegree of the highest degree reached to its
    derivative rows and candidates' table (`nicholscore._Ranked`, filled by
    `dim_at_degree`).  brackets maps Lyndon words to their elements
    (`bracket_word`), and the per-tree part holds the heights and lambdas
    of `tree` (`admissibility`), None until read or grown."""

    def __init__(self, b: Braiding):
        self.b = b
        self.conductor = b.conductor
        self.deg = euler_phi(self.conductor)
        # No image is cached; both stay empty for readers that count cached
        # entries (the benchmark's image_cache_entries).
        self.cache: dict = {}
        self._vec_cache: dict = {}
        self.pivot_words: dict[tuple[int, int], list[tuple[int, ...]]] = {(0, 0): [()]}
        self.frontier: dict = {}
        one = (1,) + (0,) * (self.deg - 1)  # the letters at the braiding's conductor
        self.brackets = {"a": NCPoly._of(self.conductor, {(2,): one}),
                         "b": NCPoly._of(self.conductor, {(1,): one})}
        self.tree = self.heights = self.lambdas = None

    def on_tree(self, t: FullBinaryTree) -> _SymEngine:
        """self, its per-tree part on t: a new tree frees the last one's tables."""
        if t is not self.tree and t != self.tree:
            self.tree, self.heights, self.lambdas = t, None, None
        return self

    def image_vectors(self, terms: dict, n: int, words) -> dict:
        """The symmetrizer image at the given words of a nonzero element
        homogeneous in total degree, word -> integer vector at conductor n, a
        multiple of self.conductor: word -> coordinate list where nonzero."""
        return dict(_derivatives_along(self.b, terms, n, words))


_ENGINES: dict[Braiding, _SymEngine] = {}


def _engine(b: Braiding) -> _SymEngine:
    # One context is kept, that of the braiding in hand: a new one frees the last.
    eng = _ENGINES.get(b)
    if eng is None:
        _ENGINES.clear()
        eng = _ENGINES[b] = _SymEngine(b)
    return eng


# -- skew derivations ----------------------------------------------------------


def skew_derivation(b: Braiding, i: int, terms: dict, ring: Residues, twists: dict) -> dict:
    """The twisted letter-deleting operator <y_i, .>, times the walk's D > 0,
    on word -> residue in the walk's ring, zero coefficients dropped:
    deleting letter k of w moves its residue times that of D chi(e_i,
    deg w[:k])^-1, t X^e, twists[(i, a, c)] = (t, e) at deg w[:k] = (a, c)
    (D = 1 and t = +-1 for roots, filled here), and a word's at most m
    moves are reduced mod M once."""
    width, sums = ring.width, {}
    for w, c in terms.items():
        ones = 0  # letters 1 in w[:k]
        for k, letter in enumerate(w):
            if letter == i:
                if (d := (i, ones, k - ones)) not in twists:  # roots: chi(-e_i, d) = +-z^e
                    x = (b._exponent(-ones, ones - k, 0, 0) if i == 1
                         else b._exponent(0, 0, -ones, ones - k))
                    twists[d] = root_power(x % b._exps[0], b._exps[0], ring.n)
                t, e = twists[d]
                u = w[:k] + w[k + 1:]
                sums[u] = sums.get(u, 0) + (c * t << width * e)
            ones += letter == 1
    m = ring.modulus
    return {u: r for u, x in sums.items() if (r := x % m)}


def _derivatives_along(b: Braiding, terms: dict, n: int, words=None):
    """Yield (u, d_{u_m} ... d_{u_1}(terms)) as a coordinate list, d_{u_1}
    first, for each word u (every word if None) where that scalar is
    nonzero, d_i of `skew_derivation`, on an element homogeneous in total
    degree m given as word -> nonzero integer vector at conductor n.  Words
    are walked in prefix order, a branch derived once per next letter and
    dropped where zero; a degree-0 element reads its own word () only.

    The scalar is the symmetrizer entry S(v)_u, summed over the terms v:
    S(v)_u = sum over k with v_k = u_1 of chi(e_{u_1}, deg v[:k])^-1
    S(v without letter k)_{u_2...u_m}, that is S(d_{u_1}(v))_{u_2...u_m}
    by linearity; induct on m.  For a root braiding D = 1, so the entries
    are exact; otherwise each derivation scales by D > 0.

    Each coefficient is carried as its residue in the ring
    `cyclotomic.Residues`, and only the scalars yielded are decoded; the
    ring is exact on every coordinate the walk forms once its bound B is.
    A level of words of length l puts at most l moves on a word, one per
    position of the deleted letter, and a move by a twist t = sum_e t_e z^e
    (e < n) has |t y|_inf <= sum_e |t_e| |z^e y|_inf <= tau g |y|_inf, for
    g = `cyclotomic.shift_gain`(n), the most |z^e y|_inf / |y|_inf, and tau
    the largest |t|_1 (1 for +-z^e).  So B = B_0 m! (tau g)^m for the input
    bound B_0."""
    twists, tau, m = {}, 1, max(map(len, terms), default=0)
    if not b.of_roots:  # at every prefix degree a walk meets, as its words only lose letters
        r, s = (max(w.count(j) for w in terms) + 1 for j in (1, 2))
        twists = clear_denominators({(i, a, c): b.chi_at((i - 2, 1 - i), (a, c), n)
                                     for i in (1, 2) for a in range(r) for c in range(s)})[0]
        tau = max(sum(map(abs, vec)) for vec in twists.values())
    bound = max(map(abs, chain.from_iterable(terms.values())), default=0) * math.factorial(m)
    ring = Residues(n, bound * (tau * shift_gain(n)) ** m)
    twists = {key: (ring.pack(vec) % ring.modulus, 0) for key, vec in twists.items()}

    def walk(terms, words):
        if () in terms:
            if words is None or () in words:
                yield (), terms[()]
            return
        for i in (1, 2):
            tails = None if words is None else [u[1:] for u in words if u and u[0] == i]
            if tails != [] and (d := skew_derivation(b, i, terms, ring, twists)):
                for u, v in walk(d, tails):
                    yield (i,) + u, v

    for u, r in walk({w: ring.pack(vec) for w, vec in terms.items()}, words):
        yield u, ring.decode(r)


def is_zero_in_nichols(b: Braiding, rho: NCPoly, method: str = "symmetrizer") -> bool:
    """Whether a homogeneous element maps to zero in the braided quotient.

    method "symmetrizer": the image of rho under the degree-m symmetrizer
    is zero.  It is a combination of rows of the symmetrizer, so it is zero
    when it vanishes on columns that span the column space, and the columns
    at the reversed basis words of each bidegree of rho do (`nicholscore`
    docstring, steps b and c).  So the image is read at those words only,
    and the rank oracle is first run through degree m (`dim_at_degree`).
    A degree above the first zero degree has no basis words, and every
    element of it is zero.  method "derivations": every iterated skew
    derivation vanishes, that is the symmetrizer image read at every word
    (`_derivatives_along`); it takes any nonzero entries, as the bicharacter
    does, where the symmetrizer test needs roots of unity.  Both decide
    exactly, on integers (module docstring).
    """
    if rho.is_zero():
        return True
    degrees = {len(w) for w in rho.coords}
    if len(degrees) > 1:
        raise BraidedError("zero test requires a polynomial homogeneous in total degree")
    n = canonical_conductor(math.lcm(b.conductor, rho.conductor))
    terms = rho._lifted(n)
    if method == "symmetrizer":
        # Imported here, as `nicholscore` imports this module.
        from .nicholscore import dim_at_degree
        dim_at_degree(b, degrees.pop())
        eng = _engine(b)
        cols = [w[::-1] for bideg in {(w.count(1), w.count(2)) for w in terms}
                for w in eng.pivot_words.get(bideg, ())]
        return not eng.image_vectors(terms, n, cols)
    if method == "derivations":
        return next(_derivatives_along(b, terms, n), None) is None
    raise BraidedError(f"unknown method {method!r}")


# -- serialization -------------------------------------------------------------


def _format_coeff(c: CycNum) -> tuple[str, str]:
    """(sign, body) where body is empty for coefficient magnitude one."""
    if c == ONE:
        return "+", ""
    if c == MINUS_ONE:
        return "-", ""
    pos = as_root_exponent(c)
    neg = as_root_exponent(-c)
    if pos is not None:
        # Prefer the sign that yields the smaller (conductor, exponent).
        if (neg[1], neg[0]) < (pos[1], pos[0]):
            return "-", f"({neg[0]}/{neg[1]})"
        return "+", f"({pos[0]}/{pos[1]})"
    return "+", f"({format_scalar(c)})"


def format_ncpoly(p: NCPoly) -> str:
    """Human-diffable text: sums of coefficient-tagged words."""
    if p.is_zero():
        return "0"
    chunks = []
    for word, c in p.sorted_terms():
        sign, body = _format_coeff(c)
        mono = " ".join(f"x{i}" for i in word) or "1"
        text = f"{body} {mono}".strip()
        if not chunks:
            chunks.append(text if sign == "+" else f"-{text}")
        else:
            chunks.append(f"{'+' if sign == '+' else '-'} {text}")
    return " ".join(chunks)


def clear_caches():
    """Free the context of the braiding in hand, every table in it, and the
    grown trees `fbtree.SHAPES` (test hygiene, room to report out of memory)."""
    _ENGINES.clear()
    SHAPES.clear()
