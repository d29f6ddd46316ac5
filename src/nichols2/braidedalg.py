"""The free braided algebra over a rank-2 diagonal braiding.

The braiding is a 2x2 matrix of nonzero scalars q_ij.  Everything the group
action contributes to downstream computations factors through the bicharacter
chi on Z^2 x Z^2, so no group data is represented.  Multidegrees are pairs
(d1, d2) with d1 counting x1-letters; the bracket element of a tree node is
homogeneous with multidegree equal to the node's Stern-Brocot label.

Both zero tests run on integer data: an element's coefficients are lifted
once to the conductor n of the braiding and the coefficients, and cleared
of their denominators by one positive integer, which leaves zero zero.
Both read one operator, the skew derivation: a symmetrizer entry is an
iterated skew derivation (`_SymEngine`).  Each word of a skew derivation is
a sum of products of coordinate vectors, formed by Kronecker substitution
in digits one bit longer than (products per sum) phi(n) 2^(xbits + ybits),
for the bit lengths of the factors' largest coordinates
(`cyclotomic.kronecker_sums`).  The symmetrizer test reads the image only
at the reversed basis words of the rank oracle (`is_zero_in_nichols`),
never a whole image.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cyclotomic import (CycNum, MINUS_ONE, ONE, as_root_exponent, canonical_conductor,
                         clear_denominators, euler_phi, format_scalar, kronecker_sums,
                         root_of_unity, root_vectors)
from .fbtree import FullBinaryTree
from .lyndon import christoffel, is_lyndon, shirshow


class BraidedError(ValueError):
    pass


class Braiding:
    """Immutable 2x2 matrix (q_ij) of nonzero scalars; of_roots: all are roots of
    unity; conductor: that of the entries' field, where every chi value lies;
    _exps: (L, exponents) of the entries as powers of zeta_L, or where only q11,
    q12 q21 and q22 are roots of unity those of (q11, q12 q21, 1, q22), else None."""

    __slots__ = ("q11", "q12", "q21", "q22", "of_roots", "conductor", "_exps", "_hash")

    def __init__(self, q11: CycNum, q12: CycNum, q21: CycNum, q22: CycNum):
        entries = (q11, q12, q21, q22)
        for name, q in zip(("q11", "q12", "q21", "q22"), entries):
            if not isinstance(q, CycNum):
                raise BraidedError(f"{name} must be a CycNum")
            if q.is_zero():
                raise BraidedError(f"{name} must be nonzero")
        object.__setattr__(self, "q11", q11)
        object.__setattr__(self, "q12", q12)
        object.__setattr__(self, "q21", q21)
        object.__setattr__(self, "q22", q22)
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
            L, (d1, d2), (e1, e2) = self._exps[0], d, e
            return root_vectors(L, n)[self._exponent(d1 * e1, d1 * e2, d2 * e1, d2 * e2) % L]
        return self.chi(d, e)._lift(n)

    def chi_nodes(self, t: FullBinaryTree, a, b) -> CycNum:
        """chi evaluated on the labels of two extended nodes."""
        return self.chi(t.stern_brocot(a), t.stern_brocot(b))


class NCPoly:
    """Sparse noncommutative polynomial in x1, x2.

    Terms map words over the index alphabet {1, 2} to nonzero coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        clean = {w: c for w, c in terms.items() if not c.is_zero()}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("NCPoly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> NCPoly:
        return NCPoly({})

    @staticmethod
    def unit() -> NCPoly:
        return NCPoly({(): ONE})

    @staticmethod
    def generator(i: int) -> NCPoly:
        if i not in (1, 2):
            raise BraidedError("generator index must be 1 or 2")
        return NCPoly({(i,): ONE})

    @staticmethod
    def scalar(c: CycNum) -> NCPoly:
        return NCPoly({(): c})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: NCPoly) -> NCPoly:
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            out[w] = c if s is None else s + c
        return NCPoly(out)

    def __sub__(self, other: NCPoly) -> NCPoly:
        return self + (-other)

    def __neg__(self) -> NCPoly:
        return NCPoly({w: -c for w, c in self.terms.items()})

    def __mul__(self, other) -> NCPoly:
        if isinstance(other, NCPoly):
            out: dict = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    c = c1 * c2
                    s = out.get(w)
                    out[w] = c if s is None else s + c
            return NCPoly(out)
        return self.scale(other)

    def __rmul__(self, other) -> NCPoly:
        return self.scale(other)

    def scale(self, c) -> NCPoly:
        if not c:
            return NCPoly.zero()
        return NCPoly({w: v * c for w, v in self.terms.items()})

    def __pow__(self, e: int) -> NCPoly:
        if e < 0:
            raise BraidedError("negative power of a polynomial")
        out = NCPoly.unit()
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- grading --------------------------------------------------------------

    def multidegree(self) -> tuple[int, int] | None:
        """(x1-degree, x2-degree) if homogeneous, else None; zero counts as (0, 0)."""
        degs = {(w.count(1), w.count(2)) for w in self.terms}
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


def tau0(t: FullBinaryTree, b: Braiding, a) -> NCPoly:
    """Iterated q-commutator of an extended node: the bracket of the Lyndon word of
    its label (`lyndon.christoffel`), so x2 at LGH, x1 at RGH, and otherwise
    tau0(rgf a) tau0(lgf a) - chi(rgf a, lgf a) tau0(lgf a) tau0(rgf a)."""
    return bracket_word(b, christoffel(*t.stern_brocot(a)))


def bracket_word(b: Braiding, u: str) -> NCPoly:
    """Bracket element of a Lyndon word: single letters map to the generators
    (a -> x2, b -> x1) and u = vw splits by the standard decomposition into
    [w][v] - chi(deg w, deg v) [v][w].  Values are kept in one word table,
    which holds the braiding in hand."""
    table = _bracket_table(b)
    el = table.get(u)
    if el is None:
        if len(u) == 0 or not is_lyndon(u):
            raise BraidedError(f"{u!r} is not a Lyndon word")
        v, w = shirshow(u)
        pv = bracket_word(b, v)
        pw = bracket_word(b, w)
        dv, dw = ((x.count("b"), x.count("a")) for x in (v, w))
        el = table[u] = pw * pv - b.chi(dw, dv) * (pv * pw)
    return el


@lru_cache(maxsize=1)
def _bracket_table(b: Braiding) -> dict:
    return {"a": NCPoly.generator(2), "b": NCPoly.generator(1)}


# -- quantum symmetrizer ------------------------------------------------------


class _SymEngine:
    """Per-braiding workspace of the rank oracle and of symmetrizer entries.

    The coefficient S(v)_u of a word u = u_1...u_m in the symmetrizer image
    of a word v is the scalar

        S(v)_u = d_{u_m} ... d_{u_1}(v),

    d_{u_1} applied first, for the skew derivations d_i of
    `skew_derivation`.  Proof: the first-letter expansion of the symmetrizer
    is S(v)_u = sum over k with v_k = u_1 of chi(e_{u_1}, deg v[:k])^-1
    S(v without letter k)_{u_2...u_m}, that is S(d_{u_1}(v))_{u_2...u_m}
    by linearity; induct on m.  Every entry of a root braiding is a power
    of one root of unity, so each twist has integer coordinates and
    `skew_derivation` scales by nothing: the entries are exact.

    pivot_words maps each bidegree the rank oracle has reached to words
    whose classes form a basis of that graded piece, and frontier each
    bidegree of the highest degree reached to its derivative rows and
    candidates' table (`nicholscore._Ranked`, filled by `dim_at_degree`).
    """

    def __init__(self, b: Braiding):
        if not b.of_roots:
            raise BraidedError("the rank oracle needs a braiding whose entries are "
                               f"roots of unity, got {b!r}")
        self.b = b
        self.conductor = b.conductor
        self.deg = euler_phi(self.conductor)
        # No image is cached; both stay empty for readers that count cached
        # entries (the benchmark's image_cache_entries).
        self.cache: dict = {}
        self._vec_cache: dict = {}
        self.pivot_words: dict[tuple[int, int], list[tuple[int, ...]]] = {(0, 0): [()]}
        self.frontier: dict = {}

    def image_vectors(self, terms: dict, n: int, words) -> dict:
        """Symmetrizer image, at the given words, of a polynomial given as
        word -> integer coordinate vector at conductor n, where
        self.conductor divides n: word -> coordinate list at each given
        word of the terms' bidegrees where the image is nonzero.

        Per bidegree, the words are walked in prefix order: the terms are
        derived once per distinct next letter (class docstring), a branch
        whose derivative is zero is dropped, and at depth m the scalar left
        is the entry.  A degree-0 scalar reads its own column ()."""
        out = {}

        def walk(poly, cols, k):
            if k == len(cols[0]):
                out[cols[0]] = list(poly[()])
                return
            for i in (1, 2):
                below = [u for u in cols if u[k] == i]
                if below and (d := skew_derivation(self.b, i, poly, n)):
                    walk(d, below, k + 1)

        words = set(words)
        for r, m in {(w.count(1), len(w)) for w in terms}:
            cols = [u for u in words if len(u) == m and u.count(1) == r]
            if cols:
                walk({w: v for w, v in terms.items() if len(w) == m and w.count(1) == r},
                     cols, 0)
        return out


_ENGINES: dict[Braiding, _SymEngine] = {}


def _engine(b: Braiding) -> _SymEngine:
    # One engine is kept, that of the braiding in hand: a new one frees the last.
    eng = _ENGINES.get(b)
    if eng is None:
        _ENGINES.clear()
        eng = _ENGINES[b] = _SymEngine(b)
    return eng


def _conductor(b: Braiding, rho: NCPoly) -> int:
    """The canonical conductor of the braiding's entries and rho's coefficients."""
    return canonical_conductor(math.lcm(b.conductor, *(c.conductor for c in rho.terms.values())))


def _integer_terms(rho: NCPoly, n: int) -> tuple[dict, int]:
    """`clear_denominators` of the coefficients of rho lifted to conductor n."""
    return clear_denominators({w: c._lift(n) for w, c in rho.terms.items()})


# -- skew derivations ----------------------------------------------------------


def skew_derivation(b: Braiding, i: int, terms: dict, n: int) -> dict:
    """The twisted letter-deleting operator <y_i, .> on word -> integer
    coordinate vector at conductor n, up to a positive integer factor, zero
    coefficients dropped.  Deleting letter k of w twists by
    chi(e_i, deg w[:k])^-1 (`Braiding.chi_at`), and all the twists are
    scaled by the least positive integer that clears their denominators.
    At most m products land on a word of length m - 1, one per position of
    the deleted letter; their sum is formed by `kronecker_sums`."""
    minus_ei = (-1, 0) if i == 1 else (0, -1)
    moves, twists = [], {}
    for w in terms:
        ones = 0  # letters 1 in w[:k]
        for k, letter in enumerate(w):
            if letter == i:
                d = (ones, k - ones)
                if d not in twists:
                    twists[d] = b.chi_at(minus_ei, d, n)
                moves.append((w[:k] + w[k + 1:], w, d))
            ones += letter == 1
    sums = kronecker_sums(n, terms, clear_denominators(twists)[0], moves, max(map(len, terms)))
    return {u: vec for u, vec in sums.items() if any(vec)}


def _derivations_vanish(b: Braiding, terms: dict, n: int) -> bool:
    """The derivation zero test of word -> nonzero integer vector at conductor n."""
    if not terms or () in terms:
        return not terms  # zero, or a nonzero scalar
    return all(_derivations_vanish(b, skew_derivation(b, i, terms, n), n) for i in (1, 2))


def is_zero_in_nichols(b: Braiding, rho: NCPoly, method: str = "symmetrizer") -> bool:
    """Whether a homogeneous element maps to zero in the braided quotient.

    method "symmetrizer": the image of rho under the degree-m symmetrizer
    is zero.  It is a combination of rows of the symmetrizer, so it is zero
    when it vanishes on columns that span the column space, and the columns
    at the reversed basis words of each bidegree of rho do (`nicholscore`
    docstring, steps b and c).  So the image is read at those words only,
    and the rank oracle is first run through degree m (`dim_at_degree`).
    A degree above the first zero degree has no basis words, and every
    element of it is zero.  method "derivations": recursively, both skew
    derivations vanish (a degree-0 element is zero iff its scalar is).
    Both decide exactly on integers: the coefficients are lifted once, to
    the conductor of the braiding and the coefficients, and cleared of
    their denominators by one positive integer.
    """
    if rho.is_zero():
        return True
    degrees = {len(w) for w in rho.terms}
    if len(degrees) > 1:
        raise BraidedError("zero test requires a polynomial homogeneous in total degree")
    n = _conductor(b, rho)
    terms = _integer_terms(rho, n)[0]
    if method == "symmetrizer":
        # Imported here, as `nicholscore` imports this module.
        from .nicholscore import dim_at_degree
        dim_at_degree(b, degrees.pop())
        eng = _engine(b)
        cols = [w[::-1] for bideg in {(w.count(1), w.count(2)) for w in terms}
                for w in eng.pivot_words.get(bideg, ())]
        return not eng.image_vectors(terms, n, cols)
    if method == "derivations":
        return _derivations_vanish(b, terms, n)
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
    """Drop the bracket table and the symmetrizer engine, each of the braiding
    in hand (test hygiene, and room to report running out of memory)."""
    _bracket_table.cache_clear()
    _ENGINES.clear()
