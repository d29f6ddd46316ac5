"""The free braided algebra over a rank-2 diagonal braiding.

The braiding is a 2x2 matrix of nonzero scalars q_ij.  Everything the group
action contributes to downstream computations factors through the bicharacter
chi on Z^2 x Z^2, so no group data is represented.  Multidegrees are pairs
(d1, d2) with d1 counting x1-letters; the bracket element of a tree node is
homogeneous with multidegree equal to the node's Stern-Brocot label.

Both zero tests run on integer data: an element's coefficients are lifted
once to the conductor n of the braiding and the coefficients, and cleared
of their denominators by one positive integer, which leaves zero zero.
Each word of a symmetrizer image or a skew derivation is a sum of products
of coordinate vectors, formed by Kronecker substitution in digits one bit
longer than (products per sum) phi(n) 2^(xbits + ybits), for the bit
lengths of the factors' largest coordinates (`cyclotomic.kronecker_sums`).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .cyclotomic import (CycNum, ONE, as_root_exponent, canonical_conductor, clear_denominators,
                         euler_phi, kronecker_sums, root_of_unity, root_vectors)
from .fbtree import LGH, RGH, FullBinaryTree
from .lyndon import is_lyndon, shirshow


class BraidedError(ValueError):
    pass


class Braiding:
    """Immutable 2x2 matrix (q_ij) of nonzero scalars; of_roots: all are roots of unity."""

    __slots__ = ("q11", "q12", "q21", "q22", "of_roots", "_root_data", "_hash")

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
        object.__setattr__(self, "_root_data", self._find_root_data())
        object.__setattr__(self, "of_roots", self._root_data is not None)
        object.__setattr__(self, "_hash", hash(entries))

    def __setattr__(self, *args):
        raise AttributeError("Braiding is immutable")

    def _find_root_data(self):
        # When all entries are roots of unity they generate a cyclic group
        # of order L; a bicharacter value is then a single power of zeta_L,
        # which makes chi one cached root_of_unity instead of four powers.
        # Exponents are found at each entry's own (small) order and rescaled.
        roots = [as_root_exponent(q) for q in (self.q11, self.q12, self.q21, self.q22)]
        if None in roots:
            return None
        L = math.lcm(2, *(o for _, o in roots))
        return L, tuple(e * (L // o) % L for e, o in roots)

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

        Values of a braiding with an entry that is not a root of unity are
        kept in one table, which holds the braiding in hand."""
        d1, d2 = d
        e1, e2 = e
        if self._root_data is not None:
            L, (a11, a12, a21, a22) = self._root_data
            return root_of_unity(a11 * d1 * e1 + a12 * d1 * e2 + a21 * d2 * e1 + a22 * d2 * e2, L)
        # The value depends on the four exponents alone, which key the table.
        table = _chi_table(self)
        key = (d1 * e1, d1 * e2, d2 * e1, d2 * e2)
        value = table.get(key)
        if value is None:
            k11, k12, k21, k22 = key
            value = table[key] = (self.q11 ** k11 * self.q12 ** k12
                                  * self.q21 ** k21 * self.q22 ** k22)
        return value

    def chi_at(self, d: tuple[int, int], e: tuple[int, int], n: int) -> tuple:
        """Coordinates of chi(d, e) at the canonical conductor n, which every
        entry's conductor divides.  For entries that are roots of unity the
        value is read by its exponent from the table `root_vectors`."""
        if self._root_data is not None:
            L, (a11, a12, a21, a22) = self._root_data
            d1, d2 = d
            e1, e2 = e
            return root_vectors(L, n)[(a11 * d1 * e1 + a12 * d1 * e2
                                       + a21 * d2 * e1 + a22 * d2 * e2) % L]
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
    """Iterated q-commutator attached to an extended node.

    tau0(LGH) = x2 and tau0(RGH) = x1; an inner or leaf node gets
    tau0(rgf a) tau0(lgf a) - chi(rgf a, lgf a) tau0(lgf a) tau0(rgf a).
    Its multidegree equals the node's Stern-Brocot label.  Values are kept
    in one node table, which holds the (tree, braiding) pair in hand.
    """
    table = _tau0_table(t, b)
    el = table.get(a)
    if el is None:
        hi = tau0(t, b, t.rgf(a))
        lo = tau0(t, b, t.lgf(a))
        el = table[a] = hi * lo - b.chi_nodes(t, t.rgf(a), t.lgf(a)) * (lo * hi)
    return el


@lru_cache(maxsize=1)
def _chi_table(b: Braiding) -> dict:
    return {}


@lru_cache(maxsize=1)
def _tau0_table(t: FullBinaryTree, b: Braiding) -> dict:
    return {LGH: NCPoly.generator(2), RGH: NCPoly.generator(1)}


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
        dv = (v.count("b"), v.count("a"))
        dw = (w.count("b"), w.count("a"))
        el = table[u] = pw * pv - b.chi(dw, dv) * (pv * pw)
    return el


@lru_cache(maxsize=1)
def _bracket_table(b: Braiding) -> dict:
    return {"a": NCPoly.generator(2), "b": NCPoly.generator(1)}


# -- quantum symmetrizer ------------------------------------------------------


class _SymEngine:
    """Per-braiding workspace for symmetrizer entries.

    Every braiding entry must be a root of unity, so each twist chi(e_i,
    e_j) is a power of one root zeta_L, and a symmetrizer coefficient lies
    in the group ring of the cyclic group it generates: a sum of powers
    zeta_L^e with nonnegative multiplicities.  Such a coefficient is packed
    into one int whose slot e, bits e*B to (e+1)*B - 1, holds the
    multiplicity of zeta_L^e.  An inverse twist of the symmetrizer rotates
    the slots, and adding coefficients adds the ints.

    The coefficient S(v)_u of a word u in the image of a word v is computed
    alone, by deleting from v each letter that can stand first in u:

        S(v)_u = sum over k with v[k] = u[0] of
                 chi(u[0], deg v[:k])^-1 S(v without letter k)_{u[1:]},

    the first-letter expansion of the symmetrizer.  Callers read a few
    entries of each word (at the reversed basis words of its bidegree), so
    only those entries and the ones they recurse into are ever computed.

    No slot ever carries into the next.  S(v)_u for a word v of length m is
    a sum of at most m! roots of unity, so a slot holds at most m!, and the
    width B is the least multiple of 64 bits with m! < 2^B.  All entries of
    one engine share one width; a word too long for it widens the slots and
    repacks every cached entry (first at length 21).

    `cache[v]` holds the packed entries S(v)_u computed so far, by u.  A
    packed coefficient becomes an integer coordinate vector at
    self.conductor only where it is read, through `coeff_to_vec`, which
    converts each distinct packed value once and keeps the result in
    `_vec_cache`.  `integer_image` is the one place where those vectors
    meet the coefficients of a polynomial.

    pivot_words maps each bidegree the rank oracle has reached to words
    whose classes form a basis of that graded piece, and frontier each
    bidegree of the highest degree reached to its derivative rows and
    candidates' table (`nicholscore._Ranked`, filled by `dim_at_degree`).
    """

    def __init__(self, b: Braiding):
        if b._root_data is None:
            raise BraidedError("the symmetrizer needs a braiding whose entries are "
                               f"roots of unity, got {b!r}")
        self.b = b
        self.L, self.exps = b._root_data
        self.conductor = canonical_conductor(self.L)
        self.deg = euler_phi(self.conductor)
        # Coordinate j of zeta_L^e at self.conductor, as the slots e where it
        # is nonzero and its values there; most are zero at a large conductor.
        roots = root_vectors(self.L, self.conductor)
        self._cols = tuple((tuple(e for e, vec in enumerate(roots) if vec[j]),
                            tuple(vec[j] for vec in roots if vec[j]))
                           for j in range(self.deg))
        self.cache: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        self._vec_cache: dict[int, tuple[int, ...]] = {}
        # The modular route and its slot codec load with the first engine, not on
        # import, as in `_linalg`.
        from ._modular import unpack_slots
        self._unpack_slots = unpack_slots
        self._bits = 0  # the slot width B, set by the first entry
        self.pivot_words: dict[tuple[int, int], list[tuple[int, ...]]] = {(0, 0): [()]}
        self.frontier: dict = {}
        e11, e12, e21, e22 = self.exps
        # Exponent of chi(e_i, e_j) in the root group, indexed [i][j].
        self._chi_exp = (None, (None, e11, e12), (None, e21, e22))

    def _widen(self, m: int):
        """Make the slots wide enough for entries of words of length m."""
        old, L = self._bits, self.L
        bits = self._bits = 64 * -(-math.factorial(m).bit_length() // 64)
        self._full = (1 << L * bits) - 1
        mask = (1 << old) - 1
        for row in self.cache.values():
            for u, c in row.items():
                row[u] = sum(((c >> e * old) & mask) << e * bits for e in range(L))
        self._vec_cache.clear()

    def _entry(self, v: tuple[int, ...], u: tuple[int, ...]) -> int:
        """Packed S(v)_u for words v and u of one bidegree (class docstring)."""
        row = self.cache.get(v)
        if row is None:
            row = self.cache[v] = {}
        c = row.get(u)
        if c is not None:
            return c
        if len(v) <= 1:
            c = 1
        else:
            first, rest = u[0], u[1:]
            L, bits, full, cache = self.L, self._bits, self._full, self.cache
            twists = self._chi_exp[first]
            c = t = 0  # t is the exponent of chi(first, deg v[:k])
            sub = None
            for k, letter in enumerate(v):
                if letter == first:
                    if sub is None:  # deleting any letter of a run leaves one word
                        shorter = v[:k] + v[k + 1:]
                        hit = cache.get(shorter)
                        sub = None if hit is None else hit.get(rest)
                        if sub is None:
                            sub = self._entry(shorter, rest)
                    s = -t % L
                    c += ((sub << s * bits) & full) | (sub >> (L - s) * bits) if s else sub
                else:
                    sub = None
                t += twists[letter]
        row[u] = c
        return c

    def coeff_to_vec(self, coeff: int) -> tuple[int, ...]:
        """Packed coefficient to a coordinate vector at self.conductor."""
        vec = self._vec_cache.get(coeff)
        if vec is None:
            at = self._unpack_slots(coeff, self.L, self._bits // 8).__getitem__
            vec = self._vec_cache[coeff] = tuple(sum(map(operator.mul, map(at, where), values))
                                                 for where, values in self._cols)
        return vec

    def image_vectors(self, word: tuple[int, ...], words=None) -> dict:
        """Image of a word with coefficients as coordinate vectors, zero
        coefficients dropped: its entries at the given words if any, else at
        every word of its bidegree.  Only those entries are computed."""
        m, r = len(word), word.count(1)
        if math.factorial(m).bit_length() > self._bits:
            self._widen(m)
        if words is None:
            words = _words(m, r)
        entry, to_vec = self._entry, self.coeff_to_vec
        out = {}
        for u in words:
            if len(u) == m and u.count(1) == r:
                vec = to_vec(entry(word, u))
                if any(vec):
                    out[u] = vec
        return out

    def symmetrize(self, rho: NCPoly, n: int, words=None) -> dict:
        """Symmetrizer image of a polynomial whose coefficients lie in
        Q(zeta_n), where self.conductor divides n: word -> coordinate list
        at conductor n, at each word (of the given ones, if any) where the
        image of some term is nonzero.  It is `integer_image` of the
        coefficients lifted to n and cleared of their denominators by one
        positive integer D, divided by D."""
        terms, den = _integer_terms(rho, n)
        out = self.integer_image(terms, n, words)
        return out if den == 1 else {u: [Fraction(x, den) for x in vec] for u, vec in out.items()}

    def integer_image(self, terms: dict, n: int, words=None) -> dict:
        """`symmetrize` of word -> integer coordinate vector at conductor n:
        each word's sum of (term, word) products is formed by Kronecker
        substitution and reduced mod Phi_n once (`kronecker_sums`)."""
        images = {v: self.image_vectors(v, words) for v in terms}
        vecs = {s: s for img in images.values() for s in img.values()}
        if n != self.conductor:
            vecs = {s: CycNum(self.conductor, s)._lift(n) for s in vecs}
        products = [(u, v, s) for v, img in images.items() for u, s in img.items()]
        return kronecker_sums(n, terms, vecs, products, len(terms))


def _words(m: int, r: int) -> list[tuple[int, ...]]:
    """Every word of length m with r letters 1."""
    out = []
    for ones in combinations(range(m), r):
        word = [2] * m
        for i in ones:
            word[i] = 1
        out.append(tuple(word))
    return out


_ENGINES: dict[Braiding, _SymEngine] = {}


def _engine(b: Braiding) -> _SymEngine:
    eng = _ENGINES.get(b)
    if eng is None:
        eng = _ENGINES[b] = _SymEngine(b)
    return eng


def _conductor(b: Braiding, rho: NCPoly) -> int:
    """The canonical conductor of the braiding's entries and rho's coefficients."""
    field = b._root_data[0] if b._root_data else math.lcm(*(q.conductor for q in b.entries()))
    return canonical_conductor(math.lcm(field, *(c.conductor for c in rho.terms.values())))


def _integer_terms(rho: NCPoly, n: int) -> tuple[dict, int]:
    """`clear_denominators` of the coefficients of rho lifted to conductor n."""
    return clear_denominators({w: c._lift(n) for w, c in rho.terms.items()})


def symmetrize_poly(b: Braiding, rho: NCPoly, words=None) -> NCPoly:
    """Apply the quantum symmetrizer of the appropriate degree to a
    homogeneous polynomial, restricted to the given words if any."""
    n = _conductor(b, rho)
    return NCPoly({w: CycNum(n, vec) for w, vec in _engine(b).symmetrize(rho, n, words).items()})


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

    method "symmetrizer": the coefficient vector lies in the kernel of the
    degree-m symmetrizer.  method "derivations": recursively, both skew
    derivations vanish (a degree-0 element is zero iff its scalar is).
    Both decide exactly on integers: the coefficients are lifted once, to
    the conductor of the braiding and the coefficients, and cleared of
    their denominators by one positive integer.
    """
    if rho.is_zero():
        return True
    if len({len(w) for w in rho.terms}) > 1:
        raise BraidedError("zero test requires a polynomial homogeneous in total degree")
    n = _conductor(b, rho)
    terms = _integer_terms(rho, n)[0]
    if method == "symmetrizer":
        return () not in terms and not any(map(any, _engine(b).integer_image(terms, n).values()))
    if method == "derivations":
        return _derivations_vanish(b, terms, n)
    raise BraidedError(f"unknown method {method!r}")


# -- serialization -------------------------------------------------------------


def _format_coeff(c: CycNum) -> tuple[str, str]:
    """(sign, body) where body is empty for coefficient magnitude one."""
    from .cyclotomic import MINUS_ONE, as_root_exponent, format_scalar

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
    """Drop the chi, tau0 and bracket tables and the memoized symmetrizer data
    (test hygiene, and room to report running out of memory).  The
    symmetrizer engines otherwise stay for the life of the process, one per
    braiding."""
    _chi_table.cache_clear()
    _tau0_table.cache_clear()
    _bracket_table.cache_clear()
    _ENGINES.clear()
