"""The free braided algebra over a rank-2 diagonal braiding.

The braiding is a 2x2 matrix of nonzero scalars q_ij.  Everything the group
action contributes to downstream computations factors through the bicharacter
chi on Z^2 x Z^2, so no group data is represented.  Multidegrees are pairs
(d1, d2) with d1 counting x1-letters; the bracket element of a tree node is
homogeneous with multidegree equal to the node's Stern-Brocot label.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .cyclotomic import (CycNum, ONE, as_root_exponent, canonical_conductor, euler_phi,
                         root_of_unity, root_vectors, vector_product)
from .fbtree import LGH, RGH, FullBinaryTree
from .lyndon import Word, is_lyndon, shirshow


class BraidedError(ValueError):
    pass


class Braiding:
    """Immutable 2x2 matrix (q_ij) of nonzero scalars."""

    __slots__ = ("q11", "q12", "q21", "q22", "_root_data", "_hash")

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


def bracket_word(b: Braiding, u: Word) -> NCPoly:
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
        dv = (v.count_b(), len(v) - v.count_b())
        dw = (w.count_b(), len(w) - w.count_b())
        el = table[u] = pw * pv - b.chi(dw, dv) * (pv * pw)
    return el


@lru_cache(maxsize=1)
def _bracket_table(b: Braiding) -> dict:
    return {Word(1, 0): NCPoly.generator(2), Word(1, 1): NCPoly.generator(1)}


# -- quantum symmetrizer ------------------------------------------------------


class _SymEngine:
    """Per-braiding workspace for symmetrizer images.

    Every braiding entry must be a root of unity, so each twist chi(e_i,
    e_j) is a power of one root zeta_L, and an image coefficient lies in the
    group ring of the cyclic group it generates: a sum of powers zeta_L^e
    with nonnegative multiplicities.  Such a coefficient is packed into one
    int whose slot e, bits e*B to (e+1)*B - 1, holds the multiplicity of
    zeta_L^e.  An inverse twist of the symmetrizer rotates the slots, and
    adding coefficients adds the ints.

    No slot ever carries into the next.  The image of a word of length m is
    a sum of m! terms, each a root of unity times a word, so a slot holds at
    most m!, and the width B is the least multiple of 64 bits with m! < 2^B.
    All images of one engine share one width; a word too long for it widens
    the slots and repacks every cached image (first at length 21).

    `cache` holds the packed image of every word imaged so far.  A packed
    coefficient becomes an integer coordinate vector at self.conductor only
    where it is read, through `coeff_to_vec`, which converts each distinct
    packed value once and keeps the result in `_vec_cache`.  `symmetrize`
    is the one place where those vectors meet the coefficients of a
    polynomial.

    pivot_words maps each bidegree the rank oracle has reached to words
    whose classes form a basis of that graded piece (filled by
    `nicholscore.dim_at_degree`).
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
        self._bits = 0  # the slot width B, set by the first image
        self.pivot_words: dict[tuple[int, int], list[tuple[int, ...]]] = {(0, 0): [()]}
        e11, e12, e21, e22 = self.exps
        # Exponent of chi(e_i, e_j) in the root group, indexed [i][j].
        self._chi_exp = {(1, 1): e11, (1, 2): e12, (2, 1): e21, (2, 2): e22}

    def _widen(self, m: int):
        """Make the slots wide enough for images of words of length m."""
        old, L = self._bits, self.L
        bits = self._bits = 64 * -(-math.factorial(m).bit_length() // 64)
        self._full = (1 << L * bits) - 1
        mask = (1 << old) - 1
        for img in self.cache.values():
            for w, c in img.items():
                img[w] = sum(((c >> e * old) & mask) << e * bits for e in range(L))
        self._vec_cache.clear()

    def image(self, word: tuple[int, ...]) -> dict:
        """Raw image of a basis word, with packed coefficients."""
        hit = self.cache.get(word)
        if hit is None:
            if math.factorial(len(word)).bit_length() > self._bits:
                self._widen(len(word))
            hit = self.cache[word] = self._image(word)
        return hit

    def _image(self, word):
        m = len(word)
        if m <= 1:
            return {word: 1}
        L, bits, full = self.L, self._bits, self._full
        chi_exp = self._chi_exp
        out: dict = {}
        get = out.get
        # Deleting the letter at position k twists by chi(letter, deg
        # word[:k])^-1; twist[i] is the exponent of chi(e_i, deg word[:k]).
        twist = {1: 0, 2: 0}
        for k, letter in enumerate(word):
            s = -twist[letter] % L
            low, high = s * bits, (L - s) * bits
            for tail, c in self.image(word[:k] + word[k + 1:]).items():
                if s:
                    c = ((c << low) & full) | (c >> high)
                w = (letter,) + tail
                out[w] = get(w, 0) + c
            twist[1] += chi_exp[(1, letter)]
            twist[2] += chi_exp[(2, letter)]
        return out

    def coeff_to_vec(self, coeff: int) -> tuple[int, ...]:
        """Packed coefficient to a coordinate vector at self.conductor."""
        vec = self._vec_cache.get(coeff)
        if vec is None:
            step = self._bits // 8
            raw = coeff.to_bytes(self.L * step, "little")
            if step == 8:
                slots = memoryview(raw).cast("Q").tolist()
            else:
                slots = [int.from_bytes(raw[i:i + step], "little")
                         for i in range(0, len(raw), step)]
            at = slots.__getitem__
            vec = self._vec_cache[coeff] = tuple(sum(map(operator.mul, map(at, where), values))
                                                 for where, values in self._cols)
        return vec

    def image_vectors(self, word: tuple[int, ...], words=None) -> dict:
        """Image of a basis word with coefficients as coordinate vectors,
        zero coefficients dropped, restricted to the given words if any."""
        img = self.image(word)
        if words is not None:
            img = {u: img[u] for u in words if u in img}
        out = {}
        for u, c in img.items():
            vec = self.coeff_to_vec(c)
            if any(vec):
                out[u] = vec
        return out

    def symmetrize(self, rho: NCPoly, n: int, words=None) -> dict:
        """Symmetrizer image of a polynomial whose coefficients lie in
        Q(zeta_n), where self.conductor divides n: word -> coordinate list
        at conductor n, restricted to the given words if any."""
        mul = vector_product(n)
        out: dict = {}
        for w, c in rho.terms.items():
            cv = c._lift(n)
            for img, v in self.image_vectors(w, words).items():
                if n != self.conductor:
                    v = CycNum(self.conductor, v)._lift(n)
                add = mul(cv, v)
                cur = out.get(img)
                out[img] = add if cur is None else [x + y for x, y in zip(cur, add)]
        return out


_ENGINES: dict[Braiding, _SymEngine] = {}


def _engine(b: Braiding) -> _SymEngine:
    eng = _ENGINES.get(b)
    if eng is None:
        eng = _ENGINES[b] = _SymEngine(b)
    return eng


def symmetrize_poly(b: Braiding, rho: NCPoly) -> NCPoly:
    """Apply the quantum symmetrizer of the appropriate degree to a
    homogeneous polynomial."""
    eng = _engine(b)
    n = canonical_conductor(math.lcm(eng.conductor, *(c.conductor for c in rho.terms.values())))
    return NCPoly({w: CycNum(n, vec) for w, vec in eng.symmetrize(rho, n).items()})


# -- skew derivations ----------------------------------------------------------


def skew_derivation(b: Braiding, i: int, rho: NCPoly) -> NCPoly:
    """The twisted letter-deleting operator <y_i, .> on polynomials."""
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


def is_zero_in_nichols(b: Braiding, rho: NCPoly, method: str = "symmetrizer") -> bool:
    """Whether a homogeneous element maps to zero in the braided quotient.

    method "symmetrizer": the coefficient vector lies in the kernel of the
    degree-m symmetrizer.  method "derivations": recursively, both skew
    derivations vanish (a degree-0 element is zero iff its scalar is).
    """
    if rho.is_zero():
        return True
    if len({len(w) for w in rho.terms}) > 1:
        raise BraidedError("zero test requires a polynomial homogeneous in total degree")
    degree = len(next(iter(rho.terms)))
    if method == "symmetrizer":
        if degree == 0:
            return rho.is_zero()
        return symmetrize_poly(b, rho).is_zero()
    if method == "derivations":
        if degree == 0:
            return rho.is_zero()
        return (is_zero_in_nichols(b, skew_derivation(b, 1, rho), "derivations")
                and is_zero_in_nichols(b, skew_derivation(b, 2, rho), "derivations"))
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
    (test hygiene).  The symmetrizer engines otherwise stay for the life of
    the process, one per braiding."""
    _chi_table.cache_clear()
    _tau0_table.cache_clear()
    _bracket_table.cache_clear()
    _ENGINES.clear()
