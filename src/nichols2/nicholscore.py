"""Degree-truncated oracle for the braided quotient algebra.

The dimension of each graded piece is the exact rank of the quantum
symmetrizer over Q(zeta_N), computed per bidegree (the symmetrizer
preserves the bidegree splitting).  The ranks are taken over a spanning
set rather than over all words.  The kernels of the symmetrizers S_m
together form the Nichols ideal, a two-sided ideal: the kernel of the
algebra map to the quantum shuffle algebra (Andruskiewitsch-Schneider,
"Pointed Hopf algebras", 2002).  So if the classes of the words w form a
basis of degree m - 1, the image of S_m is spanned by the S_m(w x_j), and
the words of the pivot rows of that matrix form a basis of degree m.

The columns are reduced through the word reversal R.

a. The coefficient of u in S_m(v) is that of R(v) in S_m(R(u)).  With
   S_m' the symmetrizer of the transposed braiding (q11, q21, q12, q22),
   the matrix of S_m' is the transpose of that of S_m, and R S_m = S_m' R.
b. So columns at words U span the column space exactly when the words
   R(U) span the graded piece, as R(w) x_j do for the basis words w one
   degree down: their reversals x_j w span, the ideal being two-sided.
c. A combination of rows that vanishes on columns spanning the column
   space vanishes on all, so the block keeps the rank and pivot rows.

Each bidegree (r, s) therefore ranks a square block: the candidates w.1
and w.2 for the basis words w of (r - 1, s) and (r, s - 1), at the columns
R(w).1 and R(w).2.  Only the basis words are kept per braiding, so a
degree is computed from the degree below it.

Every rank is exact (`_linalg.exact_rank_vectors`).  It is found modulo a
prime p = 1 (mod N) and reported only with two certificates: a nonzero
minor mod p on the pivot rows, which proves them independent, and an exact
check of every other row's dependency on them, lifted by rational
reconstruction from p and any earlier such primes, which proves they span.
A mod-p rank is never reported on its own; where a certificate fails, the
next such prime is tried.

Monomial bases predicted by a tree are verified against that oracle by
counting, and their independence by their words (Kharchenko, "A quantum
analog of the Poincare-Birkhoff-Witt theorem", Algebra and Logic 38,
1999).  Words of equal length are compared in colex order: from the
right, last letter first, with x1 < x2.  A word is standard if it is not
the colex-largest word of any element of the Nichols ideal.

1. The oracle's basis words are the standard words.  A bidegree's
   candidates are those below it extended by x1, then by x2, so by
   induction they come in colex order; and a standard word stays standard
   when its last letter is dropped (the ideal is two-sided), so every
   standard word is a candidate.  On these square blocks the pivot rows
   are exactly the rows that raise the rank of the rows before them
   (`_linalg`), so a candidate is a basis word when it is not congruent
   to a combination of colex-smaller words: when it is standard.
2. On words of one length, colex order is compatible with concatenation.
   So the colex-largest word of a PBW monomial, the product of the powers
   tau0(a)^e in ascending node order, is the concatenation of the
   colex-largest words of its factors, and its coefficient is the product
   of theirs: nonzero.
3. If these leading words are distinct standard words, the monomials are
   independent modulo the ideal: the colex-largest word of a nontrivial
   combination of them is one of their leading words, a standard word.

So `verify_type` proves independence by comparing each bidegree's leading
words with the oracle's basis words, without a rank.  Only where the two
differ does the exact rank of the symmetrized monomials decide, which is
how a dependence is ever reported.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from ._linalg import exact_rank_vectors
from .braidedalg import Braiding, NCPoly, _engine, is_zero_in_nichols, tau0
from .cyclotomic import qfact
from .fbtree import FullBinaryTree
from .admissibility import NicholsError, generator_height, mu_of, p_of


def _pivot_words(eng, r: int, s: int) -> list:
    """Basis words of the bidegree-(r, s) piece, from those of the two
    bidegrees below it (which must be known): the pivot rows among the
    candidates w.j, at the columns R(w).j (module docstring, steps a-c).
    The candidates come in colex order, so the basis words are the standard
    words (module docstring, step 1)."""
    cands, cols = [], []
    for j, below in ((1, (r - 1, s)), (2, (r, s - 1))):
        if min(below) >= 0:
            cands += [w + (j,) for w in eng.pivot_words[below]]
            cols += [w[::-1] + (j,) for w in eng.pivot_words[below]]
    if not cands:
        return []
    zero = (0,) * eng.deg
    rows = []
    for w in cands:
        img = eng.image_vectors(w, cols)
        rows.append([img.get(u, zero) for u in cols])
    pivot_rows: list[int] = []
    exact_rank_vectors(rows, eng.conductor, pivot_rows=pivot_rows)
    return [cands[i] for i in pivot_rows]


def dim_at_degree(b: Braiding, m: int) -> int:
    """Exact dimension of the degree-m piece: the symmetrizer rank, taken
    over the spanning set w.x_j built from the basis words w of degree
    m - 1, at the columns R(w).x_j of the reversed words.
    Lower degrees not yet known for this braiding are computed first, and
    a zero degree makes every higher one zero."""
    if m < 0:
        raise NicholsError("degree must be nonnegative")
    eng = _engine(b)
    known = eng.pivot_words
    for d in range(1, m + 1):
        for r in range(d + 1):
            if (r, d - r) not in known:
                known[(r, d - r)] = _pivot_words(eng, r, d - r)
        if not any(known[(r, d - r)] for r in range(d + 1)):
            return 0  # every higher degree is spanned from this empty one
    return sum(len(known[(r, m - r)]) for r in range(m + 1))


def hilbert_prefix(b: Braiding, n: int) -> tuple[int, ...]:
    """Dimensions of all graded pieces through total degree n: entry m is
    the dimension of the degree-m piece."""
    if n < 0:
        raise NicholsError("degree cap must be nonnegative")
    return tuple(dim_at_degree(b, m) for m in range(n + 1))


@dataclass(frozen=True)
class PBWMonomial:
    """Exponent vector over the extended inner nodes, ascending Q order."""

    nodes: tuple
    exponents: tuple[int, ...]
    weights: tuple[int, ...]

    def weighted_degree(self) -> int:
        return sum(e * w for e, w in zip(self.exponents, self.weights))

    def multidegree(self, labels) -> tuple[int, int]:
        r = sum(e * lab[0] for e, lab in zip(self.exponents, labels))
        s = sum(e * lab[1] for e, lab in zip(self.exponents, labels))
        return (r, s)

    def __repr__(self):
        return f"PBWMonomial({self.exponents})"


def generator_orders(t: FullBinaryTree, b: Braiding) -> list[int]:
    """The generator heights over the extended inner nodes, ascending Q
    order (see `generator_height`)."""
    return [generator_height(t, b, a) for a in t.nbar2()]


def pbw_monomials(t: FullBinaryTree, b: Braiding, up_to: int) -> list[PBWMonomial]:
    """All monomials with exponents below the generator heights and weighted
    degree at most up_to, graded then lexicographic over the node order
    (higher exponent on the Q-smaller node first)."""
    nodes = t.nbar2()
    weights = tuple(t.weight(a) for a in nodes)
    orders = generator_orders(t, b)
    out: list[tuple[int, ...]] = []

    def rec(i, remaining, acc):
        if i == len(nodes):
            out.append(tuple(acc))
            return
        cap = orders[i] - 1
        w = weights[i]
        top = min(cap, remaining // w)
        for e in range(top + 1):
            acc.append(e)
            rec(i + 1, remaining - e * w, acc)
            acc.pop()

    rec(0, up_to, [])
    monos = [PBWMonomial(nodes, exps, weights) for exps in out]
    monos.sort(key=lambda mo: (mo.weighted_degree(), tuple(-e for e in mo.exponents)))
    return monos


def count_by_degree(monomials, up_to: int | None = None) -> tuple[int, ...]:
    """Histogram of monomials by weighted degree."""
    if up_to is None:
        up_to = max((mo.weighted_degree() for mo in monomials), default=0)
    dims = [0] * (up_to + 1)
    for mo in monomials:
        d = mo.weighted_degree()
        if d <= up_to:
            dims[d] += 1
    return tuple(dims)


def evaluate_monomial(t: FullBinaryTree, b: Braiding, mono: PBWMonomial) -> NCPoly:
    """Expand the monomial into the free algebra: the product of bracket
    element powers, taken in ascending node order."""
    acc = NCPoly.unit()
    for node, e in zip(mono.nodes, mono.exponents):
        if e:
            acc = acc * tau0(t, b, node) ** e
    return acc


@dataclass
class TypeVerdict:
    holds: bool
    failed_degree: int | None
    detail: str | None
    counts: tuple[int, ...]
    dims: tuple[int, ...]
    # Generators too heavy to contribute below the cap; their strata were
    # not exercised and the caller reports the cap honestly.
    unexercised_nodes: tuple = ()

    def __bool__(self):
        return self.holds


def verify_type(t: FullBinaryTree, b: Braiding, n: int) -> TypeVerdict:
    """Check degree by degree through n that the predicted monomials count
    the oracle dimensions and stay independent modulo the symmetrizer kernel.

    A bidegree's monomials are independent if their colex-largest words are
    distinct and are the oracle's basis words (module docstring).  Only a
    bidegree whose words differ is decided by the exact rank of its
    symmetrized monomials, at the columns of its reversed basis words."""
    monos = pbw_monomials(t, b, n)
    counts = count_by_degree(monos, n)
    dims = hilbert_prefix(b, n)
    heavy = tuple(a for a in t.nbar2() if t.weight(a) > n)
    for m in range(n + 1):
        if counts[m] != dims[m]:
            return TypeVerdict(False, m,
                               f"predicted {counts[m]} monomials, oracle dimension {dims[m]}",
                               counts, dims, heavy)
    eng = _engine(b)
    leads = {a: max(tau0(t, b, a).terms, key=lambda w: w[::-1])
             for a in t.nbar2() if t.weight(a) <= n}
    for bideg, group in sorted(_monomials_by_bidegree(t, monos).items()):
        words = {_leading_word(mo, leads) for mo in group}
        if len(words) == len(group) and words == set(eng.pivot_words[bideg]):
            continue
        rank = _exact_monomial_rank(t, b, eng, group, [w[::-1] for w in eng.pivot_words[bideg]])
        if rank != len(group):
            m = bideg[0] + bideg[1]
            return TypeVerdict(False, m,
                               f"monomials of bidegree {bideg} dependent modulo the "
                               f"kernel (rank {rank} of {len(group)})",
                               counts, dims, heavy)
    return TypeVerdict(True, None, None, counts, dims, heavy)


def _leading_word(mono: PBWMonomial, leads: dict) -> tuple[int, ...]:
    """The colex-largest word of `evaluate_monomial`, from the colex-largest
    word of tau0 at each node (module docstring, step 2)."""
    return sum((leads[a] * e for a, e in zip(mono.nodes, mono.exponents) if e), ())


def _monomials_by_bidegree(t: FullBinaryTree, monos) -> dict[tuple[int, int], list[PBWMonomial]]:
    """The monomials of weighted degree at least 2, grouped by bidegree."""
    labels = [t.stern_brocot(a) for a in t.nbar2()]
    groups: dict[tuple[int, int], list[PBWMonomial]] = defaultdict(list)
    for mo in monos:
        if mo.weighted_degree() >= 2:
            groups[mo.multidegree(labels)].append(mo)
    return groups


def _exact_monomial_rank(t: FullBinaryTree, b: Braiding, eng, group, words) -> int:
    """Exact rank of the symmetrized monomials at the column words, whose
    reversals must span the graded piece (module docstring, step b)."""
    zero = (0,) * eng.deg
    cols = set(words)
    rows = []
    for mo in group:
        # The coefficients are products of chi values, so they lie in the
        # engine's field.
        img = eng.symmetrize(evaluate_monomial(t, b, mo), eng.conductor, cols)
        rows.append([img.get(w, zero) for w in words])
    return exact_rank_vectors(rows, eng.conductor)


def _relation_generators(t: FullBinaryTree, b: Braiding) -> list[tuple[int, Callable]]:
    """(total degree, builder) for every generator of the relation ideal,
    in the order relation_set lists them.  Degrees are known up front from
    weight and height; a builder expands its generator only when called."""
    gens = []
    for a in sorted(t.leaves(), key=t.q_value):
        gens.append((t.weight(a), partial(tau0, t, b, a)))
    for a, o in zip(t.nbar2(), generator_orders(t, b)):
        gens.append((o * t.weight(a), lambda a=a, o=o: tau0(t, b, a) ** o))
    for bb in sorted(t.internal(), key=t.q_value):
        c = t.lgf(bb)
        if isinstance(c, int) and not t.is_leaf(c):
            gens.append((t.weight(bb) + t.weight(t.lgf(c)), partial(_mixed_relation, t, b, bb)))
    return gens


def _mixed_relation(t: FullBinaryTree, b: Braiding, bb: int) -> NCPoly:
    c = t.lgf(bb)
    lgc = t.lgf(c)
    k = t.rgfl(bb)
    denom = qfact(k + 1, p_of(t, b, c))
    if denom.is_zero():
        raise NicholsError(f"inadmissible: vanishing q-factorial at node {bb}")
    coeff = mu_of(t, b, bb) * denom.inv()
    return (tau0(t, b, bb) * tau0(t, b, lgc)
            - b.chi_nodes(t, bb, lgc) * (tau0(t, b, lgc) * tau0(t, b, bb))
            - coeff * tau0(t, b, c) ** (k + 1))


def relation_set(t: FullBinaryTree, b: Braiding, max_degree: int | None = None) -> list[NCPoly]:
    """Generators of the relation ideal read off the tree: every leaf
    bracket, the order-power of every extended inner node bracket, and one
    mixed commutation relation per inner node whose left godfather is inner.

    Power relations grow like 2^degree when expanded, so max_degree bounds
    which generators are materialized (their degrees are known up front
    from weight and order); None expands everything.
    """
    return [build() for d, build in _relation_generators(t, b)
            if max_degree is None or d <= max_degree]


def relation_vanishes(b: Braiding, rel: NCPoly) -> bool:
    """The relation is zero in the quotient under both the symmetrizer and
    the skew-derivation test."""
    return (is_zero_in_nichols(b, rel, "symmetrizer")
            and is_zero_in_nichols(b, rel, "derivations"))


def dimension(t: FullBinaryTree, b: Braiding) -> int:
    """Product of the generator heights over the extended inner nodes."""
    return math.prod(generator_orders(t, b))


def top_total_degree(t: FullBinaryTree, b: Braiding) -> int:
    """Largest total degree with a nonzero graded piece, per the monomial
    prediction."""
    return sum((o - 1) * t.weight(a) for o, a in zip(generator_orders(t, b), t.nbar2()))
