"""Degree-truncated oracle for the braided quotient algebra.

The kernels of the quantum symmetrizers S_m form the Nichols ideal, a
two-sided ideal (Andruskiewitsch-Schneider, "Pointed Hopf algebras",
2002).  By their derivation criterion, an element of positive degree lies
in it exactly when the skew derivations d_1 and d_2 map it into it, so
x -> (d_1 x, d_2 x) is injective on the quotient in positive degree.

If the classes of the words w form bases of the bidegrees (r - 1, s) and
(r, s - 1), the candidates w.1 and w.2 span (r, s).  The row of a
candidate holds the coordinates of its two derivatives in those bases, so
by injectivity the rows have the candidates' dependencies, and the pivot
rows give a basis.  A row follows from the rows and checked dependencies
one degree down by the last-letter rule of `braidedalg.skew_derivation`
(`_pivot_words`).  The candidates and the pivot rule are those of ranking
the candidates' symmetrizer images, so the basis words are the same.

`braidedalg.is_zero_in_nichols` and `verify_type` read symmetrizer images
at reversed basis words only, through the word reversal R:

a. The coefficient of u in S_m(v) is that of R(v) in S_m(R(u)).  With
   S_m' the symmetrizer of the transposed braiding (q11, q21, q12, q22),
   the matrix of S_m' is the transpose of that of S_m, and R S_m = S_m' R.
b. So columns at words U span the column space exactly when the words
   R(U) span the graded piece, as R(w) x_j do for the basis words w one
   degree down: their reversals x_j w span, the ideal being two-sided.
c. A combination of rows that vanishes on columns spanning the column
   space vanishes on all.  An image S_m(x) is such a combination, so it is
   zero when it vanishes at the reversed basis words of its bidegree, and
   images keep their rank on those columns.

Every rank is exact, with its certificates, as the `_linalg` docstring
proves.  The proven dependencies are the tables the next degree reads, so
no basis word rests on a prime.

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
   (`_linalg`), by injectivity the candidates independent of those before
   them.  So a candidate is a basis word when it is not congruent to a
   combination of colex-smaller words: when it is standard.
2. On words of one length, colex order is compatible with concatenation.
   So the colex-largest word of a PBW monomial, the product of the powers
   tau0(a)^e in ascending node order, is the concatenation of the
   colex-largest words of its factors, and its coefficient is the product
   of theirs.  That of tau0(a) is R(u) with coefficient 1, for u the Lyndon
   word of a (`lyndon.christoffel`) and R the reversal with a -> x2, b -> x1.
   By induction: for u = vw standard, [u] = [w][v] - chi(w, v) [v][w], the
   products lead with R(u) and R(wv), and u < wv as u is Lyndon.
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
import operator
from collections import defaultdict
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from ._linalg import exact_rank_vectors
from .braidedalg import Braiding, BraidedError, NCPoly, _engine, _integer_terms, tau0
from .cyclotomic import Residues, clear_denominators, qfact
from .fbtree import FullBinaryTree
from .lyndon import christoffel
from .admissibility import NicholsError, _qfact_zero, heights, mu_of, p_of


class _Ranked(NamedTuple):
    """A ranked bidegree.  rows[k] = (R, D) for basis word k: R is D times
    the coordinates of d_1 and d_2 of it in the bases below.  table[c] is
    den times candidate c in the basis: the index k of a basis word for e_k,
    else a dict {k: coordinates} of a combination ({} for zero)."""
    rows: list
    den: int
    table: list


def _pivot_words(eng, r: int, s: int) -> list:
    """Basis words of the bidegree-(r, s) piece, the standard words: the
    candidates b.j of the pivot rows of their derivative coordinates, read
    from the bidegrees below in eng.frontier, where this one goes in turn
    (module docstring and step 1)."""
    known, frontier, n = eng.pivot_words, eng.frontier, eng.conductor

    def split(bd):  # the x1-candidates of bd, and the columns of its first derivative
        return len(known[(bd[0] - 1, bd[1])]) if bd[0] else 0

    below = {j: bd for j, bd in ((1, (r - 1, s)), (2, (r, s - 1))) if min(bd) >= 0}
    cands = [(j, t) for j, bd in below.items() for t in range(len(known[bd]))]
    if not cands:
        frontier[(r, s)] = _Ranked([], 1, [])
        return []
    # Row c is dens[c] times the coordinates of d_1 and d_2 of candidate c
    # in the bases of (r - 1, s) and (r, s - 1), one column per candidate,
    # where d_i(b.j) = d_i(b).j + [i = j] chi(e_i, deg b)^-1 b, and .j maps
    # each basis word of d_i(b) through the table below, of denominator big.
    n1, big = split((r, s)), math.lcm(*(frontier[bd].den for bd in below.values()))
    twist = {j: eng.b.chi_at((j - 2, 1 - j), bd, n) for j, bd in below.items()}
    ys = {(i, e, k): tuple(big // frontier[bd].den * x for x in vec) for i, bd in below.items()
          for e, comb in enumerate(frontier[bd].table) if type(comb) is dict
          for k, vec in comb.items()}
    rows, dens, xs, products = [], [], {}, []
    for c, (j, t) in enumerate(cands):
        row, den = frontier[below[j]].rows[t]
        out, cut = [(0,) * eng.deg] * len(cands), split(below[j])
        for i, gamma in below.items():
            table, first = frontier[gamma].table, split(gamma) if j == 2 else 0
            lo, hi, base = (0, cut, 0) if i == 1 else (cut, len(row), n1)
            for pos in range(lo, hi):
                comb = table[first + pos - lo]
                if type(comb) is int:  # a basis word: a unit vector
                    out[base + comb] = row[pos] if big == 1 else tuple(big * x for x in row[pos])
                elif comb and any(row[pos]):
                    xs[(c, pos)] = row[pos]
                    products += [((c, base + k), (c, pos), (i, first + pos - lo, k)) for k in comb]
        tw = twist[j] if den * big == 1 else [den * big * y for y in twist[j]]
        out[n1 * (j - 1) + t] = tuple(map(operator.add, out[n1 * (j - 1) + t], tw))
        rows.append(out)
        dens.append(den * big)
    if xs:  # each sum of at most per_sum products is reduced mod M once
        per_sum = max(len(frontier[bd].table) for bd in below.values())
        ring = Residues.for_sums(n, xs.values(), ys.values(), per_sum)
        px = {a: ring.pack(v) for a, v in xs.items()}
        py = {b: ring.pack(v) for b, v in ys.items()}
        sums: dict = {}
        for t, a, b in products:
            sums[t] = sums.get(t, 0) + px[a] * py[b]
        for (c, col), x in sums.items():
            rows[c][col] = tuple(map(operator.add, rows[c][col], ring.decode(x % ring.modulus)))
    for c, row in enumerate(rows):
        if dens[c] > 1 and (g := math.gcd(dens[c], *(math.gcd(*vec) for vec in row))) > 1:
            rows[c], dens[c] = [tuple(x // g for x in vec) for vec in row], dens[c] // g
    pivot_rows, deps = [], {}
    exact_rank_vectors(rows, n, pivot_rows=pivot_rows, dependencies=deps)
    # Candidate c is basis word k, or zero, or a combination of them: by
    # injectivity, that of its row, D rows[c] = sum_k nums_k rows[p_k].
    combs, den = clear_denominators(
        {(c, k): [x * dens[p] if d * dens[c] == 1 else Fraction(x * dens[p], d * dens[c])
                  for x in vec]
         for c, (d, nums) in deps.items() for k, (p, vec) in enumerate(zip(pivot_rows, nums))
         if any(vec)})
    index = {c: k for k, c in enumerate(pivot_rows)}
    table = [index.get(c, {}) for c in range(len(cands))]
    for (c, k), vec in combs.items():
        table[c][k] = vec
    frontier[(r, s)] = _Ranked([(rows[c], dens[c]) for c in pivot_rows], den, table)
    return [known[below[j]][t] + (j,) for j, t in (cands[c] for c in pivot_rows)]


def dim_at_degree(b: Braiding, m: int) -> int:
    """Exact dimension of the degree-m piece: the rank of the derivative
    rows of the candidates w.x_j, w the basis words of degree m - 1.
    Lower degrees not yet known for this braiding are computed first, and
    a zero degree makes every higher one zero."""
    if m < 0:
        raise NicholsError("degree must be nonnegative")
    if not b.of_roots:
        raise BraidedError(f"the rank oracle takes roots of unity only, got {b!r}")
    eng = _engine(b)
    known = eng.pivot_words
    for d in range(1, m + 1):
        if (d, 0) not in known:  # a degree is ranked whole, (d, 0) last
            if d == 1:  # the empty word: no derivatives, no candidates
                eng.frontier[(0, 0)] = _Ranked([((), 1)], 1, [])
            for r in range(d + 1):
                known[(r, d - r)] = _pivot_words(eng, r, d - r)
            for r in range(d):  # degree d + 1 reads degree d only
                del eng.frontier[(r, d - 1 - r)]
        if not any(known[(r, d - r)] for r in range(d + 1)):
            return 0  # every higher degree is spanned from this empty one
    return sum(len(known[(r, m - r)]) for r in range(m + 1))


def hilbert_prefix(b: Braiding, n: int) -> tuple[int, ...]:
    """Dimensions of all graded pieces through total degree n: entry m is
    the dimension of the degree-m piece."""
    if n < 0:
        raise NicholsError("degree cap must be nonnegative")
    return tuple(dim_at_degree(b, m) for m in range(n + 1))


class PBWMonomial(NamedTuple):
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
    order (`admissibility.heights`).  NicholsError names the first node
    whose height is not finite or is 1: the tree does not fit the braiding."""
    h = heights(t, b)
    for a, o in h.items():
        if o is None or o == 1:
            raise NicholsError(f"tree/braiding mismatch: chi(a, a) at node {a!r} is "
                               f"{'not a root of unity' if o is None else '1'}")
    return list(h.values())


def pbw_monomials(t: FullBinaryTree, b: Braiding, up_to: int) -> list[PBWMonomial]:
    """All monomials with exponents below the generator heights and weighted
    degree at most up_to, graded then lexicographic over the node order
    (higher exponent on the Q-smaller node first)."""
    nodes = t.nbar2()
    weights = tuple(t.weight(a) for a in nodes)
    # Node by node, each (remaining degree, exponents so far) extended by
    # every exponent that fits.  A node heavier than up_to takes 0, appended
    # with the next light node's exponent: a deep tree copies no tuple per node.
    level, zeros = [(up_to, ())], 0
    for w, o in zip(weights, generator_orders(t, b)):
        if w > up_to:
            zeros += 1
            continue
        pad, zeros = (0,) * zeros, 0
        level = [(rem - e * w, exps + pad + (e,)) for rem, exps in level
                 for e in range(min(o - 1, rem // w) + 1)]
    monos = [PBWMonomial(nodes, exps + (0,) * zeros, weights) for _, exps in level]
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


class TypeVerdict(NamedTuple):
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
    leads = {a: tuple({"a": 2, "b": 1}[x] for x in reversed(christoffel(*t.stern_brocot(a))))
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
    word R(u) of tau0 at each node (module docstring, step 2)."""
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
    rows = []
    for mo in group:
        # The coefficients are products of chi values, so they lie in the
        # engine's field; clearing their denominators scales the row by a
        # positive integer, which leaves the rank unchanged.
        terms = _integer_terms(evaluate_monomial(t, b, mo), eng.conductor)[0]
        img = eng.image_vectors(terms, eng.conductor, words)
        rows.append([img.get(w, zero) for w in words])
    return exact_rank_vectors(rows, eng.conductor)


def _relation_generators(t: FullBinaryTree, b: Braiding) -> list[tuple[int, Callable]]:
    """(total degree, builder) for every generator of the relation ideal,
    in the order relation_set lists them.  Degrees are known up front from
    weight and height; a builder expands its generator only when called."""
    gens = [(t.weight(a), partial(tau0, t, b, a)) for a in t.leaves()]
    for a, o in zip(t.nbar2(), generator_orders(t, b)):
        gens.append((o * t.weight(a), lambda a=a, o=o: tau0(t, b, a) ** o))
    mixed = t.mixed()
    return gens + [(mixed[a][2], partial(_mixed_relation, t, b, a))
                   for a in t.nbar2() if a in mixed]


def _mixed_relation(t: FullBinaryTree, b: Braiding, bb: int) -> NCPoly:
    c, k, _ = t.mixed()[bb]
    if _qfact_zero(k + 1, heights(t, b)[c]):
        raise NicholsError(f"inadmissible: vanishing q-factorial at node {bb}")
    lgc, coeff = t.lgf(c), mu_of(t, b, bb) * qfact(k + 1, p_of(t, b, c)).inv()
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


def dimension(t: FullBinaryTree, b: Braiding) -> int:
    """Product of the generator heights over the extended inner nodes."""
    return math.prod(generator_orders(t, b))


def top_total_degree(t: FullBinaryTree, b: Braiding) -> int:
    """Largest total degree with a nonzero graded piece, per the monomial
    prediction."""
    return sum((o - 1) * t.weight(a) for o, a in zip(generator_orders(t, b), t.nbar2()))
