"""Degree-truncated oracle for the braided quotient algebra.

The dimension of each graded piece is the exact rank of the quantum
symmetrizer over Q(zeta_N), computed per bidegree (the symmetrizer
preserves the bidegree splitting).  The ranks are taken over a spanning
set rather than over all words.  The kernels of the symmetrizers S_m
together form the Nichols ideal, a two-sided ideal: the kernel of the
algebra map to the quantum shuffle algebra (Andruskiewitsch-Schneider,
"Pointed Hopf algebras", 2002).  So if the classes of the words w form a
basis of degree m - 1, the image of S_m is spanned by the S_m(x_j w), and
the words of the pivot rows of that matrix form a basis of degree m.

The columns are reduced the same way.  The coefficient of u in S_m(v) is
the coefficient of v in S_m'(u), where S_m' is the symmetrizer of the
transposed braiding (q11, q21, q12, q22); so the columns are S_m'-images,
and by the same ideal argument they are spanned by the columns at x_j u
for words u whose S_m'-images form a basis one degree down.  The pivot
columns of a rank are such words.  Rows spanning the row space and
columns spanning the column space give a submatrix of full rank, whose
pivot rows are still basis words.  Each bidegree (r, s) therefore ranks
a square block: the candidates 1.w and 2.w for the basis words w of
(r - 1, s) and (r, s - 1), at the columns 1.u and 2.u for their pivot
column words u.  Both word lists are kept per braiding, so a degree is
computed from the degree below it.

Every rank is exact (`_linalg.exact_rank_vectors`).  It is found modulo a
prime p = 1 (mod N) and reported only with two certificates: a nonzero
minor mod p on the pivot rows, which proves them independent, and an exact
check of every other row's dependency on them, lifted by rational
reconstruction from p and any earlier such primes, which proves they span.
A mod-p rank is never reported on its own; where a certificate fails, the
next such prime is tried.

Monomial bases predicted by a tree are verified against that oracle both
by counting and by rank of the symmetrized monomial matrix (taken at the
column words of each bidegree, which keeps the rank), so a wrong tree
fails loudly.  Independence needs only the lower-bound certificate: the
monomial rows are built in F_p at a root of Phi_N mod p, and full rank
there proves the monomials independent.  The exact rows, and their exact
rank, are built only for a bidegree whose rank mod p falls short, which
is how a dependence is ever reported.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from operator import mul

from ._linalg import exact_rank_vectors
from .braidedalg import Braiding, NCPoly, _engine, is_zero_in_nichols, tau0
from .cyclotomic import qfact
from .fbtree import FullBinaryTree
from .admissibility import NicholsError, generator_height, mu_of, p_of


def _pivot_words(eng, r: int, s: int) -> tuple[list, list]:
    """Basis words of the bidegree-(r, s) piece and the words of the pivot
    columns of its rank, from those of the two bidegrees below it (which
    must be known)."""
    cands, cols = [], []
    if r:
        cands += [(1,) + w for w in eng.pivot_words[(r - 1, s)]]
        cols += [(1,) + u for u in eng.pivot_cols[(r - 1, s)]]
    if s:
        cands += [(2,) + w for w in eng.pivot_words[(r, s - 1)]]
        cols += [(2,) + u for u in eng.pivot_cols[(r, s - 1)]]
    if not cands:
        return [], []
    zero = (0,) * eng.deg
    rows = []
    for w in cands:
        img = eng.image_vectors(w, cols)
        rows.append([img.get(u, zero) for u in cols])
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    exact_rank_vectors(rows, eng.conductor, pivot_rows=pivot_rows, pivot_cols=pivot_cols)
    return [cands[i] for i in pivot_rows], [cols[j] for j in pivot_cols]


def dim_at_degree(b: Braiding, m: int) -> int:
    """Exact dimension of the degree-m piece: the symmetrizer rank, taken
    over the spanning set x_j.w built from the basis words of degree m - 1,
    at the columns x_j.u built from its pivot column words.
    Lower degrees not yet known for this braiding are computed first, and
    a zero degree makes every higher one zero."""
    if m < 0:
        raise NicholsError("degree must be nonnegative")
    eng = _engine(b)
    known = eng.pivot_words
    for d in range(1, m + 1):
        for r in range(d + 1):
            if (r, d - r) not in known:
                known[(r, d - r)], eng.pivot_cols[(r, d - r)] = _pivot_words(eng, r, d - r)
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

    Independence needs only a lower bound on the rank of each bidegree's
    monomial rows, so they are first built in F_p (`_MonomialScreen`), and
    full rank there proves it.  The exact rows are built, and their exact
    rank decides, only where the rank mod p falls short."""
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
    screen = _MonomialScreen(t, b, eng)
    for bideg, group in sorted(_monomials_by_bidegree(t, monos).items()):
        words = eng.pivot_cols[bideg]
        if screen.rank(group, words) == len(group):
            continue
        rank = _exact_monomial_rank(t, b, eng, group, words)
        if rank != len(group):
            m = bideg[0] + bideg[1]
            return TypeVerdict(False, m,
                               f"monomials of bidegree {bideg} dependent modulo the "
                               f"kernel (rank {rank} of {len(group)})",
                               counts, dims, heavy)
    return TypeVerdict(True, None, None, counts, dims, heavy)


def _monomials_by_bidegree(t: FullBinaryTree, monos) -> dict[tuple[int, int], list[PBWMonomial]]:
    """The monomials of weighted degree at least 2, grouped by bidegree."""
    labels = [t.stern_brocot(a) for a in t.nbar2()]
    groups: dict[tuple[int, int], list[PBWMonomial]] = defaultdict(list)
    for mo in monos:
        if mo.weighted_degree() >= 2:
            groups[mo.multidegree(labels)].append(mo)
    return groups


def _exact_monomial_rank(t: FullBinaryTree, b: Braiding, eng, group, words) -> int:
    """Exact rank of the symmetrized monomials at the column words."""
    zero = (0,) * eng.deg
    cols = set(words)
    rows = []
    for mo in group:
        # The coefficients are products of chi values, so they lie in the
        # engine's field.
        img = eng.symmetrize(evaluate_monomial(t, b, mo), eng.conductor, cols)
        rows.append([img.get(w, zero) for w in words])
    return exact_rank_vectors(rows, eng.conductor)


class _MonomialScreen:
    """The monomial rows of one `verify_type` call in F_p.

    p is `_modular.split_prime(N)` for the engine's conductor N, and z -> w,
    for the first primitive N-th root of unity w mod p, is a ring map from
    Z[zeta_N] onto F_p.  The braiding's entries are roots of unity, so every
    coefficient of `tau0` on a node and every symmetrizer image coefficient
    lies in Z[zeta_N]: its coordinates at N are ints, and `residue` maps
    them.  Each such coefficient is mapped once; a monomial is then a
    product of node polynomials mod p, with the powers tau(a)^e kept for
    the call, and its row at a column word u is sum_v c_v S(v)_u mod p over
    its terms c_v v.  The rank of these rows is a lower bound on the exact
    rank, so it can prove independence and never anything else.
    """

    def __init__(self, t: FullBinaryTree, b: Braiding, eng):
        # Imported on the first screen, like the rank route in `_linalg`.
        from ._modular import split_prime, split_roots

        self.t, self.b, self.eng = t, b, eng
        self.p = split_prime(eng.conductor)
        self.powers = split_roots(eng.conductor)[0][0]  # w^i for i < phi(N)
        self._node_powers: dict = {}  # (node, e) -> tau(node)^e mod p

    def residue(self, vec) -> int:
        """The integer coordinate vector vec at N, mod p under z -> w."""
        return sum(map(mul, vec, self.powers)) % self.p

    def poly(self, rho: NCPoly) -> dict:
        """rho with its coefficients mod p, zeros dropped."""
        n = self.eng.conductor
        return {w: x for w, c in rho.terms.items() if (x := self.residue(c._lift(n)))}

    def _mul(self, f: dict, g: dict) -> dict:
        p, out = self.p, {}
        get = out.get
        for w1, c1 in f.items():
            for w2, c2 in g.items():
                w = w1 + w2
                out[w] = get(w, 0) + c1 * c2
        return {w: c % p for w, c in out.items() if c % p}

    def _power(self, node, e: int) -> dict:
        key = (node, e)
        if key not in self._node_powers:
            self._node_powers[key] = (
                self.poly(tau0(self.t, self.b, node)) if e == 1
                else self._mul(self._power(node, e - 1), self._power(node, 1)))
        return self._node_powers[key]

    def monomial(self, mono: PBWMonomial) -> dict:
        """`evaluate_monomial` mod p."""
        acc = {(): 1}
        for node, e in zip(mono.nodes, mono.exponents):
            if e:
                acc = self._mul(acc, self._power(node, e))
        return acc

    def rows(self, polys, words) -> list[list[int]]:
        """Symmetrizer images mod p of polynomials mod p whose words share
        one bidegree, at the given words of that bidegree."""
        p, eng = self.p, self.eng
        index = {u: j for j, u in enumerate(words)}
        images: dict = {}  # word -> [(column, image coefficient mod p)]
        out = []
        for poly in polys:
            row = [0] * len(words)
            for v, c in poly.items():
                img = images.get(v)
                if img is None:
                    img = images[v] = [(index[u], self.residue(vec))
                                       for u, vec in eng.image_vectors(v, words).items()]
                for j, x in img:
                    row[j] += c * x
            out.append([x % p for x in row])
        return out

    def rank(self, group, words) -> int:
        """Rank mod p of the group's symmetrized monomials at the words."""
        from ._modular import rank_mod_p

        return rank_mod_p(self.rows([self.monomial(mo) for mo in group], words), self.p)


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
