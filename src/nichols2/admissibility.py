"""Node scalars of a (tree, braiding) pair and the admissibility predicate.

The scalar lambda decides branching (an inner node must have lambda != 0,
a leaf lambda == 0), mu feeds the coefficients of the mixed commutation
relations, and nu is the obstruction that must vanish where a mixed
relation crosses a long left branch.  Every lambda is a coordinate tuple at
the common conductor of the braiding's entries, grown from its parent's by
one step, `_lambda_step`: tree reconstruction takes that step while it
grows a tree from the root, and `_lambdas` takes it over the nodes of a
given tree, kept with the heights in the per-tree part of the braiding's
context (`braidedalg._engine`) and freed with it.
The step adds two bicharacter values read as coordinates by
`Braiding.chi_at`; bimultiplicativity gives chi(u, v)^-1 = chi(-u, v), so no
inverse is formed, and for a braiding of roots of unity each value is one
row of the table `cyclotomic.root_vectors`, picked by its exponent.

Every root-of-unity condition asks the order of a monomial
q11^i (q12 q21)^j q22^k, `Braiding.monomial_order`: exponent arithmetic
mod L where the three are powers of one zeta_L, a scalar only otherwise.
chi(a, a) at label (r, s) has exponents (r^2, rs, s^2); its order, also
ord p_a, is the generator height at a.  `heights` is the one table of these
orders, read by the p-root, p = -1 (height 2) and q-factorial conditions
(the last, `_qfact_zero`, also decides `nicholscore._mixed_relation`'s),
the branch-length checks, `nicholscore.generator_orders` and the report's
PBW list.  [m]_p = 0 when m = 0 or p has an order other than 1 dividing m.
Reconstruction cross-checks the branch lengths against closed-form
minimality conditions, each a q-integer times a difference, one monomial
test per factor.
`_nu_vanishes` decides nu = 0 with its q-integer denominators multiplied
out, on coordinate rows at the braiding's conductor: no inverse is formed.
The paper's p-sequences and lambda closed forms are data in `families`,
read by `p_table` and `lambda_table` through one evaluator, `_monomial_sum`.
"""

from __future__ import annotations

from .cyclotomic import CycNum, ZERO, euler_phi, vector_product
from .families import GOLDEN_P, LAMBDA_FORMS
from .fbtree import LGH, RGH, FullBinaryTree, TREES, Virtual
from .braidedalg import Braiding, _engine


class StructureError(ValueError):
    """The tree violates the standing branch-length hypothesis."""


class ScalarDomainError(ValueError):
    """A node scalar was requested outside its domain."""


class NuDenominatorError(ArithmeticError):
    """A q-integer denominator in nu vanished; the node is inadmissible."""

    def __init__(self, node, which: str):
        super().__init__(f"vanishing {which} denominator at node {node}")
        self.node = node


class ReconstructionError(RuntimeError):
    pass


class NicholsError(ValueError):
    pass


class PTableMismatch(AssertionError):
    """A computed scalar differs from the paper's table; entry names the
    table entry, such as "p_3" or "lambda at node 5"."""

    def __init__(self, type_id: int, case_id: int, entry: str, got, want):
        super().__init__(f"type {type_id} case {case_id}: {entry} computed {got} != table {want}")


def p_of(t: FullBinaryTree, b: Braiding, a) -> CycNum:
    """p_a = chi(a, a)^-1 = chi(-a, a), the inverse self-pairing scalar of a node."""
    r, s = t.stern_brocot(a)
    return b.chi((-r, -s), (r, s))


def _pairing(t: FullBinaryTree, a) -> tuple[int, int, int]:
    """The exponents (r^2, rs, s^2) of chi(a, a) at the label (r, s) of a."""
    r, s = t.stern_brocot(a)
    return r * r, r * s, s * s


def _qnum_zero(m: int, o: int | None) -> bool:
    """Whether [m]_p = 0 for p of order o (None: not a root of unity):
    [m]_1 = m, and otherwise [m]_p = (p^m - 1)/(p - 1)."""
    return m == 0 or (o is not None and o != 1 and m % o == 0)


def _qfact_zero(m: int, o: int | None) -> bool:
    """Whether [m]!_p = [1]_p [2]_p ... [m]_p = 0 for p of order o."""
    return any(_qnum_zero(j, o) for j in range(1, m + 1))


def heights(t: FullBinaryTree, b: Braiding) -> dict:
    """{a: ord chi(a, a)} over the extended inner nodes in Q order, None where
    chi(a, a) is not a root of unity: the PBW generator heights (Kharchenko's
    PBW theorem).  The table is built once into the per-tree part of the
    braiding's context; its readers share the dict and do not change it."""
    ctx = _engine(b).on_tree(t)
    if ctx.heights is None:
        ctx.heights = {a: b.monomial_order(*_pairing(t, a)) for a in t.nbar2()}
    return ctx.heights


def _lambda_step(b: Braiding, n: int, lam: tuple, u, v) -> tuple:
    """lam + chi(u, v)^-1 - chi(v, u) on coordinates at conductor n: the
    lambda of the node with godfather labels u (left) and v (right), given
    its parent's lambda (the zero tuple at the root).  The inverse is
    chi(-u, v), so both terms are coordinate rows from `Braiding.chi_at`."""
    return tuple([x + y - z for x, y, z in
                  zip(lam, b.chi_at((-u[0], -u[1]), v, n), b.chi_at(v, u, n))])


def _lambdas(t: FullBinaryTree, b: Braiding) -> tuple:
    """lams[a] is the lambda of real node a at the braiding's conductor, kept
    in the per-tree part of the braiding's context.  Nodes are numbered in
    preorder, so each parent's entry is ready before its children's."""
    ctx = _engine(b).on_tree(t)
    if ctx.lambdas is None:
        n, lams = b.conductor, []
        for a in t.nodes():
            par = t.parent[a]
            lam = (0,) * euler_phi(n) if par is None else lams[par]
            lams.append(_lambda_step(b, n, lam, t.stern_brocot(t.lgf(a)),
                                     t.stern_brocot(t.rgf(a))))
        ctx.lambdas = tuple(lams)
    return ctx.lambdas


def lambda_of(t: FullBinaryTree, b: Braiding, a) -> CycNum:
    """The branching scalar: chi(lgf, rgf)^-1 - chi(rgf, lgf) accumulated
    down the ancestor chain (zero on the virtual nodes), read from the
    coordinate table of `_lambdas`."""
    if isinstance(a, Virtual):
        return ZERO
    return CycNum(b.conductor, _lambdas(t, b)[a])


def mu_of(t: FullBinaryTree, b: Braiding, a: int) -> CycNum:
    """Coefficient scalar for mixed relations; defined when lgf(a) is real."""
    c = t.lgf(a)
    if not isinstance(c, int):
        raise ScalarDomainError(f"mu undefined: lgf({a}) is virtual")
    if t.rch(c) == a:
        return lambda_of(t, b, a)
    return lambda_of(t, b, a) * mu_of(t, b, t.rgf(a))


def _nu_vanishes(t: FullBinaryTree, b: Braiding, a: int) -> bool:
    """Whether nu = 0 at a node a with a real left godfather c and k = rgfl <= 2,
    for g = lgf c, f = rgf c and [m]_x = [m]_{p_x}:
        k = 1: nu = chi(g, a)^-1 - chi(a, g) + lambda_a lambda_c ([2]_f^-1 - [2]_c^-1),
        k = 2: nu = chi(g, rc)^-1 + lambda_c lambda_rc [2]_c^-1 ([2]_f^-1 - [3]_c^-1).
    Times its denominators it is a sum of products of coordinate rows at the
    braiding's conductor.  A zero denominator raises NuDenominatorError, itself a
    sign of inadmissibility."""
    c, k, _ = t.mixed()[a]
    n, lams = b.conductor, _lambdas(t, b)
    label = t.stern_brocot
    g = label(t.lgf(c))

    def qint(m, x):  # [m]_{p_x}: the sum of chi(-j x, x) = p_x^j over j < m
        r, s = label(x)
        return [sum(col) for col in zip(*(b.chi_at((-j * r, -j * s), (r, s), n)
                                          for j in range(m)))]

    if k == 1:
        x, y = a, c
        lhs = [u - v for u, v in zip(b.chi_at((-g[0], -g[1]), label(a), n),
                                     b.chi_at(label(a), g, n))]
    else:
        x, y = c, t.rch(c)
        lhs = b.chi_at((-g[0], -g[1]), label(y), n)
    mul = vector_product(n)
    dens = [qint(2, t.rgf(c)), qint(2, c)] + ([qint(3, c)] if k == 2 else [])
    for row, which in zip(dens, ("[2]_{p_f}", "[2]_{p_c}", "[3]_{p_c}")):
        if not any(row):
            raise NuDenominatorError(a, which)
        lhs = mul(lhs, row)
    rhs = mul(mul(lams[x], lams[y]), [u - v for u, v in zip(dens[-1], dens[0])])
    return not any(u + v for u, v in zip(lhs, rhs))


def check_branch_hypothesis(t: FullBinaryTree) -> None:
    """The standing structural hypothesis: below every inner node, either
    the left child's right branch or the right child's left branch has
    length at most 3."""
    for a in t.internal():
        if min(t.rchl(t.lch(a)), t.lchl(t.rch(a))) > 3:
            raise StructureError(f"node {a} violates the branch-length hypothesis")


class AdmissibilityReport:
    __slots__ = ("admissible", "failures", "checked_up_to", "beyond")

    def __init__(self, admissible: bool, failures: list | None = None, checked_up_to: int = 0,
                 beyond: list | None = None):
        self.admissible = admissible
        self.failures = [] if failures is None else failures  # (condition id, node, explanation)
        self.checked_up_to = checked_up_to
        # The failures above checked_up_to, found by the same evaluation; they
        # are not part of the report's verdict, equality or JSON form.
        self.beyond = [] if beyond is None else beyond

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.admissible, self.failures, self.checked_up_to)
                == (other.admissible, other.failures, other.checked_up_to))

    def to_json_dict(self):
        return {
            "admissible": self.admissible,
            "checked_up_to": self.checked_up_to,
            "failures": [
                {"condition": cond, "node": repr(node), "explanation": why}
                for cond, node, why in self.failures
            ],
        }


def is_admissible(t: FullBinaryTree, b: Braiding, n: int) -> AdmissibilityReport:
    """Evaluate the four admissibility conditions at every node and report
    those up to label weight n; the rest go to `beyond`."""
    check_branch_hypothesis(t)
    failures = []  # (label weight, condition id, node, explanation)

    lams = _lambdas(t, b)
    for a in t.nodes():
        zero = not any(lams[a])
        if t.is_leaf(a) and not zero:
            failures.append((t.weight(a), "branching", a, "leaf with nonzero lambda"))
        if not t.is_leaf(a) and zero:
            failures.append((t.weight(a), "branching", a, "inner node with lambda = 0"))

    h = heights(t, b)
    for a, o in h.items():
        if o is None or o == 1:
            failures.append((t.weight(a), "p-root", a, "p = 1" if o == 1 else "p is not a root of unity"))

    for a in t.internal():
        la = t.lch(a)
        if t.is_leaf(la):
            continue
        for x, p in ((a, "p_a"), (t.rgf(a), "p_{rgf a}")):
            if h[x] == 2:
                failures.append((t.weight(la), "p-not-minus-one", a,
                                 f"{p} = -1 with inner left child"))

    for bb, (c, k, w) in t.mixed().items():
        if _qfact_zero(k + 1, h[c]):
            failures.append((w, "q-factorial", bb, f"[{k + 1}]! at p_c vanishes"))
            continue
        if t.rchl(t.lch(c)) <= k:
            continue
        if k > 2:
            failures.append((w, "mixed-relation", bb, "no admissible branch configuration"))
            continue
        try:
            if not _nu_vanishes(t, b, bb):
                failures.append((w, "mixed-relation", bb, "nu does not vanish"))
        except NuDenominatorError as exc:
            failures.append((w, "mixed-relation", bb, str(exc)))

    reported = [f[1:] for f in failures if f[0] <= n]
    return AdmissibilityReport(not reported, reported, n,
                               [f[1:] for f in failures if f[0] > n])


# -- tree reconstruction -------------------------------------------------------


def _branch_length_formula_checks(t: FullBinaryTree, b: Braiding) -> None:
    # Independent validation of the reconstructed branch lengths: each
    # outer spine length and each inner left-branch length must be the
    # first index m where a closed-form expression vanishes.  Each is
    # [m + s]_p (u^m x - 1) for monomials u = p^+-1 and x, ord u a height
    # (chi(RGH, RGH) = q11, chi(LGH, LGH) = q22), so it vanishes exactly when
    # the q-integer does or u^m x = 1: on the right spine
    # [m]_{q11^-1} (q11^(1-m) (q12 q21)^-1 - 1), on the left the same in q22,
    # and below node a [m + s]_{p_a} (p_r p_a^(s-m) p_l^-1 - 1), s = lchl(rch a).
    def check_min(length, s, x, u, o, what):
        for m in range(1, length + 1):
            zero = (_qnum_zero(m + s, o)
                    or b.monomial_order(*(i + m * j for i, j in zip(x, u))) == 1)
            if m < length and zero:
                raise ReconstructionError(f"{what}: expression vanishes early at {m}")
            if m == length and not zero:
                raise ReconstructionError(f"{what}: expression nonzero at {m}")

    h = heights(t, b)
    check_min(t.rchl(0), 0, (1, -1, 0), (-1, 0, 0), h[RGH], "right spine length")
    check_min(t.lchl(0), 0, (0, -1, 1), (0, 0, -1), h[LGH], "left spine length")
    for a in t.internal():
        # p_y = chi(y, y)^-1, so u = chi(a, a) and x = chi(a, a)^-s chi(l, l) chi(r, r)^-1.
        pa, pr, pl = (_pairing(t, y) for y in (a, t.rgf(a), t.lgf(a)))
        s = t.lchl(t.rch(a))
        check_min(t.rchl(t.lch(a)), s, [y - z - s * w for w, y, z in zip(pa, pl, pr)], pa,
                  h[a], f"left branch below node {a}")


def reconstruct_tree(b: Braiding, max_weight: int = 16) -> FullBinaryTree:
    """Grow the tree of a braiding from the root: a node branches exactly
    when its lambda is nonzero.

    Every bicharacter value lies in Q(zeta_n), n the common conductor of
    the entries, so lambda is carried as its coordinate tuple there: each
    `_lambda_step` adds chi(-u, v) - chi(v, u) coordinate by coordinate,
    and the zero test reads the tuple.

    Fails when a branching node would exceed max_weight (the braiding is
    then possibly of infinite type, or the cap too small) or when a
    branching node's p is not a root of unity.  The finished tree is
    cross-checked against closed-form branch-length minimality conditions,
    each product tested factor by factor.
    """
    if max_weight < 2:
        raise ValueError("max_weight must be at least 2")
    n, root = b.conductor, [None]
    # Nodes to grow, the next on top: its slot (children list, index), its
    # godfathers' labels u, v and its parent's lambda.  The stack keeps the
    # preorder, left-first checks of a recursion, and meets no depth limit.
    todo = [(root, 0, (0, 1), (1, 0), (0,) * euler_phi(n))]
    while todo:
        slot, i, u, v, lam = todo.pop()
        lam = _lambda_step(b, n, lam, u, v)
        if not any(lam):
            continue  # a leaf: the slot stays None
        stbr = (u[0] + v[0], u[1] + v[1])
        weight = stbr[0] + stbr[1]
        if weight > max_weight:
            raise ReconstructionError(
                f"branching node at weight {weight} exceeds the cap {max_weight}: "
                "possibly infinite-dimensional or cap too small")
        # p = chi(a, a)^-1 is a root of unity exactly when chi(a, a) is.
        if b.monomial_order(stbr[0] ** 2, stbr[0] * stbr[1], stbr[1] ** 2) is None:
            raise ReconstructionError(
                f"branching node at label {stbr} has non-root-of-unity p")
        slot[i] = node = [None, None]
        todo += ((node, 1, stbr, v, lam), (node, 0, u, stbr, lam))
    t = FullBinaryTree(root[0])
    _branch_length_formula_checks(t, b)
    return t


# -- the paper's scalar tables ---------------------------------------------------


def sorted_internal(t: FullBinaryTree) -> list[int]:
    """Inner nodes ascending in the Q order (the a_i indexing)."""
    return list(t.nbar2()[1:-1])


def _monomial_sum(b: Braiding, monomials) -> CycNum:
    """The sum of sign q11^i q^j q22^k, q = q12*q21, over signed monomials
    (sign, i, j, k): the one reader of `families.GOLDEN_P` and `LAMBDA_FORMS`."""
    q = b.q12 * b.q21
    return sum((sign * b.q11 ** i * q ** j * b.q22 ** k for sign, i, j, k in monomials), ZERO)


def p_table(type_id: int, b: Braiding, case_id: int = 1) -> list[CycNum]:
    """Compute the p-sequence of a type's tree under a braiding and check it
    against the paper's signed monomials; mismatches raise PTableMismatch."""
    t = TREES[type_id]
    monomials = GOLDEN_P[type_id, case_id]
    computed = [p_of(t, b, a) for a in sorted_internal(t)]
    if len(computed) != len(monomials):
        raise PTableMismatch(type_id, case_id, "p-sequence length", len(computed), len(monomials))
    for n, (got, monomial) in enumerate(zip(computed, monomials), 1):
        want = _monomial_sum(b, (monomial,))
        if got != want:
            raise PTableMismatch(type_id, case_id, f"p_{n}", got, want)
    return computed


def lambda_table(type_id: int, b: Braiding, case_id: int = 1) -> list[CycNum]:
    """Computed lambda values at the nodes with listed closed forms, checked
    against those forms: q21^-1 times a sum of signed monomials."""
    t = TREES[type_id]
    out = []
    for a, monomials in LAMBDA_FORMS.get((type_id, case_id), ()):
        got = lambda_of(t, b, a)
        want = b.q21.inv() * _monomial_sum(b, monomials)
        if got != want:
            raise PTableMismatch(type_id, case_id, f"lambda at node {a}", got, want)
        out.append(got)
    return out
