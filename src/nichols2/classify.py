"""The 22-family condition matcher and full classification reports.

The family conditions and sample braidings are data in `families`.  Each
condition constrains only q11, the product q12*q21, and q22, so samples set
q21 = 1 and carry the whole product in q12 (the rescaling invariance tests
justify this normal form).  A braiding may match several families; all
matches are reported and the verifier simply checks each reconstructed tree
on its own.

Each condition is a conjunction of order tests of monomials in q11,
q = q12*q21 and q22 (`Braiding.monomial_order`), congruences on their
exponents mod one L.  A braiding where q11, q or q22 is not a root of
unity matches nothing: every condition forces all three to be roots, by
an order test or by an equation with a root.

`classify_full` is the one classification pipeline.  The fixture matrix
runs it on each family's sample braiding and then checks the report
against the family.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .cyclotomic import ONE, root_of_unity
from .braidedalg import Braiding, NCPoly, format_ncpoly, is_zero_in_nichols
from .fbtree import TREES, FullBinaryTree, serialize_tree
from .admissibility import (AdmissibilityReport, PTableMismatch, ReconstructionError, heights,
                            is_admissible, lambda_table, p_table, reconstruct_tree)
from .families import CONDITIONS, SAMPLES
from .nicholscore import (NicholsError, TypeVerdict, dimension, relation_set, top_total_degree,
                          verify_type)


def match_condition(b: Braiding) -> list[tuple[int, int]]:
    """All (family, case) pairs whose condition `families.CONDITIONS` the
    braiding satisfies: some atom of each disjunction holds, each atom an
    order test of `Braiding.monomial_order`."""
    o = b.monomial_order
    if None in (o(1, 0, 0), o(0, 1, 0), o(0, 0, 1)):
        return []
    orders, out = {}, []  # each monomial's order, found once; all are >= 1, so `or` reads a miss
    for key, condition in CONDITIONS.items():
        for atoms in condition:
            for i, j, k, op, value in atoms:
                order = orders.get((i, j, k)) or orders.setdefault((i, j, k), o(i, j, k))
                if order == value or op == ">=" and order > value:
                    break
            else:
                break  # no atom of this disjunction holds
        else:
            out.append(key)
    return out


def fixtures() -> dict[tuple[int, int], Braiding]:
    """One minimal-order sample braiding per condition case, with q21 = 1,
    built from its root exponents in `families.SAMPLES`."""
    z = root_of_unity
    return {key: Braiding(z(a, L), z(c, L), ONE, z(d, L))
            for key, (L, a, c, d) in SAMPLES.items()}


class ClassificationReport:
    __slots__ = ("matches", "tree", "tree_failure", "pbw", "dimension_value", "relations",
                 "verified_up_to", "verdict", "relations_vanish", "relations_error",
                 "admissibility", "notes")

    def __init__(self, matches: list[tuple[int, int]], tree: FullBinaryTree | None,
                 tree_failure: str | None, pbw: list[tuple[int, int | None]],
                 dimension_value: int | None, relations: list[NCPoly], verified_up_to: int,
                 verdict: TypeVerdict | None, relations_vanish: bool | None,
                 relations_error: str | None, admissibility: AdmissibilityReport | None,
                 notes: list[str] | None = None):
        self.matches = matches
        self.tree = tree
        self.tree_failure = tree_failure
        self.pbw = pbw
        self.dimension_value = dimension_value
        self.relations = relations
        self.verified_up_to = verified_up_to
        # The oracle verdict and the relation zero tests through verified_up_to;
        # None when they were not run.
        self.verdict = verdict
        self.relations_vanish = relations_vanish
        self.relations_error = relations_error  # why the relations could not be expanded
        self.admissibility = admissibility
        self.notes = [] if notes is None else notes

    @property
    def verify_holds(self) -> bool | None:
        if self.verdict is None:
            return None
        return self.verdict.holds and self.relations_vanish is True

    @property
    def verify_detail(self) -> str | None:
        if self.verdict is None:
            return self.tree_failure
        parts = [self.verdict.detail]
        if self.relations_error is not None:
            parts.append(f"relations unavailable: {self.relations_error}")
        elif not self.relations_vanish:
            parts.append("a relation fails to vanish")
        return "; ".join(p for p in parts if p) or None

    def to_json_dict(self) -> dict:
        return {
            "type": [list(m) for m in self.matches],
            "tree": None if self.tree is None else serialize_tree(self.tree),
            "pbw": [list(p) for p in self.pbw],
            "dimension": (self.dimension_value if self.dimension_value is not None
                          else "not finite by this method"),
            "relations": [format_ncpoly(r) for r in self.relations],
            "verified_up_to": self.verified_up_to,
            "admissibility": (None if self.admissibility is None
                              else self.admissibility.to_json_dict()),
            "notes": list(self.notes)
            + ([f"verification failed: {self.verify_detail}"] if self.verify_holds is False
               else [])
            + ([] if self.matches else ["no classification condition matched"]),
        }


def classify_full(b: Braiding, degree_cap: int = 8, weight_cap: int = 16) -> ClassificationReport:
    """Assemble the full report: condition matches, reconstructed tree,
    generator degrees and orders, dimension, relations, and the oracle
    verification through the degree cap (recorded honestly).  Relations are
    expanded once, through the degree cap, and each within the verified
    degree is decided by one derivation walk: the symmetrizer test reads it
    at a subset of its words, the reversed basis words, so it is implied.
    Both methods run through degree 8 in the CI relation zero-test gate and
    acceptance criteria 7 and 8."""
    matches = match_condition(b)
    notes: list[str] = []
    try:
        tree = reconstruct_tree(b, weight_cap)
        tree_failure = None
    except ReconstructionError as exc:
        tree = None
        tree_failure = str(exc)
        notes.append(f"tree reconstruction failed: {exc}")

    pbw: list[tuple[int, int | None]] = []
    relations: list[NCPoly] = []
    verified_up_to = 0
    dim = verdict = relations_vanish = relations_error = adm = None
    if tree is not None:
        pbw = [(tree.weight(a), o) for a, o in heights(tree, b).items()]
        try:
            dim = dimension(tree, b)
        except NicholsError:
            notes.append("a generator order is infinite or one; "
                         "dimension not finite by this method")
        else:
            try:
                relations = relation_set(tree, b, degree_cap)
            except NicholsError as exc:
                relations_error = str(exc)
            else:
                # One generator per leaf, per extended inner node and per mixed node.
                gens = len(tree.leaves()) + len(tree.nbar2()) + len(tree.mixed())
                if gens > len(relations):
                    notes.append(f"{gens - len(relations)} relation generators above "
                                 f"degree {degree_cap} not expanded")
            if not b.of_roots:
                # The rank oracle, behind verification, takes roots only.
                notes.append("a braiding entry is not a root of unity; the oracle "
                             "and the relation zero tests were not run")
            else:
                verified_up_to = min(degree_cap, top_total_degree(tree, b))
                verdict = verify_type(tree, b, verified_up_to)
                if verdict.unexercised_nodes:
                    notes.append(f"{len(verdict.unexercised_nodes)} generators lie above "
                                 f"degree {verified_up_to}; their strata were not exercised")
                if relations_error is None:
                    relations_vanish = all(  # a relation is homogeneous: any word's length
                        is_zero_in_nichols(b, rel, "derivations")
                        for rel in relations if len(next(iter(rel.coords), ())) <= verified_up_to)
        adm = is_admissible(tree, b, degree_cap)
    return ClassificationReport(matches, tree, tree_failure, pbw, dim, relations,
                                verified_up_to, verdict, relations_vanish,
                                relations_error, adm, notes)


class FixtureRow(NamedTuple):
    type_id: int
    case_id: int
    matched: bool
    p_table_ok: bool
    lambda_ok: bool
    tree_ok: bool
    admissible: bool
    hilbert_ok: bool
    basis_ok: bool
    relations_ok: bool
    dim_value: int
    verified_degree: int
    seconds: float

    @property
    def passed(self) -> bool:
        return (self.matched and self.p_table_ok and self.lambda_ok and self.tree_ok
                and self.admissible and self.hilbert_ok and self.basis_ok
                and self.relations_ok)


def _matches_table(table, n: int, b: Braiding, c: int) -> bool:
    try:
        table(n, b, c)
    except PTableMismatch:
        return False
    return True


def run_fixture_matrix(degree_cap: int = 8, weight_cap: int = 16) -> list[FixtureRow]:
    """Classify each family's sample braiding and check the report against
    the family: condition self-match, golden scalar tables, the family tree,
    admissibility, degree-capped dimension agreement with the monomial
    prediction, basis independence, and relation vanishing."""
    rows = []
    for (n, c), b in sorted(fixtures().items()):
        t0 = time.monotonic()
        report = classify_full(b, degree_cap, weight_cap)
        tree, verdict, adm = report.tree, report.verdict, report.admissibility
        # The report's admissibility covers the degree cap; the family tree
        # must pass at every node, heavier ones included.
        adm_ok = adm is not None and not (adm.failures or adm.beyond)
        hilbert_ok = verdict is not None and verdict.counts == verdict.dims
        rows.append(FixtureRow(n, c, (n, c) in report.matches,
                               _matches_table(p_table, n, b, c),
                               _matches_table(lambda_table, n, b, c),
                               tree == TREES[n], adm_ok, hilbert_ok,
                               verdict is not None and verdict.holds,
                               report.relations_vanish is True,
                               report.dimension_value or 0, report.verified_up_to,
                               time.monotonic() - t0))
    return rows
