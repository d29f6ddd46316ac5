"""Exact classification of rank-2 diagonal braidings by full binary trees."""

from .cyclotomic import CycNum, format_scalar, parse_scalar, qfact, qnum, root_of_unity
from .fbtree import LGH, RGH, TREES, FullBinaryTree, parse_tree, serialize_tree
from .lyndon import Word
from .braidedalg import Braiding, NCPoly, is_zero_in_nichols, tau0
from .nicholscore import dimension, hilbert_prefix, pbw_monomials, relation_set, verify_type
from .admissibility import is_admissible, lambda_of, reconstruct_tree
from .classify import classify_full, fixtures, match_condition

__all__ = [
    "CycNum", "root_of_unity", "qnum", "qfact", "parse_scalar",
    "format_scalar", "FullBinaryTree", "TREES", "LGH", "RGH", "parse_tree",
    "serialize_tree", "Word", "Braiding", "NCPoly", "tau0",
    "is_zero_in_nichols", "hilbert_prefix", "pbw_monomials", "verify_type",
    "relation_set", "dimension", "is_admissible", "lambda_of",
    "reconstruct_tree", "match_condition", "classify_full", "fixtures",
]
