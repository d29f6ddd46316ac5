"""The family data module: plain data, and every table keyed by the same cases."""

import ast
from pathlib import Path

from nichols2 import families
from nichols2.fbtree import TREES


def test_family_tables_are_plain_data():
    # No code in the data module: no import, lambda, call or definition.
    code = (ast.Import, ast.ImportFrom, ast.Lambda, ast.Call, ast.FunctionDef, ast.ClassDef)
    module = ast.parse(Path(families.__file__).read_text())
    assert not [node for node in ast.walk(module) if isinstance(node, code)]


def test_family_tables_share_their_cases():
    cases = set(families.CONDITIONS)
    assert len(cases) == 31 and set(families.SAMPLES) == set(families.GOLDEN_P) == cases
    assert set(families.LAMBDA_FORMS) <= cases
    assert set(families.TREE_TEXT) == {n for n, _ in cases} == set(range(1, 23))
    for condition in families.CONDITIONS.values():
        assert condition and all(atoms for atoms in condition)
        assert {atom[3] for atoms in condition for atom in atoms} <= {"==", ">="}
    for (n, _), forms in families.LAMBDA_FORMS.items():
        for a, monomials in forms:
            assert 0 <= a < TREES[n].size() and monomials
