import json
import os
import subprocess
import sys
from pathlib import Path

import nichols2
from nichols2.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_exterior(capsys):
    code, out, _ = run(capsys, "classify", "--q11", "1/2", "--q12", "0/1",
                       "--q21", "0/1", "--q22", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == [[1, 1]]
    assert doc["dimension"] == 4
    assert set(doc) >= {"type", "tree", "pbw", "dimension", "relations",
                        "verified_up_to", "admissibility"}


def test_dims_cartan(capsys):
    code, out, _ = run(capsys, "dims", "--q11", "1/3", "--q12", "2/3",
                       "--q21", "0/1", "--q22", "1/3", "--degree-cap", "8")
    assert code == 0
    assert json.loads(out) == [1, 2, 4, 4, 5, 4, 4, 2, 1]


def test_dims_text_format(capsys):
    code, out, _ = run(capsys, "dims", "--q11", "1/3", "--q12", "2/3",
                       "--q21", "0/1", "--q22", "1/3", "--degree-cap", "4", "--format", "text")
    assert code == 0 and out == "1 2 4 4 5\n"


def test_python_dash_m_runs_the_command():
    env = dict(os.environ, PYTHONPATH=str(Path(nichols2.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "nichols2", "dims", "--q11", "1/3", "--q12", "2/3",
                           "--q21", "0/1", "--q22", "1/3", "--degree-cap", "4"],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1, 2, 4, 4, 5]


def test_tree_exterior(capsys):
    code, out, _ = run(capsys, "tree", "--q11", "1/2", "--q12", "0/1",
                       "--q21", "0/1", "--q22", "1/2", "--format", "text")
    assert code == 0 and out.strip() == "L"


def test_tree_failure_exit_code(capsys):
    code, out, _ = run(capsys, "tree", "--q11", "1/5", "--q12", "1/5",
                       "--q21", "0/1", "--q22", "1/5")
    assert code == 1
    assert json.loads(out)["tree"] is None


def test_deep_input_gets_a_verdict(capsys):
    # Trees far deeper than the recursion limit: the verdict of a shallow
    # chain, not an internal error.
    args = ("--q11", "1/2", "--q12", "0/1", "--q21", "0/1", "--q22", "1/3", "--degree-cap", "3")
    for depth in (1200, 5000):
        chain = "(L " * depth + "L" + ")" * depth
        code, out, err = run(capsys, "verify", *args, "--tree", chain)
        assert code == 1 and err == ""
        assert json.loads(out) == {"holds": False, "failed_degree": 2,
                                   "detail": "predicted 3 monomials, oracle dimension 2",
                                   "predicted": [1, 2, 3, 4], "dims": [1, 2, 2, 1]}
    code, out, err = run(capsys, "tree", "--q11", "1/2", "--q12", "1/4", "--q21", "0/1",
                         "--q22", "1/1", "--weight-cap", "1200")
    assert code == 1 and err == ""
    assert json.loads(out)["failure"] == ("branching node at weight 1201 exceeds the cap 1200: "
                                          "possibly infinite-dimensional or cap too small")


def test_verify_holds_and_fails(capsys):
    args = ("--q11", "1/3", "--q12", "2/3", "--q21", "0/1", "--q22", "1/3")
    code, out, _ = run(capsys, "verify", "--tree", "(L L)", *args, "--degree-cap", "8")
    assert code == 0 and json.loads(out)["holds"]
    code, out, _ = run(capsys, "verify", "--tree", "L", *args, "--degree-cap", "2")
    assert code == 1
    doc = json.loads(out)
    assert not doc["holds"] and doc["failed_degree"] == 2


def test_weight_cap_only_where_a_tree_is_reconstructed(capsys):
    # verify is given its tree, so it takes no --weight-cap; the commands
    # that reconstruct a tree still parse it.
    from nichols2.cli import build_parser

    args = ("--q11", "1/3", "--q12", "2/3", "--q21", "0/1", "--q22", "1/3")
    code, out, err = run(capsys, "verify", "--tree", "(L L)", *args, "--weight-cap", "16")
    assert code == 2 and out == "" and "--weight-cap" in err
    for argv in (("classify", *args), ("tree", *args), ("fixtures",)):
        assert build_parser().parse_args([*argv, "--weight-cap", "16"]).weight_cap == 16


def test_verify_tree_braiding_mismatch(capsys):
    # The exterior braiding has chi(root, root) = 1 on the one-branch tree,
    # which is a mismatch, not an input error.
    code, out, _ = run(capsys, "verify", "--tree", "(L L)", "--q11", "1/2",
                       "--q12", "0/1", "--q21", "0/1", "--q22", "1/2")
    assert code == 1
    doc = json.loads(out)
    assert not doc["holds"] and "mismatch" in doc["detail"]


def test_input_errors_exit_two(capsys):
    code, _, err = run(capsys, "classify", "--q11", "nope", "--q12", "0/1",
                       "--q21", "0/1", "--q22", "1/2")
    assert code == 2 and "q11" in err
    code, _, err = run(capsys, "verify", "--tree", "(L", "--q11", "1/2",
                       "--q12", "0/1", "--q21", "0/1", "--q22", "1/2")
    assert code == 2 and "tree" in err
    code, _, err = run(capsys, "classify", "--q12", "0/1", "--q21", "0/1",
                       "--q22", "1/2")
    assert code == 2
    code, _, err = run(capsys, "classify", "--q11", "0/1", "--q12", "0/1",
                       "--q21", "0/1", "--q22", "1/2")
    assert code == 0  # q11 = 1 is a legal (non-root-of-unity-order) entry


def test_scalar_outside_the_grammar_exits_two(capsys):
    # int() would read "1_0" as 10; the scalar grammar takes ASCII digits only.
    code, out, err = run(capsys, "tree", "--q11=1_0/3", "--q12", "0/1", "--q21", "0/1",
                         "--q22", "1/2")
    assert code == 2 and out == "" and "does not match the grammar k/N" in err


def test_classify_text_format(capsys):
    code, out, _ = run(capsys, "classify", "--q11", "1/2", "--q12", "0/1",
                       "--q21", "0/1", "--q22", "1/2", "--format", "text")
    assert code == 0
    assert "dimension" in out and "type matches" in out


def test_json_report_round_trips(capsys):
    _, out, _ = run(capsys, "classify", "--q11", "1/3", "--q12", "2/3",
                    "--q21", "0/1", "--q22", "1/3")
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_fixtures_command_small_cap(capsys):
    # The full matrix runs in the acceptance suite; a small cap keeps this
    # end-to-end check quick while still touching every family.
    code, out, _ = run(capsys, "fixtures", "--degree-cap", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 31 and all(row["passed"] for row in doc)
    code, out, _ = run(capsys, "fixtures", "--degree-cap", "2", "--format", "text")
    assert code == 0 and "PASS" in out


def test_negative_scalar_flags(capsys):
    # The family-6 sample braiding needs a negated scalar on the command line.
    code, out, _ = run(capsys, "tree", "--q11", "1/18", "--q12", "16/18",
                       "--q21", "0/1", "--q22", "-3/18", "--format", "text")
    assert code == 0 and out.strip() == "((L L) ((L L) L))"


def test_fixtures_exit_reflects_failures(capsys, monkeypatch):
    import nichols2.cli as cli
    from nichols2.classify import FixtureRow

    bad = FixtureRow(1, 1, False, True, True, True, True, True, True, True, 4, 2, 0.0)
    monkeypatch.setattr(cli, "run_fixture_matrix", lambda **kw: [bad])
    assert main(["fixtures"]) == 1


def test_classify_exits_one_when_relations_are_unavailable(capsys, monkeypatch):
    import nichols2.nicholscore as core

    def broken(t, b, bb):
        raise core.NicholsError("simulated expansion failure")

    monkeypatch.setattr(core, "_mixed_relation", broken)
    code, out, err = run(capsys, "classify", "--q11", "4/12", "--q12", "9/12",
                         "--q21", "0/1", "--q22", "-2/12", "--degree-cap", "6")
    assert code == 1 and err == ""
    assert "verification failed: relations unavailable" in json.loads(out)["notes"][-1]


def test_modular_route_loads_at_the_first_rank():
    # Importing the package and the CLI, and classifying a braiding without
    # the rank oracle, load neither the modular rank nor `array`; the first
    # graded dimension loads both.  Building every report type, through a
    # full classification and the fixture matrix, loads neither
    # `dataclasses` nor `inspect`, and only an internal error loads
    # `traceback`.
    script = """if True:
        import json, sys
        import nichols2, nichols2.cli
        from nichols2.admissibility import is_admissible, reconstruct_tree
        from nichols2.classify import classify_full, fixtures, match_condition, run_fixture_matrix
        from nichols2.nicholscore import dimension, hilbert_prefix

        def loaded():
            return [name in sys.modules
                    for name in ("nichols2._modular", "array", "dataclasses", "inspect",
                                 "traceback")]

        b = fixtures()[(2, 1)]
        match_condition(b)
        tree = reconstruct_tree(b, 16)
        is_admissible(tree, b, 64)
        dimension(tree, b)
        before = loaded()
        hilbert_prefix(b, 4)
        after = loaded()
        classify_full(b, 4)
        run_fixture_matrix(degree_cap=2)
        print(json.dumps([before, after, loaded()]))
    """
    env = dict(os.environ, PYTHONPATH=str(Path(nichols2.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[False, False, False, False, False],
                                       [True, True, False, False, False],
                                       [True, True, False, False, False]]


def test_internal_errors_exit_three(capsys, monkeypatch):
    import nichols2.cli as cli

    def broken(b, n):
        raise ValueError("simulated defect")

    monkeypatch.setattr(cli, "hilbert_prefix", broken)
    args = ("--q11", "1/3", "--q12", "2/3", "--q21", "0/1", "--q22", "1/3")
    code, out, err = run(capsys, "dims", *args, "--degree-cap", "4")
    assert code == 3 and out == ""
    assert "internal error in dims (ValueError): simulated defect" in err
    assert "input error" not in err
    # Running out of memory is an internal error too; the memo caches are
    # dropped before the traceback is printed.
    from conftest import assert_tables_freed, context_tables
    from nichols2 import braidedalg
    from nichols2.fbtree import TREES
    from nichols2.nicholscore import hilbert_prefix

    kept = []

    def exhausted(b, n):
        hilbert_prefix(b, n)
        kept.append((b, context_tables(TREES[2], b)))
        assert braidedalg._ENGINES
        raise MemoryError

    monkeypatch.setattr(cli, "hilbert_prefix", exhausted)
    code, out, err = run(capsys, "dims", *args, "--degree-cap", "4")
    assert code == 3 and out == ""
    assert err.splitlines()[-1] == "internal error in dims (MemoryError): "
    assert "in exhausted" in err
    # No height, lambda, bracket or oracle table of the braiding is kept.
    assert not braidedalg._ENGINES
    assert_tables_freed(kept[0][1], TREES[2], kept[0][0])
    # Caps are validated while parsing, before any work.
    code, _, err = run(capsys, "dims", *args, "--degree-cap", "-1")
    assert code == 2 and "--degree-cap" in err
    code, _, err = run(capsys, "tree", *args, "--weight-cap", "1")
    assert code == 2 and "--weight-cap" in err
