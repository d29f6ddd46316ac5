"""Command-line front end.

Braiding entries use the scalar grammar `[-]k/N` meaning an optionally
negated root of unity zeta_N^k, e.g. `1/2` is -1 and `-2/12` is the
negated twelfth root squared.  Reports are JSON by default; exit status is
0 on success or a verified result, 1 on a verification failure, 2 on an
input error (bad arguments, scalars, tree text or caps), and 3 on an
internal error, which is reported with its command, exception type and
traceback (running out of memory included).
"""

from __future__ import annotations

import argparse
import json
import sys

from .cyclotomic import CycError, parse_scalar
from .braidedalg import Braiding, BraidedError, clear_caches
from .fbtree import TreeParseError, parse_tree, serialize_tree
from .admissibility import ReconstructionError, reconstruct_tree
from .classify import classify_full, run_fixture_matrix
from .nicholscore import NicholsError, hilbert_prefix, verify_type


class InputError(ValueError):
    pass


def _braiding_from_args(args) -> Braiding:
    entries = []
    for name in ("q11", "q12", "q21", "q22"):
        text = getattr(args, name)
        if text is None:
            raise InputError(f"--{name} is required (scalar grammar [-]k/N)")
        try:
            entries.append(parse_scalar(text))
        except CycError as exc:
            raise InputError(f"--{name}: {exc}") from exc
    try:
        return Braiding(*entries)
    except BraidedError as exc:
        raise InputError(str(exc)) from exc


def _int_at_least(minimum: int):
    # argparse names the type by its function in "invalid integer value: ..."
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def _add_braiding_flags(p: argparse.ArgumentParser):
    for name in ("q11", "q12", "q21", "q22"):
        p.add_argument(f"--{name}", metavar="K/N", help=f"braiding entry {name}")


def _add_common_flags(p: argparse.ArgumentParser, caps=("degree", "weight")):
    if "degree" in caps:
        p.add_argument("--degree-cap", type=_int_at_least(0), default=8,
                       help="total degree through which the oracle verifies (default 8)")
    if "weight" in caps:
        p.add_argument("--weight-cap", type=_int_at_least(2), default=16,
                       help="largest label weight a branching node may reach (default 16)")
    p.add_argument("--format", choices=("json", "text"), default="json",
                   dest="fmt", help="output format (default json)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nichols2", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full classification report for a braiding")
    _add_braiding_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("verify", help="check a given tree against a braiding")
    _add_braiding_flags(p)
    p.add_argument("--tree", required=True, metavar="SEXPR",
                   help='tree text, e.g. "(L (L L))"')
    _add_common_flags(p, caps=("degree",))

    p = sub.add_parser("tree", help="reconstruct the tree of a braiding")
    _add_braiding_flags(p)
    _add_common_flags(p, caps=("weight",))

    p = sub.add_parser("dims", help="graded dimensions through the degree cap")
    _add_braiding_flags(p)
    _add_common_flags(p, caps=("degree",))

    p = sub.add_parser("fixtures", help="run the per-family acceptance matrix")
    _add_common_flags(p)
    return ap


def _cmd_classify(args) -> int:
    b = _braiding_from_args(args)
    report = classify_full(b, degree_cap=args.degree_cap, weight_cap=args.weight_cap)
    doc = report.to_json_dict()
    if args.fmt == "json":
        print(json.dumps(doc))
    else:
        print(f"type matches : {doc['type'] or 'none'}")
        print(f"tree         : {doc['tree'] or report.tree_failure}")
        print(f"pbw (weight, order): {doc['pbw']}")
        print(f"dimension    : {doc['dimension']}")
        if report.verify_holds is None:
            status = "not applicable"
        elif report.verify_holds:
            status = "holds"
        else:
            status = f"FAILS: {report.verify_detail}"
        print(f"verified up to degree {doc['verified_up_to']} ({status})")
        adm = doc["admissibility"]
        print(f"admissible   : {adm and adm['admissible']}")
        for rel in doc["relations"]:
            print(f"  relation: {rel}")
        for note in doc["notes"]:
            print(f"  note: {note}")
    return 1 if report.verify_holds is False else 0


def _cmd_verify(args) -> int:
    b = _braiding_from_args(args)
    try:
        t = parse_tree(args.tree)
    except TreeParseError as exc:
        raise InputError(f"--tree: {exc}") from exc
    try:
        verdict = verify_type(t, b, args.degree_cap)
    except NicholsError as exc:
        doc = {"holds": False, "failed_degree": None, "detail": str(exc)}
        print(json.dumps(doc) if args.fmt == "json" else f"fails: {exc}")
        return 1
    doc = {
        "holds": verdict.holds,
        "failed_degree": verdict.failed_degree,
        "detail": verdict.detail,
        "predicted": verdict.counts,
        "dims": verdict.dims,
    }
    if args.fmt == "json":
        print(json.dumps(doc))
    else:
        if verdict.holds:
            print(f"holds through degree {args.degree_cap}; dims {list(verdict.dims)}")
        else:
            print(f"fails at degree {verdict.failed_degree}: {verdict.detail}")
    return 0 if verdict.holds else 1


def _cmd_tree(args) -> int:
    b = _braiding_from_args(args)
    try:
        t = reconstruct_tree(b, args.weight_cap)
    except ReconstructionError as exc:
        print(json.dumps({"tree": None, "failure": str(exc)}) if args.fmt == "json"
              else f"reconstruction failed: {exc}")
        return 1
    text = serialize_tree(t)
    print(json.dumps({"tree": text}) if args.fmt == "json" else text)
    return 0


def _cmd_dims(args) -> int:
    b = _braiding_from_args(args)
    dims = hilbert_prefix(b, args.degree_cap)
    print(json.dumps(dims) if args.fmt == "json" else " ".join(map(str, dims)))
    return 0


def _cmd_fixtures(args) -> int:
    rows = run_fixture_matrix(degree_cap=args.degree_cap, weight_cap=args.weight_cap)
    if args.fmt == "json":
        doc = [{
            "type": r.type_id, "case": r.case_id, "passed": r.passed,
            "matched": r.matched, "p_table": r.p_table_ok, "lambda": r.lambda_ok,
            "tree": r.tree_ok, "admissible": r.admissible, "hilbert": r.hilbert_ok,
            "basis": r.basis_ok, "relations": r.relations_ok,
            "dimension": r.dim_value, "verified_degree": r.verified_degree,
            "seconds": round(r.seconds, 2),
        } for r in rows]
        print(json.dumps(doc))
    else:
        header = (f"{'family':<10}{'status':<8}{'dim':>12}{'D':>4}  "
                  f"match p lam tree adm hil basis rel")
        print(header)
        for r in rows:
            flags = " ".join("y" if v else "N" for v in
                             (r.matched, r.p_table_ok, r.lambda_ok, r.tree_ok,
                              r.admissible, r.hilbert_ok, r.basis_ok, r.relations_ok))
            print(f"T{r.type_id}.{r.case_id:<7}{'PASS' if r.passed else 'FAIL':<8}"
                  f"{r.dim_value:>12}{r.verified_degree:>4}  {flags}")
    return 0 if all(r.passed for r in rows) else 1


_COMMANDS = {
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "tree": _cmd_tree,
    "dims": _cmd_dims,
    "fixtures": _cmd_fixtures,
}

_SCALAR_FLAGS = {"--q11", "--q12", "--q21", "--q22"}


def _merge_negative_scalars(argv):
    # Negated scalars like `--q22 -3/18` would otherwise be read as a
    # dangling option; fold them into the `--flag=value` form.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _SCALAR_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = ap.parse_args(_merge_negative_scalars(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if isinstance(exc, MemoryError):
            # Free the braiding's context, every table in it, and the locals
            # of the failed frames below this one, so that importing and
            # printing the traceback does not run out of memory too.
            clear_caches()
            tb = exc.__traceback__.tb_next
            while tb is not None:
                tb.tb_frame.clear()
                tb = tb.tb_next
        import traceback  # loads linecache and tokenize: only on an internal error
        traceback.print_exc()
        print(f"internal error in {args.command} ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
