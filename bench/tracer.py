"""Span tracer for the benchmark's traced runs.

Wraps public functions of the nichols2 modules from the outside (no file
under src/ is touched) and records, per wrapped call, a span: name, start,
end, parent span, run id and workload id.  Self time of a span is its
duration minus the time covered by its child spans; since one thread runs
the workload, children never overlap, so that is the sum of their durations.

The cyclotomic scalar layer is called hundreds of thousands of times per
run, so it is traced as one aggregate layer: every call is counted, the
outermost call of a nest is timed (its time is subtracted from the
enclosing span's self time like any child span), and no per-call span is
stored.  The same holds for the call counter on skew_derivation.

Work done by the tracer itself (inspecting rank inputs) is taken out of
every self time, so the summed self times never exceed the traced wall time.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

_CYC = "cyclotomic"

# (module, attribute path, span name).  Every reference to the same
# function object in a nichols2 module (a "from ... import" name) or in the
# owning class (an alias such as __rmul__ = __mul__) is replaced as well.
_SPANS = [
    ("_linalg", "exact_rank_vectors", "linalg.rank"),
    ("braidedalg", "_SymEngine.image_vectors", "braidedalg.images"),
    ("braidedalg", "Braiding.__init__", "braidedalg.braiding_init"),
    ("nicholscore", "verify_type", "nicholscore.verify_type"),
    ("nicholscore", "evaluate_monomial", "nicholscore.evaluate_monomial"),
    ("nicholscore", "dim_at_degree", "nicholscore.dim_at_degree"),
    ("nicholscore", "relation_set", "nicholscore.relations"),
    ("classify", "match_condition", "classify.match_condition"),
    ("admissibility", "reconstruct_tree", "admissibility.reconstruct_tree"),
    ("admissibility", "is_admissible", "admissibility.is_admissible"),
    ("admissibility", "p_table", "admissibility.tables"),
    ("admissibility", "lambda_table", "admissibility.tables"),
]

_CYCLOTOMIC = [
    ("CycNum.__init__", "init"), ("CycNum.__add__", "add"), ("CycNum.__sub__", "sub"),
    ("CycNum.__rsub__", "rsub"), ("CycNum.__neg__", "neg"), ("CycNum.__mul__", "mul"),
    ("CycNum.__truediv__", "truediv"), ("CycNum.__rtruediv__", "rtruediv"),
    ("CycNum.__pow__", "pow"), ("CycNum.__eq__", "eq"), ("CycNum._lift", "lift"),
    ("CycNum.inv", "inv"), ("CycNum.order", "order"), ("root_of_unity", "root_of_unity"),
    ("qnum", "qnum"), ("qfact", "qfact"),
]

# Per-layer metrics reported by a traced run, with their units.
LAYER_METRICS = {
    "linalg.rank.calls": "count", "linalg.rank.self_s": "s",
    "linalg.rank.max_rows": "count", "linalg.rank.cells": "count",
    "linalg.rank.input_bits_max": "bit", "linalg.rank.full_rank_ratio": "ratio",
    "braidedalg.images.calls": "count", "braidedalg.images.self_s": "s",
    "braidedalg.image_cache_entries": "count",
    "braidedalg.zero_symmetrizer.calls": "count", "braidedalg.zero_symmetrizer.self_s": "s",
    "braidedalg.zero_derivations.calls": "count", "braidedalg.zero_derivations.self_s": "s",
    "braidedalg.skew_derivation.calls": "count",
    "nicholscore.verify_type.self_s": "s",
    "nicholscore.evaluate_monomial.calls": "count", "nicholscore.evaluate_monomial.self_s": "s",
    "nicholscore.dim_at_degree.self_s": "s", "nicholscore.relations.self_s": "s",
    "cyclotomic.mul.calls": "count", "cyclotomic.inv.calls": "count",
    "cyclotomic.order.calls": "count", "cyclotomic.self_s": "s",
    "braidedalg.braiding_init.calls": "count", "braidedalg.braiding_init.self_s": "s",
    "classify.match_condition.calls": "count", "classify.match_condition.self_s": "s",
    "admissibility.reconstruct_tree.calls": "count",
    "admissibility.reconstruct_tree.self_s": "s",
    "admissibility.reconstruct_tree.useful_ratio": "ratio",
    "admissibility.is_admissible.self_s": "s", "admissibility.tables.self_s": "s",
    "trace.wall_s": "s", "trace.self_s_sum": "s", "tracing_overhead_s": "s",
}


def _resolve(obj, path):
    *owners, attr = path.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


def _bits(c) -> int:
    if isinstance(c, int):
        return abs(c).bit_length()
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


class Tracer:
    """Holds the span stack, the finished spans and the per-name totals of
    one traced run.  Frames are lists [name, span id, covered child time]."""

    def __init__(self, run_id: str, workload: str):
        self.run_id = run_id
        self.workload = workload
        self.stack = [["root", 0, 0.0]]
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.rank = {"max_rows": 0, "cells": 0, "bits": 0, "full": 0}
        self.trees = 0
        self._next_id = 1

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, fn, name, after=None):
        stack, spans, calls, self_s = self.stack, self.spans, self.calls, self.self_s

        def wrapped(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            frame = [name, sid, 0.0]
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                calls[name] += 1
                self_s[name] += (t1 - t0) - frame[2]
                spans.append((sid, parent[1], name, t0, t1))
                if after is not None and ok:
                    after(args, result)
                    # Inspection time belongs to no layer.
                    parent[2] += perf_counter() - t0
                else:
                    parent[2] += t1 - t0

        return wrapped

    def _zero_test_wrapper(self, fn):
        # Only the outermost is_zero_in_nichols call is a span; the
        # derivation test recurses through the module attribute.
        span = {m: self._span_wrapper(fn, f"braidedalg.zero_{m}")
                for m in ("symmetrizer", "derivations")}
        depth = [0]

        def wrapped(b, rho, method="symmetrizer"):
            if depth[0] or method not in span:
                return fn(b, rho, method)
            depth[0] += 1
            try:
                return span[method](b, rho, method)
            finally:
                depth[0] -= 1

        return wrapped

    def _count_wrapper(self, fn, name):
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _cyclotomic_wrapper(self, fn, name):
        stack, calls, self_s = self.stack, self.calls, self.self_s

        def wrapped(*args, **kwargs):
            calls[name] += 1
            if stack[-1][0] is _CYC:
                return fn(*args, **kwargs)
            frame = [_CYC, 0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[_CYC] += dur - frame[2]
                stack[-1][2] += dur

        return wrapped

    def _after_rank(self, args, rank):
        rows = args[0]
        st = self.rank
        if rows and rows[0]:
            st["max_rows"] = max(st["max_rows"], len(rows))
            st["cells"] += len(rows) * len(rows[0])
            bits = max((_bits(c) for row in rows for vec in row for c in vec), default=0)
            st["bits"] = max(st["bits"], bits)
        if rank == len(rows):
            st["full"] += 1

    def _after_tree(self, args, tree):
        self.trees += 1

    # -- installation ---------------------------------------------------------

    def install(self, extra_spans=()):
        """Wrap the nichols2 layers, plus (module, attribute, span name)
        triples naming the benchmark's own per-item functions."""
        mods = {name: sys.modules[f"nichols2.{name}"] for name in
                ("cyclotomic", "_linalg", "braidedalg", "nicholscore", "admissibility",
                 "classify")}
        after = {"linalg.rank": self._after_rank,
                 "admissibility.reconstruct_tree": self._after_tree}
        plan = [(mods[m], path, self._span_wrapper, (name, after.get(name)))
                for m, path, name in _SPANS]
        plan.append((mods["braidedalg"], "is_zero_in_nichols", self._zero_test_wrapper, ()))
        plan.append((mods["braidedalg"], "skew_derivation", self._count_wrapper,
                     ("braidedalg.skew_derivation",)))
        plan += [(mods["cyclotomic"], path, self._cyclotomic_wrapper, (f"cyclotomic.{name}",))
                 for path, name in _CYCLOTOMIC]
        plan += [(mod, attr, self._span_wrapper, (name,)) for mod, attr, name in extra_spans]
        for root, path, make, extra in plan:
            owner, attr = _resolve(root, path)
            original = getattr(owner, attr)
            wrapper = make(original, *extra)
            holders = [m.__dict__ for n, m in list(sys.modules.items())
                       if n == "nichols2" or n.startswith("nichols2.")]
            holders.append(owner.__dict__)
            for ns in holders:
                for key, value in list(ns.items()):
                    if value is original:
                        if isinstance(ns, dict):
                            ns[key] = wrapper
                        else:
                            setattr(owner, key, wrapper)

    # -- results ----------------------------------------------------------------

    def metrics(self, wall_s: float, image_cache_entries: int) -> dict[str, float]:
        c, s, r = self.calls, self.self_s, self.rank
        rank_calls = c["linalg.rank"]
        tree_calls = c["admissibility.reconstruct_tree"]
        out = {
            "linalg.rank.max_rows": r["max_rows"],
            "linalg.rank.cells": r["cells"],
            "linalg.rank.input_bits_max": r["bits"],
            "linalg.rank.full_rank_ratio": r["full"] / rank_calls if rank_calls else 0.0,
            "braidedalg.image_cache_entries": image_cache_entries,
            "admissibility.reconstruct_tree.useful_ratio":
                self.trees / tree_calls if tree_calls else 0.0,
            "trace.wall_s": wall_s,
            "trace.self_s_sum": sum(v for k, v in s.items() if not k.startswith("bench.")),
        }
        # The rest are "<span name>.calls" and "<span name>.self_s".
        for name in LAYER_METRICS:
            base, _, field = name.rpartition(".")
            if name not in out and field in ("calls", "self_s"):
                out[name] = c[base] if field == "calls" else s[base]
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per line: every stored span, then one line of
        call totals covering the aggregate layers."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"run": self.run_id, "workload": self.workload,
                                     "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
            fh.write(json.dumps({"run": self.run_id, "workload": self.workload,
                                 "calls": dict(self.calls),
                                 "self_s": dict(self.self_s)}) + "\n")
