"""Spans and counters around phl's public functions, for the traced run.

`Tracer.install` wraps each function in `WRAPPED` and rebinds the wrapper
in every `phl` module namespace that imported the original, so calls
between modules are traced too.  One span per call records (name, start,
end, parent); a span's self time is its duration minus its child spans'.
Spans stay in memory and are written out by `dump` at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

# (module, attribute, layer): the layer names the per-layer metrics use
WRAPPED = [
    ("phl.parser", "parse_command", "parser"),
    ("phl.parser", "parse_arith", "parser"),
    ("phl.parser", "parse_det_formula", "parser"),
    ("phl.parser", "parse_real_expr", "parser"),
    ("phl.parser", "parse_prob_formula", "parser"),
    ("phl.parser", "parse_state", "parser"),
    ("phl.parser", "parse_triple", "parser"),
    ("phl.core", "simplify_formula", "core.simplify"),
    ("phl.core", "normalize_real", "core.normalize"),
    ("phl.core", "subst_arith", "core.subst"),
    ("phl.core", "subst_prog_var", "core.subst"),
    ("phl.core", "subst_real", "core.subst"),
    ("phl.core", "node_size", "core.node_size"),
    ("phl.semantics", "execute", "semantics.execute"),
    ("phl.semantics", "sat_det", "semantics.sat_det"),
    ("phl.assertions", "eval_real", "assertions.eval_real"),
    ("phl.assertions", "check_valid_det", "assertions.validity"),
    ("phl.assertions", "check_valid_prob", "assertions.validity"),
    ("phl.assertions", "prob_equivalent_on_family", "assertions.validity"),
    ("phl.assertions", "real_equivalent_on_family", "assertions.validity"),
    ("phl.wp", "wp", "wp.wp"),
    ("phl.wp", "window_equivalent", "wp.window_equivalent"),
    ("phl.wp", "check_triple_det", "wp.check_triple"),
    ("phl.preterm", "pt", "preterm.pt"),
    ("phl.preterm", "cond_term", "preterm.cond_term"),
    ("phl.preterm", "check_triple_prob", "preterm.check_triple"),
    ("phl.proofsys", "check_derivation", "proofsys.check_derivation"),
    ("phl.proofsys", "build_wp_derivation", "proofsys.build_wp_derivation"),
]

# top-level printing of core ASTs; the printers recurse through module
# functions, not through these methods, so nested calls are not spans
PRINTED = ("ArithExpr", "Formula", "Command", "RealExpr", "ProbFormula")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []   # [span index, child time]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.returned_terms: list = []

    # -- spans

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        stack = self._stack
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.span_start[idx] = start
            self.span_end[idx] = end
            self.calls[layer] = self.calls.get(layer, 0) + 1
            self.self_s[layer] = self.self_s.get(layer, 0.0) + (end - start - frame[1])
            if stack:
                stack[-1][1] += end - start

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- installation

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "phl" or name.startswith("phl."))]
        for modname, attr, layer in WRAPPED:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(f"{modname[4:]}.{attr}", layer, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        core = sys.modules["phl.core"]
        for cls_name in PRINTED:
            cls = getattr(core, cls_name)
            cls.__str__ = self._wrap(f"core.{cls_name}.__str__", "core.print", cls.__str__)
        assertions = sys.modules["phl.assertions"]
        build = assertions.DistFamily.build
        assertions.DistFamily.build = staticmethod(
            self._wrap("assertions.DistFamily.build", "assertions.family", build))

    def _wrap(self, name: str, layer: str, fn):
        after = _AFTER.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer == "proofsys.check_derivation":
                self.count("proofsys.nodes", _derivation_nodes(args[0]))
            result = self.call(name, layer, fn, *args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    # -- results

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def dump(self, path) -> None:
        """Write the spans as gzip JSON lines: a header naming the fields
        and the span names, then one [name, start, end, parent] per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent"],
                                 "names": self.names}) + "\n")
            for span in zip(self.span_name, self.span_start, self.span_end,
                            self.span_parent):
                fh.write(json.dumps(span) + "\n")


def _derivation_nodes(d) -> int:
    return 1 + sum(_derivation_nodes(p) for p in d.premises)


def _after_execute(tracer: Tracer, result) -> None:
    if not result.exact:
        tracer.count("semantics.inexact_runs")


def _after_wp(tracer: Tracer, result) -> None:
    traces = result[1]
    tracer.count("wp.loop_traces", len(traces))
    tracer.count("wp.converged_traces", sum(1 for t in traces if t.converged))


def _after_pt(tracer: Tracer, result) -> None:
    expansions = result[1]
    tracer.count("preterm.expansions", len(expansions))
    tracer.count("preterm.exhaustive_expansions", sum(1 for e in expansions if e.exhaustive))
    tracer.returned_terms.append(result[0])


_AFTER = {"semantics.execute": _after_execute, "wp.wp": _after_wp, "preterm.pt": _after_pt}
