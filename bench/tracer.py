"""Per-layer tracing from outside the library.

`Tracer.install` replaces the public entry points of each `src/resym/`
module with wrappers, at every binding the callers actually resolve (a
class attribute and its alias, or a module global and the copies other
modules imported), and `uninstall` puts the originals back.  Spans carry
an id, the id of the span that caused them and the id of the task they
belong to; they are kept in memory and written out by `dump`.  Self time is
a span's duration minus the time covered by its child spans.  Hot leaves
only count calls, so tracing them does not swamp what they measure.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

# Spans: metric prefix -> [(module name, attribute path)].  A dotted path
# names a class attribute.  Every listed binding is patched.
SPANS = {
    "parser.parse_form": [("parser", "parse_form")],
    "parser.parse_rational_function": [("parser", "parse_rational_function")],
    # `@` is bound to compose at class creation, so both names are patched.
    "operators.compose": [("operators", "WindowedOperator.compose"),
                          ("operators", "WindowedOperator.__matmul__")],
    # Every construction canonicalizes its terms (_grid_normal_form).
    "operators.canon": [("operators", "WindowedOperator.__init__")],
    # CubicalStructure.trace reaches tate_trace through the module global.
    "operators.tate_trace": [("operators", "tate_trace")],
    "homology.chain_is_zero": [("homology", "chain_is_zero")],
    "homology.hochschild_b": [("homology", "hochschild_b")],
    "homology.homotopy_H": [("homology", "homotopy_H")],
    "homology.phi_hh_closed": [("homology", "phi_hh_closed"), ("residue", "phi_hh_closed")],
    "homology.phi_hh_zigzag": [("homology", "phi_hh_zigzag")],
    "homology.phi_c": [("homology", "phi_c")],
    "homology.hkr_antisymmetrize": [("homology", "hkr_antisymmetrize"),
                                    ("residue", "hkr_antisymmetrize")],
    "laurent.TruncatedSeries.mul": [("laurent", "TruncatedSeries.__mul__"),
                                    ("laurent", "TruncatedSeries.__rmul__")],
    "laurent.unit_inverse": [("laurent", "TruncatedSeries.unit_inverse")],
    "polynomials.factor_monic": [("polynomials", "factor_monic"), ("residue", "factor_monic")],
    "polynomials.rational_roots": [("polynomials", "rational_roots")],
    "polynomials.shifted_coefficients": [("polynomials", "shifted_coefficients"),
                                         ("residue", "shifted_coefficients")],
    "residue.residue_form": [("residue", "residue_form")],
    "residue.expand_at_place": [("residue", "expand_at_place")],
    "residue.global_residue_sum": [("residue", "global_residue_sum")],
}

# Hot leaves: calls are counted, no span is recorded.
COUNTS = {
    "operators.evaluate": [("operators", "WindowedOperator.evaluate")],
    "scalars.field_trace": [("scalars", "field_trace"), ("residue", "field_trace")],
    "scalars.ExtElem.mul": [("scalars", "ExtElem.__mul__"), ("scalars", "ExtElem.__rmul__")],
    "scalars.ExtElem.inverse": [("scalars", "ExtElem.inverse")],
}

# Output sizes recorded next to the span (sum of len(result.terms)).
OUT_TERMS = ("homology.hochschild_b", "homology.homotopy_H")

SPAN_CAP = 200_000   # spans kept for the dump; aggregates are always exact


def _owner(modules, module, path):
    owner = modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.extra = Counter()
        self.spans = []
        self.dropped = 0
        self.task = 0
        self._stack = []          # [span id, child ns] per open span
        self._next_id = 1
        self._saved = []

    # -- spans ----------------------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [sid, 0]
        self._stack.append(frame)
        return sid, parent, frame

    def _close(self, name, sid, parent, frame, start, end):
        self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, self.task, name, start, end))
        else:
            self.dropped += 1

    def run_task(self, fn, task):
        """Run one task under a root span; spans inside it share its id."""
        self.task += 1
        sid, parent, frame = self._open()
        start = perf_counter_ns()
        try:
            return fn(task)
        finally:
            self._close("task", sid, parent, frame, start, perf_counter_ns())

    def _span(self, name, fn):
        tracer = self
        record_terms = name in OUT_TERMS
        canon = name == "operators.canon"

        def wrapper(*args, **kwargs):
            if canon:
                args = tracer._note_canon(args, kwargs)
            sid, parent, frame = tracer._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, sid, parent, frame, start, perf_counter_ns())
            if record_terms:
                tracer.extra[name + ".out_terms"] += len(result.terms)
            return result
        return wrapper

    def _note_canon(self, args, kwargs):
        """Count constructions whose shift groups each hold one input term;
        those inputs are already canonical."""
        terms = args[3] if len(args) > 3 else kwargs.get("terms", ())
        if not isinstance(terms, (list, tuple)):
            terms = list(terms)
            if len(args) > 3:
                args = args[:3] + (terms,) + args[4:]
            else:
                kwargs["terms"] = terms
        shifts = [tuple(t[1]) for t in terms]
        if len(set(shifts)) == len(shifts):
            self.extra["operators.canon.single_box"] += 1
        return args

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self):
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name, sites in table.items():
                first = _owner(self.modules, *sites[0])
                wrapper = make(name, getattr(*first))
                for module, path in sites:
                    owner, attr = _owner(self.modules, module, path)
                    self._saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def metrics(self):
        out = {}
        for name in list(SPANS) + list(COUNTS):
            out[f"{name}.calls"] = self.calls[name]
            if name in SPANS:
                out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
                out[f"{name}.total_ms"] = self.total_ns[name] / 1e6
        for name in OUT_TERMS:
            out[f"{name}.out_terms"] = self.extra[name + ".out_terms"]
        canon = self.calls["operators.canon"]
        out["operators.canon.single_box_frac"] = (
            self.extra["operators.canon.single_box"] / canon if canon else 0.0)
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "task", "name", "start_ns", "end_ns"],
                       "dropped": self.dropped, "spans": self.spans}, fh)
