"""Outside-in spans around daectrl's public functions.

`Tracer.install` replaces each timed function or method by a wrapper that
records one span per call: its name, start, end and the span that was open
when it was called. A plain function is replaced in every daectrl module
that holds it, because modules import each other's functions by name
(`criteria` holds `generic_rank`, `cli` holds `evaluate`, ...); patching
only the defining module would miss those calls and record zero. Spans stay
in memory until `write` puts them in a JSON-lines file, and `layer_metrics`
derives the per-layer table from that file alone.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from math import comb
from time import perf_counter_ns

PACKAGE = "daectrl"


def _available_minors(args, result):
    pm, r = args[0], args[1]
    return {"available": comb(pm.rows, r) * comb(pm.cols, r)}


def _coefficient_bits(args, result):
    return {
        "bits": max(
            (max(c.numerator.bit_length(), c.denominator.bit_length())
             for c in result.coeffs),
            default=0,
        )
    }


# (span name, defining module, attribute); "Class.method" names a method.
# The optional function turns (args, result) into attributes of the span.
TARGETS = [
    ("experiment.run_survey", "daectrl.experiment", "run_survey", None),
    ("experiment.sample_triple", "daectrl.experiment", "sample_triple", None),
    ("criteria.evaluate", "daectrl.criteria", "evaluate", None),
    ("matrix.rank", "daectrl.matrix", "RatMatrix.rank", None),
    ("matrix.kernel_basis", "daectrl.matrix", "RatMatrix.kernel_basis", None),
    ("matrix.det", "daectrl.matrix", "RatMatrix.det", None),
    ("pencil.generic_rank", "daectrl.pencil", "generic_rank", None),
    ("pencil.PolyMatrix.eval", "daectrl.pencil", "PolyMatrix.eval", None),
    ("pencil.minor_gcd", "daectrl.pencil", "minor_gcd", _available_minors),
    ("pencil.PolyMatrix.det", "daectrl.pencil", "PolyMatrix.det", _coefficient_bits),
    ("algebra.poly_gcd", "daectrl.algebra", "poly_gcd", None),
    ("algebra.hurwitz_stable", "daectrl.algebra", "hurwitz_stable", None),
    ("cli.main", "daectrl.cli", "main", None),
]

SPAN_NAMES = [t[0] for t in TARGETS]


class Tracer:
    """Records spans while installed; single-threaded callers only."""

    def __init__(self):
        # Each span is [id, parent id or -1, name, start ns, end ns, attrs].
        self.spans = []
        self.missing = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack
        depth = [0]

        def wrapper(*args, **kwargs):
            # Only the outermost call of a recursive function is a span
            # (PolyMatrix.det recurses once per cofactor).
            if depth[0]:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else -1, name, 0, 0, None]
            spans.append(span)
            stack.append(span[0])
            depth[0] += 1
            span[3] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter_ns()
                depth[0] -= 1
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return wrapper

    def install(self):
        self.missing = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, module_name, attr, attrs in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = getattr(owner, "__dict__", {}).get(fn_name)
                if fn is None:
                    self.missing.append(name)
                    continue
                self._patch(owner, fn_name, self._wrap(name, fn, attrs))
                continue
            fn = getattr(module, fn_name, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, attrs)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patch(holder, key, wrapper)
        if self.missing:
            print(f"tracer: not found, reported as zero: {self.missing}",
                  file=sys.stderr)

    def _patch(self, holder, key, value):
        self._undo.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self):
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path, meta):
        """One JSON object per line: a meta header, then one span a line,
        times in nanoseconds from the first span's start."""
        t0 = self.spans[0][3] if self.spans else 0
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for sid, parent, name, start, end, attrs in self.spans:
                rec = {"id": sid, "parent": parent, "name": name,
                       "start": start - t0, "end": end - t0}
                if attrs is not None:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(path):
    """The per-layer table, as {metric: (value, unit)}, from a span file.

    Self time is a span's duration minus the durations of its child spans;
    spans nest strictly because the traced run has one thread. Times are
    multiplied by the meta header's `scale` (1 if absent).
    """
    with open(path) as fh:
        meta = json.loads(fh.readline())["meta"]
        spans = [json.loads(line) for line in fh]
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    for s in spans:
        d = s["end"] - s["start"]
        calls[s["name"]] += 1
        self_ns[s["name"]] += d
        if s["parent"] >= 0:
            self_ns[spans[s["parent"]]["name"]] -= d

    minors = [s for s in spans
              if s["name"] == "pencil.PolyMatrix.det" and s["parent"] >= 0
              and spans[s["parent"]]["name"] == "pencil.minor_gcd"]
    available = sum(s["available"] for s in spans if s["name"] == "pencil.minor_gcd")
    triples = meta["triples"]

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (meta.get("scale", 1) * self_ns[name] / 1e9, "s")
    out["experiment.samples_per_triple"] = (
        calls["experiment.sample_triple"] / triples, "count")
    out["criteria.generic_rank_per_triple"] = (
        calls["pencil.generic_rank"] / triples, "count")
    out["criteria.minor_gcd_per_triple"] = (
        calls["pencil.minor_gcd"] / triples, "count")
    out["pencil.minors_enumerated"] = (len(minors), "count")
    out["pencil.minors_enumerated_ratio"] = (
        len(minors) / available if available else 0.0, "ratio")
    out["pencil.minor.max_bits"] = (max((s["bits"] for s in minors), default=0), "bits")
    out["trace.overhead_ratio"] = (meta["traced_s"] / meta["untraced_s"], "ratio")
    return out
