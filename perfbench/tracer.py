"""Span tracer installed around the library's layers from outside the library.

Each module of ``deltainv`` is a layer.  The tracer wraps the public
functions of every layer, the elimination and determinant kernels, and the
arithmetic methods of ``MultiPoly`` and ``TruncatedPadic``.  Modules bind
names with ``from .x import y``, so a function wrapper replaces the original
in every ``deltainv`` namespace that bound it.  Spans stay in memory as
``(id, name, start, end, parent, job)`` tuples until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("quad_invariants", "exact_linalg", "multipoly", "exact_arith",
          "serre_tate", "delta_calculus", "conj_invariants")

# Tiny constructors and formatters, called per variable: a span on each would
# cost more than the call and move serialization time out of the cli layer.
_SKIP = {"multipoly": {"var_name", "Tvar", "Qvar", "uvar", "vvar", "zvar"}}

# Private kernels that carry a layer's work or counts.
_KERNELS = {"multipoly": ("_det_rows",), "exact_linalg": ("_eliminate",)}

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
          "__rmul__", "__neg__", "__pow__")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.next_id = 0
        self.job = None
        self._undo = []

    # -- span recording ----------------------------------------------------

    def wrap(self, name, fn, count=None):
        """A wrapper recording one span per call; ``count(args, result)``
        adds the call's work counts."""
        tracer = self
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent,
                                     tracer.job))
            tracer.counts[calls_key] += 1
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def run_job(self, job_id, fn):
        """Run ``fn`` as the root span of one job."""
        self.job = job_id
        try:
            return self.wrap("cli.main", fn)()
        finally:
            self.job = None

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        from deltainv import exact_arith, exact_linalg, multipoly

        counts = self.counts

        def slice_count(args, result):
            counts["quad_invariants.slice_monomials"] += len(result)

        def b0_count(args, result):
            counts["quad_invariants.b0_trials"] += len(result["counts"])

        def elim_count(args, result):
            matrix = args[0]
            counts["exact_linalg.rows"] += len(matrix.rows)
            counts["exact_linalg.cols"] += matrix.ncols
            counts["exact_linalg.nnz"] += sum(len(r) for r in matrix.rows)
            counts["exact_linalg.rank"] += len(result[0])

        hooks = {"quad_invariants.torus_slice": slice_count,
                 "quad_invariants.b0_count": b0_count,
                 "exact_linalg._eliminate": elim_count}

        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"deltainv.{layer}"]
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and attr not in _KERNELS.get(layer, ()):
                    continue
                if attr in _SKIP.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                wrapped[fn] = self.wrap(name, fn, hooks.get(name))
        for modname, module in list(sys.modules.items()):
            if modname == "deltainv" or modname.startswith("deltainv."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        self._patch(module, attr, wrapped[value])

        ExactMatrix = exact_linalg.ExactMatrix
        self._patch(ExactMatrix, "__init__",
                    self.wrap("exact_linalg.ExactMatrix", ExactMatrix.__init__))

        MultiPoly = multipoly.MultiPoly

        def mul_count(args, result):
            if result is NotImplemented:
                return
            other = MultiPoly._as_poly(args[1])
            counts["multipoly.mul_term_pairs"] += \
                len(args[0].terms) * len(other.terms)
            counts["multipoly.mul_terms_out"] += len(result.terms)

        for attr in _ARITH:
            op = attr.strip("_").removeprefix("r")
            self._patch(MultiPoly, attr, self.wrap(
                f"multipoly.{op}", MultiPoly.__dict__[attr],
                mul_count if op == "mul" else None))

        Padic = exact_arith.TruncatedPadic
        for attr in _ARITH:
            op = attr.strip("_").removeprefix("r")
            self._patch(Padic, attr, self.wrap(f"exact_arith.padic_{op}",
                                               Padic.__dict__[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per layer: span durations minus the time their child spans cover."""
        child = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            child[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            out[name.split(".", 1)[0]] += end - start - child[sid]
        return out

    def layer_metrics(self, output_bytes: int, overhead_s: float) -> dict:
        """Every per-layer metric, as ``{name: (value, unit)}``."""
        c = self.counts
        self_s = self.self_times()

        def calls(prefix):
            return sum(n for key, n in c.items()
                       if key.startswith(prefix) and key.endswith(".calls"))

        rows = c["exact_linalg.rows"]
        pairs = c["multipoly.mul_term_pairs"]
        m = {}
        for layer in ("cli",) + LAYERS:
            m[f"{layer}.self_s"] = (self_s[layer], "s")
        m.update({
            "quad_invariants.slice_monomials":
                (c["quad_invariants.slice_monomials"], "count"),
            "quad_invariants.b0_trials": (c["quad_invariants.b0_trials"], "count"),
            "exact_linalg.calls": (c["exact_linalg._eliminate.calls"], "count"),
            "exact_linalg.rows": (rows, "count"),
            "exact_linalg.cols": (c["exact_linalg.cols"], "count"),
            "exact_linalg.nnz": (c["exact_linalg.nnz"], "count"),
            "exact_linalg.rank": (c["exact_linalg.rank"], "count"),
            "exact_linalg.rank_per_row":
                (c["exact_linalg.rank"] / rows if rows else 0.0, "ratio"),
            "multipoly.mul_calls": (c["multipoly.mul.calls"], "count"),
            "multipoly.mul_term_pairs": (pairs, "count"),
            "multipoly.mul_terms_out": (c["multipoly.mul_terms_out"], "count"),
            "multipoly.mul_kept_ratio":
                (c["multipoly.mul_terms_out"] / pairs if pairs else 0.0,
                 "ratio"),
            "multipoly.substitute_calls":
                (c["multipoly.substitute.calls"], "count"),
            "multipoly.det_calls": (c["multipoly._det_rows.calls"], "count"),
            "exact_arith.padic_ops": (calls("exact_arith.padic_"), "count"),
            "serre_tate.calls": (calls("serre_tate."), "count"),
            "delta_calculus.calls": (calls("delta_calculus."), "count"),
            "conj_invariants.calls": (calls("conj_invariants."), "count"),
            "cli.output_bytes": (output_bytes, "bytes"),
            "trace.overhead_s": (overhead_s, "s"),
        })
        return m

    def write_spans(self, path):
        """Write every span as one JSON document, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "job"],
                       "spans": self.spans}, handle)
