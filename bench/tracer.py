"""Per-layer spans and counts for cvconc, recorded from outside the package.

install() replaces every public function of each measured module, wherever
cvconc holds a reference to it, by a wrapper that records a span (layer,
name, start, end, parent) in memory; uninstall() puts the originals back, so
untraced passes run the program untouched.  A span's self time is its
duration minus the time its child spans cover.

The counts are computed from array shapes and file sizes at the call, not
measured inside the program:
  states.block_matrix.calls        calls of states.block_matrix
  concurrence.wedge_quadruples     gm^2 gmbar^2 per run of the quartic wedge
                                   loop (concurrence._wedge_sum_and_max)
  transpose.dense_operator_bytes   16 (gm gmbar)^2 per dense partial-transpose
                                   matrix built (transpose._pt_matrix and
                                   transpose._pt_tilde_matrix)
  serialization.bytes_read/written sizes of the state files load_state reads
                                   and save_grid_state writes
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

# The measured layers; cvconc.gaussian (closed forms, microseconds) and
# cvconc.errors do no measurable work.
LAYERS = ("cli", "serialization", "states", "concurrence", "spectral", "transpose",
          "wedge", "verification", "quadrature")

# Per-layer metric -> (layer, function): self seconds per pass of that
# function's spans, or of every span of the layer when the function is None.
SELF_METRICS = {
    "cli.self.s": ("cli", None),
    "serialization.load_state.s": ("serialization", "load_state"),
    "serialization.save_grid_state.s": ("serialization", "save_grid_state"),
    "states.discretize.s": ("states", "discretize"),
    "states.block_matrix.s": ("states", "block_matrix"),
    "concurrence.route_A.s": ("concurrence", "concurrence_route_A"),
    "concurrence.decide_separability.s": ("concurrence", "decide_separability"),
    "concurrence.concurrence_report.s": ("concurrence", "concurrence_report"),
    "concurrence.route_B.s": ("concurrence", "concurrence_route_B"),
    "concurrence.route_Lambda.s": ("concurrence", "concurrence_route_Lambda"),
    "concurrence.family_measure.s": ("concurrence", "family_measure"),
    "concurrence.concurrence_gaussian_numeric.s": ("concurrence", "concurrence_gaussian_numeric"),
    "spectral.route_C.s": ("spectral", "concurrence_route_C"),
    "spectral.reduce.s": ("spectral", "reduce"),
    "spectral.von_neumann_entropy.s": ("spectral", "von_neumann_entropy"),
    "spectral.hs_identity_gap.s": ("spectral", "hs_identity_gap"),
    "transpose.route_D.s": ("transpose", "concurrence_route_D"),
    "transpose.route_E.s": ("transpose", "concurrence_route_E"),
    "transpose.build_rho_pt.s": ("transpose", "build_rho_pt"),
    "transpose.pt_square_factorization_gap.s": ("transpose", "pt_square_factorization_gap"),
    "transpose.ppt_min_eigenvalue.s": ("transpose", "ppt_min_eigenvalue"),
    "transpose.lambda_invariance_gap.s": ("transpose", "lambda_invariance_gap"),
    "wedge.lagrange_identity_gap.s": ("wedge", "lagrange_identity_gap"),
    "verification.run_verification.self.s": ("verification", "run_verification"),
    "quadrature.gauss_hermite_rule.s": ("quadrature", "gauss_hermite_rule"),
}

COUNT_METRICS = {
    "serialization.bytes_read": "bytes",
    "serialization.bytes_written": "bytes",
    "states.block_matrix.calls": "count",
    "concurrence.wedge_quadruples": "count",
    "transpose.dense_operator_bytes": "bytes",
}

OVERHEAD_METRIC = "trace.overhead.s"


class Tracer:
    """Wraps cvconc's public functions; one instance per process."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"cvconc.{layer}") for layer in LAYERS}
        self.spans = []      # [layer, name, start, end, parent index, child seconds]
        self.stack = []
        self.counts = Counter()
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer, fn):
        name = fn.__name__
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            record = [layer, name, clock(), 0.0, parent, 0.0]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += record[3] - record[2]

        return traced

    def _counted(self, fn, count):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(args, kwargs)
            return result

        return counted

    def _count_wedge(self, args, kwargs):
        gm, gmbar = args[0].shape
        self.counts["concurrence.wedge_quadruples"] += gm * gm * gmbar * gmbar

    def _count_dense(self, args, kwargs):
        gm, gmbar = args[0].shape
        self.counts["transpose.dense_operator_bytes"] += 16 * (gm * gmbar) ** 2

    def _count_read(self, args, kwargs):
        self.counts["serialization.bytes_read"] += os.path.getsize(args[0])

    def _count_written(self, args, kwargs):
        self.counts["serialization.bytes_written"] += os.path.getsize(args[1])

    # -- installation -----------------------------------------------------

    def _replacements(self) -> dict:
        """id(original function) -> wrapper."""
        out = {}
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    out[id(obj)] = (obj, self._span(layer, obj))
        counters = [
            ("serialization", "load_state", self._count_read),
            ("serialization", "save_grid_state", self._count_written),
            ("concurrence", "_wedge_sum_and_max", self._count_wedge),
            ("transpose", "_pt_matrix", self._count_dense),
            ("transpose", "_pt_tilde_matrix", self._count_dense),
        ]
        for layer, name, count in counters:
            original = getattr(self.modules[layer], name, None)
            if original is None:
                continue
            inner = out.get(id(original), (original, original))[1]
            out[id(original)] = (original, self._counted(inner, count))
        return out

    def install(self):
        if self._patches:
            return
        replacements = self._replacements()
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "cvconc" or modname.startswith("cvconc.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def take_pass(self) -> tuple:
        """(metrics, total self seconds, spans) of the pass recorded since
        the last call, and start a new pass."""
        if self.stack:
            raise RuntimeError("a span is still open at the end of a pass")
        metrics = {name: 0.0 for name in SELF_METRICS}
        by_function = Counter()
        by_layer = Counter()
        block_calls = 0
        for layer, name, start, end, _, child in self.spans:
            self_s = (end - start) - child
            by_function[(layer, name)] += self_s
            by_layer[layer] += self_s
            block_calls += name == "block_matrix"
        for metric, (layer, name) in SELF_METRICS.items():
            metrics[metric] = by_layer[layer] if name is None else by_function[(layer, name)]
        for metric in COUNT_METRICS:
            metrics[metric] = self.counts[metric]
        metrics["states.block_matrix.calls"] = block_calls
        total_self = sum(by_layer.values())
        spans = [list(s) for s in self.spans]
        self.spans.clear()
        self.counts.clear()
        return metrics, total_self, spans
