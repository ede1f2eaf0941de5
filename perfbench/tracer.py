"""Span tracing of qgraph's public functions, installed from the benchmark.

The tracer replaces each traced function, in every qgraph module namespace
and benchmark module that holds it, by a wrapper that records a span {name, start, end, parent,
case}.  Nothing under src/ is edited; uninstall() restores the originals.
A layer's self time is its span minus the time of its child spans.  Two very
hot kernels (hs_norm, project_onto_span) are counted, not spanned.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

# Span name -> [(module, attribute)].  Several functions may share one name.
SPANS = {
    "linalg.check_measurement": [("qgraph.linalg", "check_measurement")],
    "algebra.normal_form": [("qgraph.algebra", "normal_form")],
    "graphs.validate": [("qgraph.graphs", "validate")],
    "graphs.edge_basis": [("qgraph.graphs", "edge_basis")],
    "correlations.outcome_probability": [("qgraph.correlations", "outcome_probability")],
    "correlations.correlation_from_trace": [("qgraph.correlations", "correlation_from_trace")],
    "correlations.correlation_from_tensor": [("qgraph.correlations", "correlation_from_tensor")],
    "correlations.synchronous_identities": [("qgraph.correlations", "synchronous_identities")],
    "homgame.verify_structural": [("qgraph.homgame", "verify_structural")],
    "homgame.verify_operational": [("qgraph.homgame", "verify_operational")],
    "homgame.check_game_algebra_rep": [("qgraph.homgame", "check_game_algebra_rep")],
    "colorings.shift_multiply_coloring": [("qgraph.colorings", "shift_multiply_coloring")],
    "colorings.teleport_coloring": [("qgraph.colorings", "teleport_coloring")],
    "colorings.rigidity_check": [("qgraph.colorings", "rigidity_check")],
    "colorings.chromatic_bounds": [("qgraph.colorings", "chromatic_bounds")],
    "serialize.parse": [("qgraph.cli", "_load_json")]
    + [
        ("qgraph.serialize", f"{kind}_from_json")
        for kind in ("algebra", "graph", "classical_graph", "strategy", "correlation")
    ],
    "serialize.emit": [("qgraph.cli", "_emit")]
    + [
        ("qgraph.serialize", f"{kind}_to_json")
        for kind in ("matrix", "strategy", "correlation")
    ],
}
METHOD_SPANS = {"strategies.is_loc": ("qgraph.strategies", "BlockStrategy", "is_loc")}
COUNTED = {
    "linalg.hs_norm": ("qgraph.linalg", "hs_norm"),
    "algebra.project_onto_span": ("qgraph.algebra", "project_onto_span"),
}


class Tracer:
    def __init__(self, callers=("workloads",)):
        self.callers = callers  # benchmark modules whose qgraph imports are traced too
        self.case = None
        self.pass_index = 0
        self.spans: list[list] = []  # [name, start, end, parent index, pass, case]
        self._stack: list[list] = []  # [span index, child time]
        self.self_s: dict = defaultdict(float)  # (case, name) -> seconds
        self.calls: dict = defaultdict(int)  # (case, name) -> count
        self._patched: list[tuple] = []

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            index = len(self.spans)
            frame = [index, 0.0]
            self.spans.append([name, time.perf_counter(), None, parent, self.pass_index, self.case])
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = self.spans[index]
                span[2] = end
                dur = end - span[1]
                self.self_s[(self.case, name)] += dur - frame[1]
                self.calls[(self.case, name)] += 1
                if self._stack:
                    self._stack[-1][1] += dur

        return traced

    def _count(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[(self.case, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def add_bytes(self, name: str, n: int) -> None:
        self.calls[(self.case, name)] += n

    def _replace_everywhere(self, original, replacement) -> None:
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name.startswith("qgraph") or name in self.callers):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def install(self) -> None:
        importlib.import_module("qgraph.cli")
        for name, targets in SPANS.items():
            for module, attr in targets:
                original = getattr(importlib.import_module(module), attr)
                wrapper = self._span(name, original)
                if name == "serialize.parse" and attr == "_load_json":
                    wrapper = self._with_bytes_in(wrapper)
                self._replace_everywhere(original, wrapper)
        for name, (module, cls_name, attr) in METHOD_SPANS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            original = vars(cls)[attr]
            setattr(cls, attr, self._span(name, original))
            self._patched.append((cls, attr, original))
        for name, (module, attr) in COUNTED.items():
            original = getattr(importlib.import_module(module), attr)
            self._replace_everywhere(original, self._count(name, original))

    def _with_bytes_in(self, fn):
        def load(path):
            self.add_bytes("serialize.bytes_in", os.path.getsize(path))
            return fn(path)

        return load

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
