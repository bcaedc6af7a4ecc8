"""Run-time span tracer for the package's layer modules.

:meth:`Tracer.install` replaces every public module-level function of each
layer module with a wrapper that records a span (layer, name, start, end,
parent, process CPU time).  It also replaces the copies that other package
modules bound with ``from ... import`` (``analytic.bracket``,
``monte_carlo.logaddexp``, the package ``__init__`` re-exports), because
patching only the defining module misses calls made through those names.
No source file is touched; :meth:`Tracer.uninstall` puts the originals back.

Spans live in memory and are reduced by :meth:`Tracer.summary`.  A span's
self time is its duration minus the durations of its direct child spans,
so the layers' self times add up to the outermost span.  Spans are kept per
thread; a public function called from a worker thread opens a root span
there.  Private helpers (leading underscore) are not wrapped: their time
lands in the calling public function's layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import threading
import time

PACKAGE = "mangledworlds"
#: module name -> layer name used in metric names (which cannot start with _)
LAYERS = {"cli": "cli", "_io": "io", "born_experiment": "born_experiment",
          "analytic": "analytic", "special_functions": "special_functions",
          "model_params": "model_params", "pde_solver": "pde_solver",
          "monte_carlo": "monte_carlo"}
#: pde_solver functions that each integrate one full horizon from t = 0
FULL_SOLVES = ("solve", "born_two_stage_field")


class Span:
    __slots__ = ("layer", "name", "parent", "t0", "t1", "cpu0", "cpu1",
                 "paths", "survivors", "ess", "ess_paths")

    def __init__(self, layer: str, name: str, parent: Span | None):
        self.layer, self.name, self.parent = layer, name, parent
        self.paths = self.survivors = self.ess_paths = 0
        self.ess = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def observe(self, result) -> None:
        """Record the walker's path counts at the layer boundary."""
        if hasattr(result, "n_paths") and hasattr(result, "survivor_count"):
            self.paths, self.survivors = result.n_paths, result.survivor_count
        if hasattr(result, "log_weight_sq_sum"):
            # Kish effective sample size (sum w)^2 / sum w^2, read from the
            # estimator state so that no traced function runs here
            self.ess_paths = result.n_paths
            if result.survivor_count:
                self.ess = math.exp(2.0 * result.log_weight_sum
                                    - result.log_weight_sq_sum)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(layer, name, stack[-1] if stack else None)
            stack.append(span)
            span.cpu0 = time.process_time()
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                span.cpu1 = time.process_time()
                stack.pop()
                spans.append(span)
            span.observe(result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for module_name, layer in LAYERS.items():
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            for name, value in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(layer, name, value))
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-layer self time and calls, plus the walker's and the grid
        solver's boundary counts."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.duration
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS.values()}
        walker = {"wall_s": 0.0, "cpu_s": 0.0, "paths": 0, "survivors": 0,
                  "ess": 0.0, "ess_paths": 0}
        solves = 0
        for s in self.spans:
            layers[s.layer]["self_s"] += s.duration - child.get(id(s), 0.0)
            layers[s.layer]["calls"] += 1
            if s.layer == "pde_solver" and s.name in FULL_SOLVES:
                solves += 1
            if s.layer == "monte_carlo" and (s.parent is None
                                             or s.parent.layer != "monte_carlo"):
                walker["wall_s"] += s.duration
                walker["cpu_s"] += s.cpu1 - s.cpu0
                walker["paths"] += s.paths
                walker["survivors"] += s.survivors
                walker["ess"] += s.ess
                walker["ess_paths"] += s.ess_paths
        return {"layers": layers, "walker": walker, "pde_solves": solves}
