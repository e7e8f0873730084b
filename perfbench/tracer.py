"""In-process tracing of negdimcd's layers, installed from outside the package.

Every public function of the traced modules, plus the ``ScalarFunction1D``
and ``Density1D`` methods and ``CheckReport.from_margins``, is replaced by a
timing wrapper wherever callers look it up: in the defining module and in
every ``negdimcd`` module (the package namespace included) that bound the
same object by ``from ... import``.  Nothing under ``src/`` is edited.

Two kinds of wrapper share one timing stack:

* span layers (checkers and primitives) record a span, with name, start,
  end, parent span and task id, whenever a call crosses into the layer from
  another layer or from the benchmark; calls that stay inside a layer only
  add to its timings, so a 10k-point loop of ``ricci_n`` is one span;
* aggregate layers (the hot scalar kernels in ``functions``, ``expr`` and
  ``comparison``) keep counters of calls, elements and time only.

A layer's self time is the time its calls spent minus the time covered by
the wrapped calls they made, so self times of all layers add up to the
traced wall time less the benchmark's own code.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
from collections import defaultdict
from time import perf_counter

SPAN_LAYERS = ("cli", "convexity", "geometry", "gradflow", "transport",
               "quadrature", "report")
AGGREGATE_LAYERS = ("functions", "expr", "comparison")


def _size(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else 1


class Tracer:
    """Holds the spans and counters of one traced run; ``install`` patches
    the package in place and ``uninstall`` restores every patched name."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one span: (name id, start, end, parent span index or -1, task id)
        self.spans: list[tuple] = []
        self.task_id = -1
        # frame: [layer, start, child time, span index, outermost, name id]
        self._stack: list[list] = []
        self._depth = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._restore: list[tuple] = []

    # -- timing core -------------------------------------------------------

    def _enter(self, layer: str, name_id: int):
        parent = self._stack[-1] if self._stack else None
        boundary = parent is None or parent[0] != layer
        span = -1
        if boundary and layer in SPAN_LAYERS:
            span = len(self.spans)
            self.spans.append(None)
            self.calls[layer] += 1
        elif layer in AGGREGATE_LAYERS:
            self.calls[layer] += 1
        outermost = self._depth[layer] == 0
        self._depth[layer] += 1
        frame = [layer, perf_counter(), 0.0, span, outermost, name_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self._stack.pop()
        layer, start, child, span, outermost, name_id = frame
        duration = end - start
        self.self_s[layer] += duration - child
        self._depth[layer] -= 1
        if outermost:
            self.inclusive_s[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if span >= 0:
            parent = -1
            for up in reversed(self._stack):
                if up[3] >= 0:
                    parent = up[3]
                    break
            self.spans[span] = (name_id, start, end, parent, self.task_id)
        return duration

    def _caller_layer(self) -> str | None:
        """Innermost layer on the stack other than ``report``."""
        for frame in reversed(self._stack):
            if frame[0] != "report":
                return frame[0]
        return None

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, layer: str, name: str, fn, after=None, on_error=None):
        """Timing wrapper for ``fn``; ``after(args, kwargs, result, seconds)``
        updates the layer's counters and ``on_error(exc)`` counts failures."""
        name_id = self._name_id(name)
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(layer, name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exit_(frame)
                if on_error is not None:
                    on_error(exc)
                raise
            seconds = exit_(frame)
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, replacement, modules):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self):
        import negdimcd
        from negdimcd import (cli, comparison, convexity, expr, functions,
                              geometry, gradflow, quadrature, report, transport)

        modules = [negdimcd, cli, comparison, convexity, expr, functions,
                   geometry, gradflow, quadrature, report, transport]
        layered = {"cli": cli, "convexity": convexity, "geometry": geometry,
                   "gradflow": gradflow, "transport": transport,
                   "quadrature": quadrature, "comparison": comparison}
        after = {
            "transport.w2": self._after_w2,
            "gradflow.integrate_flow": self._after_flow,
            "convexity.check_pointwise": self._after_pointwise,
        }
        self._integrate_signature = inspect.signature(quadrature.integrate)
        self._quadrature_error = quadrature.QuadratureError
        for layer, module in layered.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if layer == "comparison":
                    wrapped = self.wrap(layer, name, fn, self._after_elements)
                elif name == "quadrature.integrate":
                    wrapped = self.wrap(layer, name, fn, self._after_integrate,
                                        self._integrate_failed)
                else:
                    wrapped = self.wrap(layer, name, fn, after.get(name))
                self._patch_everywhere(fn, wrapped, modules)

        original_compile = expr.compile_expr
        compile_wrapped = self.wrap("expr", "expr.compile_expr",
                                    self._compile_counting(original_compile),
                                    self._after_compile)
        self._patch_everywhere(original_compile, compile_wrapped, modules)

        sf = functions.ScalarFunction1D
        for attr in ("__call__", "value", "deriv", "deriv2"):
            self._set(sf, attr, self._method(sf, attr))

        density = transport.Density1D
        self._set(density, "__post_init__",
                  self.wrap("transport", "transport.Density1D.build",
                            density.__dict__["__post_init__"], self._after_build))
        for attr in ("cdf", "quantile", "pdf_deriv", "interior_nodes"):
            self._set(density, attr, self.wrap("transport", f"transport.Density1D.{attr}",
                                               density.__dict__[attr]))

        check_report = report.CheckReport
        reduce = check_report.__dict__["from_margins"].__func__
        self._set(check_report, "from_margins",
                  classmethod(self.wrap("report", "report.CheckReport.from_margins",
                                        reduce, self._after_reduce)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _method(self, cls, attr):
        original = cls.__dict__[attr]
        name_id = self._name_id(f"functions.ScalarFunction1D.{attr}")
        enter, exit_, counts = self._enter, self._exit, self.counts
        derivative = attr in ("deriv", "deriv2")
        analytic = "d1" if attr == "deriv" else "d2"

        def traced(obj, x):
            frame = enter("functions", name_id)
            try:
                result = original(obj, x)
            finally:
                exit_(frame)
            counts["functions.elements"] += _size(x)
            if derivative:
                counts["functions.deriv_calls"] += 1
                if getattr(obj, analytic) is None:
                    counts["functions.fd_calls"] += 1
            return result

        traced.__wrapped__ = original
        return traced

    # -- counters ----------------------------------------------------------

    def _compile_counting(self, compile_expr):
        """compile_expr whose compiled evaluator counts into ``expr``."""
        enter, exit_, counts = self._enter, self._exit, self.counts
        name_id = self._name_id("expr.eval")

        def compile_and_count(*args, **kwargs):
            fun = compile_expr(*args, **kwargs)
            evaluate = fun.fn

            def counted(value):
                frame = enter("expr", name_id)
                try:
                    out = evaluate(value)
                finally:
                    counts["expr.eval_s"] += exit_(frame)
                counts["expr.eval_calls"] += 1
                counts["expr.elements"] += _size(value)
                return out

            return dataclasses.replace(fun, fn=counted)

        return compile_and_count

    def _after_compile(self, args, kwargs, result, seconds):
        self.counts["expr.compile_calls"] += 1

    def _after_elements(self, args, kwargs, result, seconds):
        self.counts["comparison.elements"] += max(
            [_size(a) for a in args] + [_size(v) for v in kwargs.values()])

    def _after_integrate(self, args, kwargs, result, seconds):
        self.counts["quadrature.calls"] += 1
        bound = self._integrate_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        base = bound.arguments["n0"] * bound.arguments["panels"]
        # evals = base * (2**(d + 1) - 1) after d doublings
        self.counts["quadrature.evals"] += result.n_evaluations
        self.counts["quadrature.doublings"] += round(
            math.log2(result.n_evaluations / base + 1) - 1)
        if not result.converged:
            self.counts["quadrature.failures"] += 1

    def _after_w2(self, args, kwargs, result, seconds):
        self.counts["transport.w2_calls"] += 1
        self.counts["transport.w2_s"] += seconds

    def _after_flow(self, args, kwargs, result, seconds):
        self.counts["gradflow.integrate_flow_s"] += seconds
        self.counts["gradflow.rk4_steps"] += len(result) - 1

    def _after_pointwise(self, args, kwargs, result, seconds):
        self.counts["convexity.check_pointwise_calls"] += 1

    def _after_build(self, args, kwargs, result, seconds):
        self.counts["transport.density_builds"] += 1
        self.counts["transport.table_nodes"] += args[0].quad_nodes
        self.counts["transport.density_build_s"] += seconds

    def _after_reduce(self, args, kwargs, result, seconds):
        # args = (cls, name, margins, locations, ...)
        n = result.n_evaluations
        self.counts["report.margins"] += n
        layer = self._caller_layer()
        if layer is not None:
            self.counts[f"{layer}.margins"] += n

    def _integrate_failed(self, exc: BaseException):
        self.counts["quadrature.calls"] += 1
        if isinstance(exc, self._quadrature_error):
            self.counts["quadrature.failures"] += 1

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": self.names[name_id], "start": start,
                                     "end": end, "parent": parent,
                                     "task": task}) + "\n")
