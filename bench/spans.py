"""In-memory span tracer that instruments tracelogdet from outside.

The program itself carries no tracing.  ``instrument`` rebinds, in every
loaded ``tracelogdet`` module (and in ``scipy.optimize`` for the solver's
scipy calls), the names that callers look up, so that each call records a
span: name, request id, start, end, parent span and the exception it
raised, if any.  ``uninstrument`` restores the original functions.  The
timed runs never call ``instrument``.

Self time of a span is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans kept in parallel lists; aggregated once the run ends."""

    def __init__(self):
        self.name: list[str] = []
        self.req: list[int] = []
        self.parent: list[int] = []
        self.t0: list[int] = []
        self.t1: list[int] = []
        self.error: list[str | None] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's arguments;
        ``on_result(tracer, result)`` records counts taken from the result.
        """
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.t0)
            tracer.name.append(name if isinstance(name, str)
                               else name(*args, **kwargs))
            tracer.req.append(tracer.request)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.t1.append(0)
            tracer.error.append(None)
            tracer._stack.append(i)
            tracer.t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.error[i] = type(exc).__name__
                raise
            finally:
                tracer.t1[i] = clock()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, failures, durations and self times in ns."""
        child_ns = [0] * len(self.t0)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.t1[i] - self.t0[i]
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "failed": 0, "dur": [], "self": []})
        for i, name in enumerate(self.name):
            rec = out[name]
            dur = self.t1[i] - self.t0[i]
            rec["calls"] += 1
            rec["dur"].append(dur)
            rec["self"].append(dur - child_ns[i])
            if self.error[i] is not None:
                rec["failed"] += 1
        return dict(out)


def median_of(rec: dict | None, key: str = "dur") -> float | None:
    if not rec or not rec[key]:
        return None
    return float(statistics.median(rec[key]))


def _rebind(modules, original, replacement, undo):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def instrument(tracer: Tracer) -> list:
    """Wrap the public functions of each layer; returns the undo list."""
    import scipy.optimize
    import tracelogdet.cli  # noqa: F401  (the CLI's bindings are rebound too)
    from tracelogdet import (bounds, estimators, io, measure_solver, moments,
                             noise, report)

    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "tracelogdet"
                                     or n.startswith("tracelogdet."))]
    undo: list = []

    def add(fn, name, on_result=None, where=modules):
        _rebind(where, fn, tracer.wrap(name, fn, on_result), undo)

    def ktrace_name(sense, nm, k, *args, **kwargs):
        return f"bounds.ktrace.{sense}.k{k}"

    def count_truncations(t, result):
        t.counts["noise.truncations"] += int(result[1])

    def count_nit(t, result):
        t.counts["measure_solver.scipy_minimize.nit"] += int(
            getattr(result, "nit", 0))

    add(io.read_traces, "io.read_traces")
    add(moments.normalize, "moments.normalize")
    add(moments.cumulants, "moments.cumulants")
    add(moments.newton_maclaurin, "moments.newton_maclaurin")
    add(estimators.k0m_estimate, "estimators.k0m_estimate")
    add(estimators.lagrange_weights, "estimators.lagrange_weights")
    add(estimators.cv_diagnostic, "estimators.cv_diagnostic")
    add(bounds.bounds_report, "bounds.bounds_report")
    add(bounds.ktrace_bound, ktrace_name)
    add(measure_solver.solve, "measure_solver.solve")
    add(report.certify, "report.certify")
    add(noise.monte_carlo, "noise.monte_carlo")
    add(noise.perturb, "noise.perturb", count_truncations)
    scipy_targets = modules + [scipy.optimize]
    add(scipy.optimize.minimize, "scipy.minimize", count_nit, scipy_targets)
    add(scipy.optimize.nnls, "scipy.nnls", where=scipy_targets)
    add(scipy.optimize.linprog, "scipy.linprog", where=scipy_targets)
    add(scipy.optimize.least_squares, "scipy.least_squares",
        where=scipy_targets)
    return undo


def uninstrument(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)
