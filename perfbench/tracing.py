"""Outside-in layer tracing for the benchmark.

The tracer never edits the library.  For the duration of a traced round it
replaces the cross-module names each layer calls through (for example
``hetclaw.shooting.terminal_state``, which is how the shooting layer
reaches the flow layer) with thin wrappers that record a span per call,
and it restores the originals afterwards.  Untraced rounds run with no
wrapper installed.

A span is (name, layer, start, end, parent) plus a few numbers read off
the call's arguments and result: RK4 steps derived as
ceil(|t| / dt_max) x orbits, shooting residuals, FVM steps and cells,
entropy residual counts.  Spans stay in memory; ``layer_metrics`` folds
one round's spans into the per-layer metrics and ``dump`` writes them out.
"""

from __future__ import annotations

import inspect
import math
import time

import numpy as np

import hetclaw.charsol
import hetclaw.design
import hetclaw.period
import hetclaw.shooting
from hetclaw.errors import BracketFailure


def _steps(duration: float, dt_max: float) -> int:
    """RK4 steps the library's fixed-step marcher takes over ``duration``."""
    if duration == 0.0:
        return 0
    return max(int(math.ceil(abs(duration) / dt_max - 1e-12)), 1)


# Each describer reads a finished call's bound arguments and result and
# returns the numbers the layer metrics need.

def _scalar_march(args, result):
    return {"steps": _steps(float(args["t"]), float(args["dt_max"])),
            "orbits": 1}


def _batch_march(args, result):
    orbits = int(np.size(args["q0"]))
    steps = _steps(float(args["t"]), float(args["dt_max"]))
    return {"steps": steps * orbits, "orbits": orbits}


def _batch_record(args, result):
    orbits = int(np.size(args["q0"]))
    rt = np.asarray(args["record_times"], dtype=float)
    dt_max = float(args["dt_max"])
    steps = sum(_steps(float(d), dt_max) for d in np.diff(rt))
    return {"steps": steps * orbits, "orbits": orbits}


def _solve(args, result):
    return {"solves": 1,
            "converged": int(abs(result.residual) <= args["shoot_tol"]),
            "worst": abs(float(result.residual))}


def _solve_batch(args, result):
    res = np.abs(np.asarray(result[2], dtype=float))
    return {"solves": int(res.size),
            "converged": int(np.count_nonzero(res <= args["shoot_tol"])),
            "worst": float(np.max(res)) if res.size else 0.0}


def _evolve(args, result):
    return {"steps": int(result.steps), "cells": int(args["u0"].grid.n)}


def _sweep(args, result):
    sol = args["solution"]
    return {"residuals": int(args["n_tests"]),
            "nodes": int(sol.times.size * sol.xs.size)}


def _footprint(args, result):
    return {"orbits": int(result.xs.size)}


def _nothing(args, result):
    return {}


# (module, attribute, layer, kind, describer): every cross-module call the
# three workloads make between the eight layers.
PATCHES = (
    (hetclaw.charsol, "delta", "shooting", "solve", _solve),
    (hetclaw.charsol, "delta_batch", "shooting", "solve_batch", _solve_batch),
    (hetclaw.charsol, "terminal_state", "flow", "scalar_march", _scalar_march),
    (hetclaw.charsol, "terminal_batch", "flow", "batch_march", _batch_march),
    (hetclaw.charsol, "integrate_batch", "flow", "batch_record",
     _batch_record),
    (hetclaw.charsol, "invert_half_period", "period", "invert", _nothing),
    (hetclaw.charsol, "shock_time", "period", "shock_time", _nothing),
    (hetclaw.shooting, "terminal_state", "flow", "scalar_march",
     _scalar_march),
    (hetclaw.shooting, "terminal_batch", "flow", "batch_march", _batch_march),
    (hetclaw.shooting, "invert_half_period", "period", "invert", _nothing),
    (hetclaw.shooting, "shock_time", "period", "shock_time", _nothing),
    (hetclaw.period, "period_quadrature", "period", "quadrature", _nothing),
    (hetclaw.design, "solution_profile", "charsol", "profile", _nothing),
    (hetclaw.design, "terminal_batch", "flow", "batch_march", _batch_march),
    (hetclaw.design, "invert_half_period", "period", "invert", _nothing),
    (hetclaw.design, "shock_time", "period", "shock_time", _nothing),
    (hetclaw.design, "evolve", "fvm", "evolve", _evolve),
)

# Describers for the calls the workloads make themselves, by span name.
TOP_LEVEL = {
    "evolve": _evolve,
    "entropy_sweep": _sweep,
    "footprint": _footprint,
}


class Span:
    __slots__ = ("name", "layer", "kind", "start", "end", "parent", "error",
                 "info", "children")

    def __init__(self, name, layer, kind, parent):
        self.name = name
        self.layer = layer
        self.kind = kind
        self.parent = parent
        self.error = None
        self.info = {}
        self.children = []
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


class Tracer:
    """Span recorder; ``install``/``uninstall`` bracket a traced round."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved = []
        # seconds spent in the wrappers outside the wrapped calls
        self.overhead = 0.0

    def _run(self, name, layer, kind, describe, sig, fn, args, kwargs):
        entered = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, kind, parent)
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        self._stack.append(span)
        try:
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not _nothing:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = describe(bound.arguments, result)
            return result
        finally:
            self.overhead += time.perf_counter() - entered - span.duration

    def call(self, name, layer, fn, *args, **kwargs):
        """Run one workload-level call inside a span."""
        describe = TOP_LEVEL.get(name, _nothing)
        sig = inspect.signature(fn) if describe is not _nothing else None
        return self._run(name, layer, name, describe, sig, fn, args, kwargs)

    def install(self):
        for module, attr, layer, kind, describe in PATCHES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(
                f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", layer, kind,
                describe, fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, name, layer, kind, describe, fn):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            return self._run(name, layer, kind, describe, sig, fn, args,
                             kwargs)
        return traced

    def dump(self) -> list:
        """Spans as [name, start, end, parent index] rows."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s.name, s.start, s.end,
                 None if s.parent is None else index[id(s.parent)]]
                for s in self.spans]


def direct(name, layer, fn, *args, **kwargs):
    """Untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


# ===== Per-layer metrics =====

# Metrics that are counts (identical on reruns of a seed); all others are
# times or ratios of a time to a count.
COUNT_METRICS = (
    "flow.scalar_marches", "flow.scalar_steps", "flow.batch_marches",
    "flow.batch_orbit_steps", "flow.batch_width_mean", "shooting.solves",
    "shooting.marches_per_solve", "shooting.batch_rounds",
    "shooting.converged_ratio", "shooting.worst_residual",
    "period.invert_calls", "period.invert_hit_ratio",
    "period.quadrature_calls", "period.shock_time_calls",
    "charsol.point_queries", "charsol.fallbacks", "charsol.grid_orbits",
    "fvm.steps", "fvm.cell_steps", "entropy.residuals",
    "design.footprint_orbits", "model.gprime_evals",
)


UNITS = {
    "flow.batch_width_mean": "orbits",
    "shooting.marches_per_solve": "marches",
    "shooting.converged_ratio": "ratio",
    "shooting.worst_residual": "length",
    "period.invert_hit_ratio": "ratio",
}


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    return "ns" if ".ns_" in name or "_ns_" in name else "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Fold one round's spans into the per-layer metrics.

    A ratio whose base is zero (the layer did no such work) reads 0.
    """
    def of(*kinds):
        return [s for s in spans if s.kind in kinds]

    def total(items, key):
        return sum(s.info.get(key, 0) for s in items)

    scalar = of("scalar_march")
    batch = of("batch_march", "batch_record")
    solves = of("solve")
    solve_batches = of("solve_batch")
    inverts = of("invert")
    evolves = of("evolve")
    sweeps = of("entropy_sweep")

    scalar_steps = total(scalar, "steps")
    scalar_s = sum(s.duration for s in scalar)
    batch_steps = total(batch, "steps")
    batch_s = sum(s.duration for s in batch)
    n_solves = total(solves + solve_batches, "solves") + sum(
        1 for s in solves if s.error is not None)
    shooting_marches = sum(1 for s in scalar if s.parent is not None
                           and s.parent.kind == "solve")
    cell_steps = sum(s.info.get("steps", 0) * s.info.get("cells", 0)
                     for s in evolves)
    fvm_s = sum(s.duration for s in evolves)
    residuals = total(sweeps, "residuals")
    nodes = sum(s.info.get("residuals", 0) * s.info.get("nodes", 0)
                for s in sweeps)
    entropy_s = sum(s.duration for s in sweeps)

    def has_quadrature(span):
        return any(c.kind == "quadrature" or has_quadrature(c)
                   for c in span.children)

    def self_time(layer):
        return sum(s.self_time for s in spans if s.layer == layer)

    return {
        "flow.scalar_marches": len(scalar),
        "flow.scalar_steps": scalar_steps,
        "flow.scalar_s": scalar_s,
        "flow.scalar_ns_per_step": _ratio(scalar_s * 1e9, scalar_steps),
        "flow.batch_marches": len(batch),
        "flow.batch_orbit_steps": batch_steps,
        "flow.batch_width_mean": _ratio(total(batch, "orbits"), len(batch)),
        "flow.batch_s": batch_s,
        "flow.batch_ns_per_orbit_step": _ratio(batch_s * 1e9, batch_steps),
        "shooting.solves": n_solves,
        "shooting.marches_per_solve": _ratio(shooting_marches, len(solves)),
        "shooting.batch_rounds": sum(
            1 for s in batch if s.parent is not None
            and s.parent.kind == "solve_batch"),
        "shooting.self_s": self_time("shooting"),
        "shooting.converged_ratio": _ratio(
            total(solves + solve_batches, "converged"), n_solves),
        "shooting.worst_residual": max(
            [s.info.get("worst", 0.0) for s in solves + solve_batches],
            default=0.0),
        "period.invert_calls": len(inverts),
        "period.invert_hit_ratio": _ratio(
            sum(1 for s in inverts if not has_quadrature(s)), len(inverts)),
        "period.invert_s": sum(s.duration for s in inverts),
        "period.quadrature_calls": len(of("quadrature")),
        "period.shock_time_calls": len(of("shock_time")),
        "charsol.point_queries": len(of("eval_solution")),
        "charsol.fallbacks": sum(1 for s in solves
                                 if s.error == BracketFailure.__name__),
        "charsol.grid_orbits": total(
            [s for s in batch if s.name == "charsol.integrate_batch"],
            "orbits"),
        "charsol.self_s": self_time("charsol"),
        "fvm.steps": total(evolves, "steps"),
        "fvm.cell_steps": cell_steps,
        "fvm.s": fvm_s,
        "fvm.ns_per_cell_step": _ratio(fvm_s * 1e9, cell_steps),
        "entropy.residuals": residuals,
        "entropy.s": entropy_s,
        "entropy.ns_per_node": _ratio(entropy_s * 1e9, nodes),
        "design.footprint_orbits": total(of("footprint"), "orbits"),
        "design.self_s": self_time("design"),
        # four g' evaluations per RK4 orbit-step, one per FVM cell-step
        "model.gprime_evals": 4 * (scalar_steps + batch_steps) + cell_steps,
    }
