"""The three benchmark workloads: seeded inputs, timed work, output gates.

Every workload is a closed loop with one caller: a round is a list of
items generated from ``(seed, round index)``, each item runs to completion
before the next starts, and the gates run on the round's outputs after the
timed section.  ``call(name, layer, fn, *args)`` is either the tracer's
span recorder or a plain call.

Inputs are drawn so that every round carries nearly the same amount of
work whatever the seed: times come in antithetic pairs (mirrored about the
centre of a stratum, in the coordinate they are uniform in), because the
cost of every route grows with the time horizon.  A seed therefore changes
which times, positions and test functions are used, not how much
marching a round does.
"""

from __future__ import annotations

import math

import numpy as np

import hetclaw as hc
from hetclaw.design import monotone_test
from hetclaw.entropy import reversed_shock_solution


def round_rng(seed: int, r: int):
    """Input stream of round ``r`` of a run with this seed."""
    return np.random.default_rng((seed, r))


def _antithetic(rng, lo: float, hi: float, strata: int) -> np.ndarray:
    """2 x ``strata`` draws, uniform on [lo, hi], in mirrored pairs.

    One uniform draw per equal-width stratum plus its mirror image about
    the stratum's centre: each draw is still uniform on [lo, hi], while
    the sum of a pair stays close to twice the stratum centre.
    """
    w = (hi - lo) / strata
    k = np.arange(strata)
    v = lo + w * (k + rng.uniform(size=strata))
    return np.concatenate([v, 2.0 * lo + w * (2.0 * k + 1.0) - v])


class PointLate:
    """Scalar point queries u(t, x) at early and late times.

    K = 10 times log-uniform on [0.5, 30] (five log strata, antithetic
    pairs) crossed with M = 2 positions, |x| uniform on [0.05, 2.5] with a
    random sign, queried in a seeded order.  Each time is queried at both
    positions, so the half-period inversion cache sees a miss and a hit
    for every time past the shock.
    """

    name = "point-late"
    T_RANGE = (0.5, 30.0)
    X_RANGE = (0.05, 2.5)
    STRATA = 5
    POSITIONS = 2
    GRID_T_MAX = 2.5     # cross-route gate only up to here
    GRID_TOL = 2e-4
    GRID_ORBITS = 4096
    MONOTONE_TOL = 1e-6

    def inputs(self, rng) -> list:
        times = np.exp(_antithetic(rng, math.log(self.T_RANGE[0]),
                                   math.log(self.T_RANGE[1]), self.STRATA))
        xs = rng.uniform(*self.X_RANGE, self.POSITIONS) \
            * rng.choice((-1.0, 1.0), self.POSITIONS)
        queries = [(float(t), float(x)) for t in times for x in xs]
        return [queries[i] for i in rng.permutation(len(queries))]

    def item(self, model, query, call):
        t, x = query
        return call("eval_solution", "charsol", hc.eval_solution,
                    model, t, x).u

    def check(self, model, queries, outputs) -> list:
        reasons = [None] * len(queries)
        t_shock = hc.shock_time(model)

        def fail(i, why):
            reasons[i] = reasons[i] or why

        done = [i for i, u in enumerate(outputs) if u is not None]
        # Orbits faster than the separatrix escape the well, so the bound
        # only holds once the separatrix orbit has passed |x|.
        separatrix = hc.integrate(model, 0.0, model.separatrix_momentum,
                                  max(t for t, _ in queries))
        passed = {}
        for x in {abs(x) for _, x in queries}:
            hits = hc.crossing_events(separatrix, level=x)
            passed[x] = hits[0] if hits.size else math.inf
        for i in done:
            t, x = queries[i]
            u = outputs[i]
            if not (math.isfinite(u) and abs(u) <= 2.0):
                fail(i, f"u={u} is not finite or exceeds 2")
            if abs(x) < model.cutoff and t > max(t_shock, passed[abs(x)]):
                bound = math.sqrt(2.0 * (model.flat_value - model.g(abs(x))))
                if math.copysign(1.0, x) * u >= bound:
                    fail(i, f"|u|={abs(u)} not below the limit {bound}")

        # decay in t at fixed x inside the well, past the shock
        for x in {queries[i][1] for i in done}:
            if abs(x) >= model.cutoff:
                continue
            seq = sorted((queries[i][0], i) for i in done
                         if queries[i][1] == x and queries[i][0] > t_shock)
            for (_, a), (_, b) in zip(seq, seq[1:]):
                rise = math.copysign(1.0, x) * (outputs[b] - outputs[a])
                if rise > self.MONOTONE_TOL:
                    fail(b, f"u rose by {rise} in t at x={x}")

        # cross-route agreement with the batched forward march
        early = [i for i in done if queries[i][0] <= self.GRID_T_MAX]
        if early:
            times = sorted({queries[i][0] for i in early})
            xs = sorted({queries[i][1] for i in early})
            grid = hc.solution_grid(model, times, xs,
                                    n_orbits=self.GRID_ORBITS)
            for i in early:
                t, x = queries[i]
                gap = abs(grid[times.index(t), xs.index(x)] - outputs[i])
                if gap > self.GRID_TOL:
                    fail(i, f"grid route differs by {gap} at t={t}, x={x}")
        return reasons


class DesignProfile:
    """Inverse design of the solution's own time slices.

    Two horizons per round, t uniform on [1.5, 3] and its mirror 4.5 - t,
    both past the shock time.  Each runs profile_from_solution on a
    symmetric 400-cell grid (one batched shooting of the 400 |x|), then
    footprint, monotone_test, reconstruct_vertex and round_trip, as the
    ``inverse`` experiment does.
    """

    name = "design-profile"
    T_RANGE = (1.5, 3.0)
    CELLS = 400
    SAMPLES = 2          # profile samples re-shot by the scalar route
    SAMPLE_TOL = 1e-7
    GAP_TOL = 1e-4
    ROUND_TRIP_TOL = 0.08

    def inputs(self, rng) -> list:
        horizons = _antithetic(rng, *self.T_RANGE, strata=1)
        return [(float(t), tuple(int(i) for i in rng.choice(
            self.CELLS, self.SAMPLES, replace=False))) for t in horizons]

    @staticmethod
    def _window(t: float) -> float:
        return max(3.0, 2.0 * t + 1.0)

    def item(self, model, horizon, call):
        t, _ = horizon
        half = self._window(t)
        xs = hc.Grid1D(-half, half, self.CELLS).centers()
        w = call("profile_from_solution", "design",
                 hc.profile_from_solution, model, t, xs)
        fm = call("footprint", "design", hc.footprint, model, t, w)
        report = call("monotone_test", "design", monotone_test, fm)
        rec = call("reconstruct_vertex", "design", hc.reconstruct_vertex, fm)
        l1 = call("round_trip", "design", hc.round_trip, model, t, w,
                  (-half, half), reconstructed=rec)
        return w, report, l1

    def check(self, model, horizons, outputs) -> list:
        reasons = [None] * len(horizons)
        for i, ((t, samples), out) in enumerate(zip(horizons, outputs)):
            if out is None:
                continue
            w, report, l1 = out
            gap = abs(report.gap_collapse[0][1]) if report.gap_collapse \
                else math.inf
            worst = max(abs(float(w.ws[k]) - hc.eval_solution(
                model, t, float(w.xs[k])).u) for k in samples)
            if not report.monotone:
                reasons[i] = f"{len(report.violations)} decreasing feet"
            elif gap > self.GAP_TOL:
                reasons[i] = f"extremal gap {gap}"
            elif not l1 < self.ROUND_TRIP_TOL:
                reasons[i] = f"round-trip L1 {l1}"
            elif worst > self.SAMPLE_TOL:
                reasons[i] = f"profile differs from point route by {worst}"
        return reasons


class RasterCrosscheck:
    """Whole-field routes: FVM, forward orbit raster and entropy sweeps.

    Two horizons per round, t uniform on [2, 3] and its mirror 5 - t.
    Each evolves the step datum on a 4000-cell mesh of [-3, 3] with 101
    snapshots, rasterizes the semi-analytic solution at the same times
    and cell centres from 4096 forward orbits, and runs a 50-test entropy
    sweep on both gridded solutions and on the reversed control.  No
    scalar or batched shooting is involved.
    """

    name = "raster-crosscheck"
    T_RANGE = (2.0, 3.0)
    CELLS = 4000
    SNAPSHOTS = 101
    ORBITS = 4096
    TESTS = 50
    ODD_TOL = 1e-12

    def inputs(self, rng) -> list:
        horizons = _antithetic(rng, *self.T_RANGE, strata=1)
        return [(float(t), tuple(int(s) for s in rng.integers(0, 2**31, 3)))
                for t in horizons]

    def item(self, model, horizon, call):
        t, seeds = horizon
        grid = hc.Grid1D(-3.0, 3.0, self.CELLS)
        x = grid.centers()
        marks = np.linspace(0.0, t, self.SNAPSHOTS)
        result = call("evolve", "fvm", hc.evolve, model, hc.step_datum(grid),
                      t, snapshot_times=marks)
        u = call("solution_grid", "charsol", hc.solution_grid, model, marks,
                 x, n_orbits=self.ORBITS)
        solutions = (
            hc.from_snapshots(model, x, result.snapshots),
            hc.GriddedSolution(model, marks, x, u),
            reversed_shock_solution(model, np.linspace(0.0, t, 41),
                                    hc.Grid1D(-2.0, 2.0, 256).centers()),
        )
        reports = [call("entropy_sweep", "entropy", hc.entropy_sweep, sol,
                        self.TESTS, seed=s)
                   for sol, s in zip(solutions, seeds)]
        return result.final.values, reports

    def check(self, model, horizons, outputs) -> list:
        reasons = [None] * len(horizons)
        for i, out in enumerate(outputs):
            if out is None:
                continue
            final, (fvm, exact, control) = out
            odd = float(np.max(np.abs(final + final[::-1])))
            if not fvm.ok:
                reasons[i] = f"FVM sweep flagged {len(fvm.flags)} tests"
            elif not exact.ok:
                reasons[i] = f"orbit-raster sweep flagged {len(exact.flags)}"
            elif control.ok:
                reasons[i] = "reversed control passed the sweep"
            elif odd > self.ODD_TOL:
                reasons[i] = f"FVM field odd only to {odd}"
        return reasons


WORKLOADS = {w.name: w for w in (PointLate(), DesignProfile(),
                                 RasterCrosscheck())}
