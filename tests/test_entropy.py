"""Quantized entropy inequality: residual signs, floors and convergence."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from hetclaw.charsol import asymptotic_profile, solution_grid
from hetclaw.entropy import (
    GriddedSolution,
    TestFunction,
    _bump,
    _bump_slope,
    _cell_weights,
    entropy_residual,
    entropy_sweep,
    from_snapshots,
    residual_floor,
    reversed_shock_solution,
)
from hetclaw.errors import DomainError, NonFinite, SupportNotCovered
from hetclaw.fvm import Grid1D, evolve, step_datum


def full_grid_residual(solution, phi, k):
    """The residual summed over every grid node, phi and its derivatives
    evaluated everywhere: the reference for the support-restricted sum."""
    times, xs, u = solution.times, solution.xs, solution.values
    tt, xx = times[:, None], xs[None, :]
    diff = u - k
    sign = np.sign(diff)
    integrand = (np.abs(diff) * phi.dt(tt, xx)
                 + sign * 0.5 * (u * u - k * k) * phi.dx(tt, xx)
                 - sign * solution.model.g_prime(np.broadcast_to(xx, u.shape))
                 * phi.value(tt, xx))

    def weights(z):
        return np.diff(np.concatenate([[z[0]], 0.5 * (z[1:] + z[:-1]),
                                       [z[-1]]]))

    wx = weights(xs)
    total = float(weights(times) @ integrand @ wx)
    if times[0] == 0.0:
        total += float(np.dot(np.abs(u[0] - k) * phi.value(0.0, xs), wx))
    return total


def assert_matches_full_grid(solution, phi, k):
    """Only the order of summation differs from the reference."""
    ref = full_grid_residual(solution, phi, k)
    scale = phi.c1_norm() * phi.diameter()
    assert entropy_residual(solution, phi, k) == pytest.approx(
        ref, rel=1e-12, abs=1e-13 * scale)


def constant_solution(model, c, times, xs):
    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float)
    return GriddedSolution(model, times, xs,
                           np.full((times.size, xs.size), float(c)))


# ===== Test functions =====

def test_bump_is_nonnegative_and_supported():
    phi = TestFunction(1.0, 0.2, 0.4, 0.6)
    ts = np.linspace(0.3, 1.7, 41)
    xs = np.linspace(-1.0, 1.4, 41)
    vals = phi.value(ts[:, None], xs[None, :])
    assert np.all(vals >= 0.0)
    assert phi.value(1.0, 0.2) == pytest.approx(1.0)
    assert phi.value(1.4, 0.2) == 0.0
    assert phi.value(1.0, -0.4) == 0.0


def test_bump_derivatives_match_finite_differences():
    phi = TestFunction(1.0, 0.0, 0.5, 0.8)
    h = 1e-6
    for t, x in ((0.8, 0.3), (1.2, -0.5), (1.0, 0.0)):
        fd_t = (phi.value(t + h, x) - phi.value(t - h, x)) / (2 * h)
        fd_x = (phi.value(t, x + h) - phi.value(t, x - h)) / (2 * h)
        assert phi.dt(t, x) == pytest.approx(fd_t, abs=1e-5)
        assert phi.dx(t, x) == pytest.approx(fd_x, abs=1e-5)


def test_bump_norms():
    phi = TestFunction(1.0, 0.0, 0.5, 0.8)
    ts = np.linspace(0.5, 1.5, 201)
    xs = np.linspace(-0.8, 0.8, 201)
    grid_dt = np.abs(phi.dt(ts[:, None], xs[None, :]))
    grid_dx = np.abs(phi.dx(ts[:, None], xs[None, :]))
    assert phi.c1_norm() >= max(grid_dt.max(), grid_dx.max()) - 1e-9
    assert phi.diameter() == pytest.approx(np.hypot(1.0, 1.6))


def test_bump_requires_positive_radii():
    with pytest.raises(DomainError):
        TestFunction(1.0, 0.0, 0.0, 0.5)


@pytest.mark.parametrize("t0, x0, rt, rx", [
    (np.nan, 0.0, 0.1, 0.1), (1.0, np.inf, 0.1, 0.1),
    (1.0, 0.0, np.nan, 0.1), (1.0, 0.0, 0.1, np.inf),
])
def test_test_functions_refuse_non_finite_centres_and_radii(t0, x0, rt, rx):
    """A NaN centre used to give a residual of 0.0, and a NaN radius
    passed the positivity check."""
    with pytest.raises(DomainError, match="finite"):
        TestFunction(t0, x0, rt, rx)


# ===== Exact cancellations =====

def test_constant_solution_at_its_own_level_is_exactly_zero(homog):
    sol = constant_solution(homog, 0.7, np.linspace(0.5, 1.5, 21),
                            np.linspace(-2.0, 2.0, 101))
    phi = TestFunction(1.0, 0.0, 0.3, 1.0)
    assert entropy_residual(sol, phi, 0.7) == 0.0


def test_constant_solution_off_level_sits_inside_the_floor(homog):
    sol = constant_solution(homog, 0.7, np.linspace(0.5, 1.5, 41),
                            np.linspace(-2.0, 2.0, 201))
    phi = TestFunction(1.0, 0.0, 0.3, 1.0)
    for k in (-1.0, 0.0, 2.0):
        r = entropy_residual(sol, phi, k)
        assert abs(r) <= abs(residual_floor(sol, phi))


def test_initial_term_balances_the_time_boundary(homog):
    """When the support touches t = 0 the initial-line integral must
    cancel the one-sided boundary of the time-derivative term."""
    sol = constant_solution(homog, 0.0, np.linspace(0.0, 1.0, 81),
                            np.linspace(-2.0, 2.0, 201))
    phi = TestFunction(0.2, 0.0, 0.5, 1.0)
    r = entropy_residual(sol, phi, 1.0)
    assert abs(r) <= abs(residual_floor(sol, phi))


# ===== Signs on genuine solutions =====

def test_exact_solution_clears_the_scaled_tolerance(charsol_entropy_solution):
    report = entropy_sweep(charsol_entropy_solution, 20, seed=11)
    for phi, r in zip(report.phis, report.residuals):
        scale = phi.c1_norm() * phi.diameter()
        assert r >= -1e-3 * scale
    assert not report.flags


def test_exact_solution_sweep_floor(charsol_entropy_solution):
    report = entropy_sweep(charsol_entropy_solution, 50, seed=11)
    assert report.ok
    assert report.min_residual >= -1e-3


def test_scheme_solution_sweep_floor(fvm_entropy_solution):
    report = entropy_sweep(fvm_entropy_solution, 50, seed=7)
    assert report.ok
    assert not report.flags


def test_stationary_entropic_jump_passes_every_level(quartic):
    times = np.linspace(0.0, 2.0, 81)
    xs = -2.0 + (np.arange(1024) + 0.5) * (4.0 / 1024)
    row = asymptotic_profile(quartic, xs)
    sol = GriddedSolution(quartic, times, xs, np.tile(row, (times.size, 1)))
    phi = TestFunction(1.0, 0.0, 0.6, 0.8)
    for k in (-2.0, -1.0, 0.0, 1.0, 2.0):
        r = entropy_residual(sol, phi, k)
        assert r >= residual_floor(sol, phi)
    assert entropy_residual(sol, phi, 0.0) > 0.01


# ===== Negative control =====

def test_reversed_jump_is_flagged(quartic):
    times = np.linspace(0.0, 2.0, 41)
    xs = -2.0 + (np.arange(256) + 0.5) * (4.0 / 256)
    control = reversed_shock_solution(quartic, times, xs)
    phi = TestFunction(1.0, 0.0, 0.8, 1.5)
    assert entropy_residual(control, phi, 0.0) < -0.5
    report = entropy_sweep(control, 50, seed=3)
    assert not report.ok
    assert len(report.flags) >= 1


# ===== Support-restricted sum against the full-grid reference =====

def wavy_solution(model, times, xs):
    """A smooth field plus a moving jump, so every term of the integrand
    and both signs of u - k show up."""
    tt, xx = times[:, None], xs[None, :]
    return GriddedSolution(model, times, xs,
                           np.sin(3.0 * xx + tt) + np.where(xx < 0.3 * tt,
                                                            1.2, -0.4))


def test_restricted_sum_matches_the_full_grid_on_nonuniform_axes(quartic):
    rng = np.random.default_rng(5)
    times = np.sort(np.concatenate([[0.1, 2.7], rng.uniform(0.1, 2.7, 78)]))
    xs = 2.5 * np.tanh(np.linspace(-1.5, 1.5, 301)) / np.tanh(1.5)
    sol = wavy_solution(quartic, times, xs)
    for t0, x0, rt, rx in ((1.2, 0.0, 0.5, 1.0), (1.0, -1.3, 0.3, 0.9),
                           (2.0, 1.1, 0.6, 0.4)):
        for k in (-1.5, 0.0, 0.35, 2.0):
            assert_matches_full_grid(sol, TestFunction(t0, x0, rt, rx), k)


def test_support_edges_on_nodes_add_nothing(quartic):
    times = np.arange(17) / 8.0
    xs = np.arange(-32, 33) / 16.0
    sol = wavy_solution(quartic, times, xs)
    phi = TestFunction(1.0, 0.25, 0.5, 0.75)
    assert {0.5, 1.5} <= set(times) and {-0.5, 1.0} <= set(xs)
    for k in (-1.0, 0.5, 1.5):
        assert_matches_full_grid(sol, phi, k)


@pytest.mark.parametrize("t0, x0, rt, rx", [
    (1.5, 0.0, 0.4, 0.3),     # no node in time, nodes in space
    (1.0, 0.5, 0.8, 0.2),     # nodes in time, none in space
])
def test_support_without_interior_nodes_is_exactly_zero(
        quartic, t0, x0, rt, rx):
    """With no node inside the support the initial line has none either,
    so the residual is its initial term, 0."""
    times = np.array([0.0, 1.0, 2.0, 3.0])
    xs = np.array([-1.0, -0.25, 0.0, 0.25, 1.0])
    sol = wavy_solution(quartic, times, xs)
    phi = TestFunction(t0, x0, rt, rx)
    assert not phi.value(0.0, xs).any()
    assert entropy_residual(sol, phi, 0.2) == 0.0
    assert full_grid_residual(sol, phi, 0.2) == 0.0


def test_support_through_t_zero_keeps_the_initial_term(quartic):
    times = np.linspace(0.0, 1.5, 61) ** 1.5
    xs = np.linspace(-2.0, 2.0, 257)
    sol = wavy_solution(quartic, times, xs)
    phi = TestFunction(0.2, -0.3, 0.5, 1.1)
    assert phi.value(0.0, -0.3) > 0.0
    for k in (-0.8, 0.1, 1.3):
        assert_matches_full_grid(sol, phi, k)


@pytest.mark.parametrize("control", [False, True])
def test_sweep_flags_match_the_full_grid(fvm_entropy_solution, quartic,
                                         control):
    sol = fvm_entropy_solution
    if control:
        sol = reversed_shock_solution(quartic, np.linspace(0.0, 2.5, 41),
                                      sol.xs[::2])
    report = entropy_sweep(sol, 50, seed=4)
    ref = [full_grid_residual(sol, phi, k)
           for phi, k in zip(report.phis, report.k_values)]
    assert report.flags == [i for i, (r, f) in
                            enumerate(zip(ref, report.floors)) if r < f]
    assert bool(report.flags) == control


# ===== Convergence =====

def test_classical_region_residual_shrinks_linearly(quartic):
    phi = TestFunction(2.5, 1.5, 0.3, 0.3)
    sizes = []
    for fac in (1, 2, 4):
        times = np.linspace(0.2, 3.0, 56 * fac + 1)
        n = 256 * fac
        xs = -2.0 + (np.arange(n) + 0.5) * (4.0 / n)
        sol = GriddedSolution(quartic, times, xs,
                              solution_grid(quartic, times, xs,
                                            n_orbits=4096))
        sizes.append(abs(entropy_residual(sol, phi, 0.7)))
    assert sizes[1] <= 0.6 * sizes[0]
    assert sizes[2] <= 0.6 * sizes[1] + 1e-9


# ===== Guards =====

def test_uncovered_support_is_rejected(homog):
    sol = constant_solution(homog, 0.0, np.linspace(0.5, 1.5, 11),
                            np.linspace(-1.0, 1.0, 11))
    with pytest.raises(SupportNotCovered):
        entropy_residual(sol, TestFunction(1.0, 0.9, 0.3, 0.5), 0.0)


def test_report_serializes(fvm_entropy_solution):
    report = entropy_sweep(fvm_entropy_solution, 3, seed=1)
    payload = report.as_dict()
    assert payload["count"] == 3
    assert payload["seed"] == 1
    assert np.isfinite(payload["min_residual"])


def support_residual(solution, phi, k):
    """The support-restricted residual with each integrand in its own
    blocks (six support blocks at once): the reference for the two
    reused blocks of entropy_residual."""
    times, xs, u = solution.times, solution.xs, solution.values
    i0 = np.searchsorted(times, phi.t0 - phi.rt, side="right")
    i1 = np.searchsorted(times, phi.t0 + phi.rt, side="left")
    j0 = np.searchsorted(xs, phi.x0 - phi.rx, side="right")
    j1 = np.searchsorted(xs, phi.x0 + phi.rx, side="left")
    wt = _cell_weights(times)
    wx = _cell_weights(xs)
    xi_t = (times[i0:i1] - phi.t0) / phi.rt
    xi_x = (xs[j0:j1] - phi.x0) / phi.rx
    wa = wt[i0:i1] * _bump(xi_t)
    wa_t = wt[i0:i1] * _bump_slope(xi_t) / phi.rt
    wb = wx[j0:j1] * _bump(xi_x)
    wb_x = wx[j0:j1] * _bump_slope(xi_x) / phi.rx
    u_in = u[i0:i1, j0:j1]
    diff = u_in - k
    sign = np.sign(diff)
    total = float(wa_t @ np.abs(diff) @ wb
                  + wa @ (sign * 0.5 * (u_in * u_in - k * k)) @ wb_x
                  - wa @ sign @ (wb * solution.model.g_prime(xs[j0:j1])))
    if times[0] == 0.0:
        total += float(np.dot(np.abs(u[0] - k) * phi.value(0.0, xs), wx))
    return total


@pytest.mark.parametrize("t", [2.3, 2.7])
def test_raster_and_residuals_keep_their_bits(quartic, t):
    """On the cross-check's inputs (101 marks to t, 4,000 cells of
    [-3, 3], 4,096 orbits), the in-place reflection equals np.where over
    the raster of |x|, and every residual of a 50-test sweep on the FVM
    and the orbit grids equals support_residual, all to the bit."""
    grid = Grid1D(-3.0, 3.0, 4000)
    x = grid.centers()
    marks = np.linspace(0.0, t, 101)
    u = solution_grid(quartic, marks, x, n_orbits=4096)
    u_abs = solution_grid(quartic, marks, np.abs(x), n_orbits=4096)
    assert u.tobytes() == np.where(x < 0.0, -u_abs, u_abs).tobytes()

    result = evolve(quartic, step_datum(grid), t, snapshot_times=marks)
    for seed, solution in enumerate(
            (from_snapshots(quartic, x, result.snapshots),
             GriddedSolution(quartic, marks, x, u))):
        report = entropy_sweep(solution, 50, seed=seed)
        ref = [support_residual(solution, phi, k)
               for phi, k in zip(report.phis, report.k_values)]
        assert report.residuals.tobytes() == np.array(ref).tobytes()


def test_a_sweep_holds_two_support_blocks(quartic):
    """On a 101 x 20,000 grid a support spans up to 70% of each axis,
    so two blocks of it stay under 1.25 grids above the input; six
    blocks, one per integrand, used to peak at 1.66 grids."""
    solution = reversed_shock_solution(quartic, np.linspace(0.0, 2.5, 101),
                                       Grid1D(-3.0, 3.0, 20_000).centers())
    tracemalloc.start()
    try:
        entropy_sweep(solution, 50, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * solution.values.nbytes


@pytest.mark.parametrize("n_tests, seed, name", [
    (2.5, 0, "n_tests"), ("3", 0, "n_tests"), (None, 0, "n_tests"),
    (3, -1, "seed"), (3, 1.5, "seed"), (3, None, "seed"),
    (True, 0, "n_tests"), (3, False, "seed"),
])
def test_sweeps_refuse_counts_and_seeds_that_are_not_integers(
        fvm_entropy_solution, n_tests, seed, name):
    """Each used to escape as a raw TypeError or ValueError, or, for a
    seed of None, to draw an unrecorded one; a bool used to run as 1 or
    0."""
    with pytest.raises(DomainError, match=name):
        entropy_sweep(fvm_entropy_solution, n_tests, seed=seed)


@pytest.mark.parametrize("axis", ["times", "positions", "values"])
def test_gridded_solutions_refuse_non_finite_entries(quartic, axis):
    """A NaN block in the values used to pass a sweep: NaN residuals are
    never below their floor, so the report read ok."""
    grid = {"times": np.linspace(0.0, 1.0, 11),
            "positions": np.linspace(-1.0, 1.0, 21),
            "values": np.zeros((11, 21))}
    if axis == "values":
        grid[axis][3:6, 5:9] = np.nan
    else:
        grid[axis][-1] = np.inf
    with pytest.raises(DomainError, match=f"gridded {axis} must be finite"):
        GriddedSolution(quartic, grid["times"], grid["positions"],
                        grid["values"])


def test_residuals_refuse_non_finite_levels_and_sums(homog):
    """A level of nan or inf used to give a NaN residual; 1e200 squares
    past the largest float, and its sum is refused as it comes out."""
    sol = constant_solution(homog, 0.7, np.linspace(0.5, 1.5, 21),
                            np.linspace(-2.0, 2.0, 101))
    phi = TestFunction(1.0, 0.0, 0.3, 1.0)
    for k in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="k must be finite"):
            entropy_residual(sol, phi, k)
    with np.errstate(invalid="ignore"), pytest.raises(NonFinite):
        entropy_residual(sol, phi, 1e200)


def test_gridded_solutions_and_sweeps_refuse_bad_shapes(quartic):
    times, xs = np.array([0.0, 1.0]), np.array([-1.0, 1.0])
    with pytest.raises(DomainError, match="shape"):
        GriddedSolution(quartic, times, xs, np.zeros((2, 3)))
    solution = GriddedSolution(quartic, times, xs, np.zeros((2, 2)))
    with pytest.raises(DomainError, match="n_tests"):
        entropy_sweep(solution, 0)
