"""Quantized entropy inequality: residual signs, floors and convergence."""
from __future__ import annotations

import numpy as np
import pytest

from hetclaw.charsol import asymptotic_profile, solution_grid
from hetclaw.entropy import (
    FLOOR_C,
    GriddedSolution,
    TestFunction,
    entropy_residual,
    entropy_sweep,
    residual_floor,
    reversed_shock_solution,
)
from hetclaw.errors import DomainError, SupportNotCovered


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
