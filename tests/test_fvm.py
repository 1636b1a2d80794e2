"""Godunov scheme: fluxes, source split, structure and convergence."""
from __future__ import annotations

import dataclasses
import functools
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetclaw import fvm
from hetclaw.charsol import asymptotic_profile, solution_grid, solution_profile
from hetclaw.design import footprint, profile_from_solution, reconstruct_vertex
from hetclaw.errors import DomainError, HetclawError, NonFinite, NotFound
from hetclaw.fvm import (
    DEFAULT_CFL,
    CellField,
    Grid1D,
    detect_shock_formation,
    evolve,
    godunov_flux,
    l1_distance,
    step_datum,
    _March,
)
from hetclaw.model import homogeneous, quartic_well

SQRT6 = np.sqrt(6.0)


# ===== Grid and datum =====

def test_centers_mirror_exactly():
    c = Grid1D(-4.0, 4.0, 800).centers()
    np.testing.assert_array_equal(c, -c[::-1])
    assert Grid1D(-4.0, 4.0, 800).dx == pytest.approx(0.01)


def test_step_datum_signs():
    grid = Grid1D(-2.0, 2.0, 8)
    u = step_datum(grid).values
    assert np.all(u[:4] == -2.0)
    assert np.all(u[4:] == 2.0)


def test_grid_rejects_tiny_cell_counts():
    """A fractional count used to give n + 1/2 rounded up centers, and an
    infinite bound an infinite cell width."""
    for bounds, n in [((-1.0, 1.0), 2), ((-3.0, 3.0), 40.5),
                      ((-3.0, 3.0), 40.0), ((-np.inf, 3.0), 40),
                      ((-3.0, np.nan), 40), ((-1e308, 1e308), 40),
                      ((3.0, -3.0), 40)]:
        with pytest.raises(DomainError):
            Grid1D(*bounds, n)


def test_fields_match_their_grid():
    with pytest.raises(DomainError, match="length"):
        CellField(Grid1D(-1.0, 1.0, 4), np.zeros(5))


# ===== Numerical flux =====

def test_flux_selects_the_entropic_state():
    assert godunov_flux(-2.0, 2.0) == 0.0
    assert godunov_flux(2.0, 2.0) == 2.0
    assert godunov_flux(2.0, -2.0) == 2.0
    assert godunov_flux(0.0, 0.0) == 0.0


def test_flux_vectorizes():
    ul = np.array([-2.0, 2.0, 2.0, -1.0])
    ur = np.array([2.0, 2.0, -2.0, -1.0])
    np.testing.assert_array_equal(godunov_flux(ul, ur),
                                  np.array([0.0, 2.0, 2.0, 0.5]))


# ===== Single steps =====

def test_source_split_is_exact_on_rest_data(quartic):
    """With u identically zero every numerical flux vanishes, so one step
    applies exactly the source term and nothing else."""
    grid = Grid1D(-2.0, 2.0, 400)
    u0 = CellField(grid, np.zeros(400))
    dt = 1e-3
    u1 = evolve(quartic, u0, dt).final
    x = grid.centers()
    np.testing.assert_array_equal(u1.values, -dt * quartic.g_prime(x))
    outside = np.abs(x) > 1.0
    assert np.all(u1.values[outside] == 0.0)


def test_riemann_step_changes_only_by_the_source_away_from_zero(quartic):
    grid = Grid1D(-2.0, 2.0, 400)
    u0 = step_datum(grid)
    dt = 5e-4
    u1 = evolve(quartic, u0, dt).final
    x = grid.centers()
    change = u1.values - u0.values
    expected = -dt * quartic.g_prime(x)
    interface = np.zeros(400, dtype=bool)
    interface[199] = interface[200] = True
    # rounding of (datum + tiny source) against the datum leaves ~1 ulp of 2
    np.testing.assert_allclose(change[~interface], expected[~interface],
                               rtol=0.0, atol=1e-15)
    assert np.all(np.abs(change[interface] - expected[interface]) > 1e-6)


def test_stationary_profile_residual_shrinks_linearly(quartic):
    rates = {}
    for n in (400, 800):
        grid = Grid1D(-4.0, 4.0, n)
        u0 = CellField(grid, asymptotic_profile(quartic, grid.centers()))
        dt = 1e-3
        u1 = evolve(quartic, u0, dt).final
        rates[n] = np.max(np.abs(u1.values - u0.values)) / dt
        assert rates[n] <= 5.0 * grid.dx
    assert 0.35 <= rates[800] / rates[400] <= 0.65


def test_cfl_guard(quartic):
    """A march steps at cfl * dx over the largest wave speed."""
    grid = Grid1D(-2.0, 2.0, 100)
    _, dt, _ = next(iter(_March(quartic, step_datum(grid), 1.0, 0.45)))
    assert dt == pytest.approx(0.45 * grid.dx / 2.0)


@pytest.mark.parametrize("t_final, cfl, times", [
    *(pytest.param(t, c, (), id=f"{t}-{c}") for t, c in [
        (np.nan, 0.45), (np.inf, 0.45), (-1.0, 0.45), (1.0, 0.0),
        (1.0, -0.45), (1.0, np.nan), (1.0, 1.5), (1.0, np.inf)]),
    pytest.param(1.0, 0.45, (0.5, np.nan), id="nan-snapshot"),
    pytest.param(1.0, 0.45, (0.5, 5.0), id="late-snapshot"),
    pytest.param(1.0, 0.45, (-1.0,), id="negative-snapshot"),
    pytest.param(1.0, 0.45, (np.inf,), id="inf-snapshot"),
])
def test_marches_reject_unbounded_runs(quartic, t_final, cfl, times):
    """A non-finite horizon or a non-positive CFL number would loop
    forever (or return after zero steps), and a CFL number above 1 blows
    the scheme up; both marches refuse them, and a negative horizon.  A
    snapshot time that is NaN or outside [0, t_final] used to be dropped
    without a word; the refusal names it."""
    u0 = step_datum(Grid1D(-2.0, 2.0, 100))
    with pytest.raises(DomainError,
                       match=re.escape(str(times[-1])) if times else None):
        evolve(quartic, u0, t_final, cfl=cfl, snapshot_times=times)
    if not times:
        with pytest.raises(DomainError):
            detect_shock_formation(quartic, u0, t_final, cfl=cfl)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_marches_refuse_a_non_finite_datum(quartic, bad):
    """Such a datum used to escape the step budget as a raw ValueError
    (NaN) or ZeroDivisionError (inf)."""
    u0 = step_datum(Grid1D(-2.0, 2.0, 100))
    u0.values[7] = bad
    with pytest.raises(NonFinite):
        evolve(quartic, u0, 1.0)
    with pytest.raises(NonFinite):
        detect_shock_formation(quartic, u0, 1.0)


def test_march_work_has_a_ceiling(quartic):
    """A horizon of 1e6 on 2,000 cells needs 1.1e9 steps, about 16 hours
    of march; both marches refuse it before the first step."""
    u0 = step_datum(Grid1D(-4.0, 4.0, 2000))
    start = time.perf_counter()
    with pytest.raises(DomainError, match="steps"):
        evolve(quartic, u0, 1e6)
    with pytest.raises(DomainError, match="steps"):
        detect_shock_formation(quartic, u0, 1e6)
    assert time.perf_counter() - start < 1.0


def test_march_budget_charges_the_cells_it_marches(quartic):
    """On [-8, 8] with 8,000 cells a march to t = 60 takes 1.3e5 steps.
    Charged the whole grid that is 1.2e9 orbit-steps, over the budget;
    the half route marches 4,000 cells, 6.7e8.  One cell off the mirror
    makes the datum march whole, and it is refused."""
    u0 = step_datum(Grid1D(-8.0, 8.0, 8000))
    assert _March(quartic, u0, 60.0, DEFAULT_CFL).half
    u0.values[0] = -1.0
    with pytest.raises(DomainError, match="orbit-steps"):
        _March(quartic, u0, 60.0, DEFAULT_CFL)


def test_snapshots_past_the_record_ceiling_are_refused_before_the_march(
        quartic):
    """2,000 distinct snapshots of 4,000 cells would keep 8e6 values, 64 MB.
    The march, about 3,000 steps, is well inside the step budget, so the
    ceiling on recorded values is what refuses it, before any step."""
    u0 = step_datum(Grid1D(-3.0, 3.0, 4000))
    marks = np.linspace(0.0, 1.0, 2000)
    _March(quartic, u0, 1.0, DEFAULT_CFL, marks)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError,
                           match="2000 distinct times of 4000 cells"):
            evolve(quartic, u0, 1.0, snapshot_times=marks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("t_final", [1e-12, 1e-13, 1e-14, 1e-15, 1e-30])
def test_short_horizons_keep_every_snapshot(quartic, t_final):
    """An absolute 1e-14 tolerance on the march's time used to end a
    horizon of 1e-14 or less before its first step, with only the t = 0
    snapshot of the 6 asked."""
    marks = np.linspace(0.0, t_final, 6)
    result = evolve(quartic, step_datum(Grid1D(-4.0, 4.0, 100)), t_final,
                    snapshot_times=marks)
    assert [t for t, _ in result.snapshots] == list(marks)
    assert result.steps == 5


# ===== Evolution structure =====

@pytest.fixture(scope="module")
def staged_run(quartic):
    grid = Grid1D(-4.0, 4.0, 4000)
    return grid, evolve(quartic, step_datum(grid), 2.5,
                        snapshot_times=(0.5, 1.0, 2.5))


def test_fan_opens_before_the_jump_forms(quartic, staged_run):
    grid, result = staged_run
    x = grid.centers()
    mid = grid.n // 2
    by_time = dict(result.snapshots)
    early = by_time[0.5]
    assert abs(early[mid - 1] - early[mid]) < 0.05
    window = (x > 0.05) & (x < 1.0)
    assert np.min(np.diff(early[window])) > 0.0


def test_profile_folds_after_the_first_return(staged_run):
    grid, result = staged_run
    x = grid.centers()
    window = (x > 0.05) & (x < 1.0)
    middle = dict(result.snapshots)[1.0]
    assert np.min(np.diff(middle[window])) < -5e-3


def test_standing_jump_at_late_times(quartic, staged_run):
    grid, result = staged_run
    mid = grid.n // 2
    late = dict(result.snapshots)[2.5]
    assert late[mid - 1] - late[mid] > 1.0
    exact = solution_grid(quartic, (2.5,), grid.centers(), n_orbits=4096)[0]
    err = l1_distance(CellField(grid, late), exact, window=(-2.0, 2.0))
    assert err < 0.05


def test_odd_symmetry_is_bitwise(staged_run):
    _, result = staged_run
    v = result.final.values
    assert np.max(np.abs(v + v[::-1])) == 0.0


def test_invariant_region_bound(staged_run):
    _, result = staged_run
    for _, v in result.snapshots:
        assert np.max(np.abs(v)) <= SQRT6 + 1e-12


# ===== Reference march =====

def _reference_march(model, u0, t_final, marks=(), tol=1e-14):
    """The scheme as first written: fresh arrays every step, zero-gradient
    ghosts on both sides, the whole grid.  Yields (t, dt, u, mark).
    ``tol`` is the landing tolerance; the march's own shrinks with a
    horizon below 1."""
    u, dx = u0.values, u0.grid.dx
    source = model.g_prime(u0.grid.centers())
    t, pending = 0.0, sorted(m for m in marks if m > 0.0)
    while t < t_final - tol:
        horizon = pending[0] if pending else t_final
        dt = min(DEFAULT_CFL * dx / max(float(np.max(np.abs(u))), 1.0),
                 horizon - t, t_final - t)
        ext = np.concatenate([u[:1], u, u[-1:]])
        flux = godunov_flux(ext[:-1], ext[1:])
        u = u - (dt / dx) * (flux[1:] - flux[:-1]) - dt * source
        t += dt
        mark = None
        if pending and t >= pending[0] - tol:
            mark = pending.pop(0)
        yield t, dt, u, mark


def _lopsided(model):
    """The model with g' scaled by 1.5 at x > 0, so the source is not odd."""
    def force(x, out=None):
        return np.multiply(np.where(x > 0.0, 1.5, 1.0), model.force(x),
                           out=out)
    return dataclasses.replace(model, name="lopsided", force=force)


def _signed_zero_tail(model):
    """The model with g' = -0.0, not +0.0, on its flat tail x > cutoff:
    there a -0.0 cell turns +0.0 in one step."""
    def force(x, out=None):
        return np.add(model.force(x),
                      np.where(x > model.cutoff, 0.0, -0.0), out=out)
    return dataclasses.replace(model, name="signed-zero-tail", force=force)


def _odd_step(x):
    return np.where(x > 0.0, 2.0, -2.0)


def _signed_zeros(x):
    """A bump on |x| < 1.5 in a far field of signed zeros: -0.0 on
    x < -2.5, -0.0 and +0.0 by turns from cell to cell up to the bump,
    +0.0 on 1.5 < x < 2.5 and -0.0 on x > 2.5."""
    by_turns = np.where(np.arange(x.size) % 2, 0.0, -0.0)
    zeros = np.where(x < -2.5, -0.0, np.where(
        x < 0.0, by_turns, np.where(x < 2.5, 0.0, -0.0)))
    return np.where(np.abs(x) < 1.5, np.cos(x) + 0.5 * x, zeros)


@functools.lru_cache(maxsize=1)
def _vertex():
    """The vertex reconstruction of the solution's slice at t = 1.6."""
    model = quartic_well()
    xs = Grid1D(-3.0, 3.0, 200).centers()
    return reconstruct_vertex(footprint(
        model, 1.6, profile_from_solution(model, 1.6, xs)))


def _round_trip_datum(x):
    return _vertex().sample(x)


# round_trip's grid at t = 1.6: the window [-3, 3] widened by 2 t + 1
ROUND_TRIP_GRID = Grid1D(-7.2, 7.2, 1200)

# (model transform, grid, datum, horizon, marks, marches half the grid)
REFERENCE_CASES = {
    "step-datum": (None, Grid1D(-3.0, 3.0, 600), _odd_step, 2.5,
                   (0.0, 0.4, 1.1, 2.5), True),
    "staged-run": (None, Grid1D(-4.0, 4.0, 4000), _odd_step, 2.5,
                   (0.5, 1.0, 2.5), True),
    "odd-with-zeros": (None, Grid1D(-2.0, 2.0, 400),
                       lambda x: np.where(np.abs(x) < 0.5, 0.0, np.sign(x)),
                       1.0, (0.5,), True),
    "not-odd": (None, Grid1D(-2.0, 2.0, 400),
                lambda x: np.sin(2.0 * x) + 0.3 * np.cos(x), 1.0, (0.3,),
                False),
    "asymmetric-grid": (None, Grid1D(-2.0, 3.0, 500), _odd_step, 1.0,
                        (0.5,), False),
    "lopsided-source": (_lopsided, Grid1D(-2.0, 2.0, 400), _odd_step, 1.5,
                        (0.7,), False),
    # most cells of a wide grid stay constant, and the march skips them
    "wide-step": (None, Grid1D(-10.0, 10.0, 2000), _odd_step, 2.5,
                  (0.5, 1.2, 2.5), True),
    "round-trip-datum": (None, ROUND_TRIP_GRID, _round_trip_datum, 1.6,
                         (0.4, 1.6), False),
    "signed-zero-runs": (_signed_zero_tail, Grid1D(-4.0, 4.0, 800),
                         _signed_zeros, 1.5, (0.05, 0.6), False),
    "constant-homogeneous": (lambda _: homogeneous(),
                             Grid1D(-2.0, 2.0, 400),
                             lambda x: np.full_like(x, 1.5), 1.0, (0.5,),
                             False),
}


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_march_matches_the_reference_to_the_bit(quartic, case):
    """Snapshots, final field and step count equal the plain march's, sign
    of zero included, whichever route the datum takes."""
    transform, grid, datum, horizon, marks, half = REFERENCE_CASES[case]
    model = transform(quartic) if transform else quartic
    u0 = CellField(grid, datum(grid.centers()))
    assert _March(model, u0, horizon, DEFAULT_CFL).half == half
    result = evolve(model, u0, horizon, snapshot_times=marks)
    steps = list(_reference_march(model, u0, horizon, marks))
    expected = [(m, u) for _, _, u, m in steps if m is not None]
    if 0.0 in marks:
        expected.insert(0, (0.0, u0.values))
    assert result.steps == len(steps)
    np.testing.assert_array_equal(_bits(result.final.values),
                                  _bits(steps[-1][2]))
    assert [t for t, _ in result.snapshots] == [t for t, _ in expected]
    for (_, got), (_, want) in zip(result.snapshots, expected):
        np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("case", ["step-datum", "lopsided-source",
                                  "wide-step"])
def test_detection_matches_the_reference(quartic, case):
    transform, grid, datum, horizon, _, _ = REFERENCE_CASES[case]
    model = transform(quartic) if transform else quartic
    u0 = CellField(grid, datum(grid.centers()))
    i = grid.n // 2
    threshold = 0.05
    prev = u0.values[i - 1] - u0.values[i]
    for t, dt, u, _ in _reference_march(model, u0, horizon):
        jump = u[i - 1] - u[i]
        if prev <= threshold < jump:
            expected = t - dt + (threshold - prev) / (jump - prev) * dt
            break
        prev = jump
    else:
        pytest.fail("the reference march never crosses the threshold")
    assert detect_shock_formation(model, u0, horizon,
                                  jump_threshold=threshold) == expected


def test_the_march_updates_only_the_cells_that_can_change(quartic,
                                                         monkeypatch):
    """A round trip's datum is constant toward both ends of its widened
    grid, and there the update is the identity to the bit: the cells the
    march updates total under half of its steps x cells."""
    updated = []
    update = fvm._update

    def counting(ext, *args):
        updated.append(ext.size - 2)
        return update(ext, *args)

    monkeypatch.setattr(fvm, "_update", counting)
    grid = ROUND_TRIP_GRID
    u0 = CellField(grid, _round_trip_datum(grid.centers()))
    steps = evolve(quartic, u0, 1.6).steps
    assert len(updated) == steps
    assert sum(updated) < 0.5 * steps * grid.n


def _drawn_datum(kind, x, seed):
    """A datum random in +-3, the step datum, or a random one odd to the
    bit: u[i] = -u[n-1-i], with +0.0 where the two halves meet."""
    if kind == "step":
        return _odd_step(x)
    w = np.random.default_rng(seed).uniform(-3.0, 3.0, x.size)
    return w if kind == "random" else 0.5 * (w - w[::-1])


def test_drawn_marches_match_the_reference_to_the_bit(quartic, monkeypatch):
    """On drawn grids, data, horizons and marks, ``evolve`` equals the
    plain march to the bit, or refuses a mark past its horizon with a
    HetclawError before the first step.  The draws include half marches
    and windows measured anew while narrower than the grid, where the
    window's operand views are rebuilt."""
    windows, halves = [], []
    measure = _March._window

    def recording(self):
        window = measure(self)
        windows[-1].add(window[:2])
        return window

    monkeypatch.setattr(_March, "_window", recording)

    @settings(deadline=None, max_examples=150)
    @given(st.booleans(), st.integers(4, 600), st.floats(-5.0, 1.0),
           st.floats(1.0, 8.0), st.sampled_from(["random", "step", "odd"]),
           st.integers(0, 2**32 - 1), st.floats(0.0, 2.0),
           st.lists(st.floats(0.0, 1.1), max_size=5))
    def check(symmetric, n, left, width, kind, seed, t_final, fractions):
        grid = (Grid1D(-0.5 * width, 0.5 * width, n) if symmetric
                else Grid1D(left, left + width, n))
        u0 = CellField(grid, _drawn_datum(kind, grid.centers(), seed))
        marks = sorted({f * t_final for f in fractions})
        if marks and marks[-1] > t_final:
            with pytest.raises(HetclawError):
                evolve(quartic, u0, t_final, snapshot_times=marks)
            return
        windows.append(set())
        halves.append(_March(quartic, u0, t_final, DEFAULT_CFL).half)
        result = evolve(quartic, u0, t_final, snapshot_times=marks)
        steps = list(_reference_march(quartic, u0, t_final, marks,
                                      tol=1e-14 * min(t_final, 1.0)))
        expected = [(m, u) for _, _, u, m in steps if m is not None]
        if 0.0 in marks:
            expected.insert(0, (0.0, u0.values))
        assert result.steps == len(steps)
        final = steps[-1][2] if steps else u0.values
        np.testing.assert_array_equal(_bits(result.final.values),
                                      _bits(final))
        assert [t for t, _ in result.snapshots] == [t for t, _ in expected]
        for (_, got), (_, want) in zip(result.snapshots, expected):
            np.testing.assert_array_equal(_bits(got), _bits(want))

    check()
    assert any(halves) and not all(halves)
    assert any(len(seen) > 1 for seen in windows)


def test_a_non_finite_update_stops_the_march(quartic):
    """A source that is NaN at one cell spoils the field on the first
    step; the march refuses there instead of carrying NaN to t_final.
    So does a constant field whose flux overflows, although equal
    neighbours would otherwise leave it as it is."""
    def force(x, out=None):
        return np.negative(np.where(np.abs(x - 0.5) < 0.01, np.nan, 0.0),
                           out=out)
    model = dataclasses.replace(quartic, name="spoiled", force=force)
    u0 = step_datum(Grid1D(-2.0, 2.0, 400))
    _, _, first, _ = next(_reference_march(model, u0, 1.0))
    assert not np.all(np.isfinite(first))
    with pytest.raises(NonFinite):
        evolve(model, u0, 1.0)
    with pytest.raises(NonFinite):
        detect_shock_formation(model, u0, 1.0)

    huge = CellField(Grid1D(-2.0, 2.0, 400), np.full(400, 1e160))
    with np.errstate(over="ignore", invalid="ignore"):
        flux = godunov_flux(huge.values, huge.values)
        assert np.all(np.isnan(flux[1:] - flux[:-1]))
        with pytest.raises(NonFinite):
            evolve(homogeneous(), huge, 1e-160)


# ===== Against shooting =====

@settings(deadline=3000, max_examples=20)
@given(st.floats(0.0, 2.5, exclude_min=True), st.integers(250, 1000))
def test_the_scheme_meets_shooting_at_drawn_times(quartic, t, half):
    """The step datum on an even n = 500 to 2,000 cells of [-3, 3],
    marched at the default CFL to t in (0, 2.5], stays within
    dx (2 log2(1/dx) - 2) in L1 of the shooting profile over [-2, 2].
    Before the shock the error grows like dx log(1/dx), the first-order
    rate on a centred rarefaction; its largest value, near t = 1, reads
    6.8, 8.4 and 10.0 dx at n = 500, 1,000 and 2,000, against bounds of
    10.8, 12.8 and 14.8 dx."""
    grid = Grid1D(-3.0, 3.0, 2 * half)
    dx = grid.dx
    err = l1_distance(evolve(quartic, step_datum(grid), t).final,
                      solution_profile(quartic, t, grid.centers()),
                      (-2.0, 2.0))
    assert err <= dx * (2.0 * np.log2(1.0 / dx) - 2.0)


# ===== Contraction =====

def test_l1_contraction_on_random_pairs(quartic):
    """Contraction holds when the pair enters identically through the
    open boundary, so the random perturbation is windowed to the
    interior; waves travel less than 2 * 0.3 cells of reach, far short
    of the 1.2 margin left on each side."""
    rng = np.random.default_rng(5)
    grid = Grid1D(-2.0, 2.0, 400)
    x = grid.centers()
    window = np.clip(1.0 - (x / 0.8) ** 2, 0.0, None) ** 2
    for _ in range(3):
        a = rng.uniform(-1.5, 1.5, 4)
        base = a[0] * np.sin(2 * x) + a[1] * np.cos(x)
        u0 = CellField(grid, base)
        v0 = CellField(grid, base + (a[2] + a[3] * np.sin(x)) * window)
        before = l1_distance(u0, v0.values, (grid.x_min, grid.x_max))
        ru = evolve(quartic, u0, 0.3)
        rv = evolve(quartic, v0, 0.3)
        after = l1_distance(ru.final, rv.final.values,
                            (grid.x_min, grid.x_max))
        assert after <= before + 1e-2


# ===== Shock detection =====

def test_detection_lands_in_the_expected_window(quartic):
    grid = Grid1D(-4.0, 4.0, 4000)
    t_star = detect_shock_formation(quartic, step_datum(grid), 2.0,
                                    jump_threshold=0.1)
    assert 1.05 <= t_star <= 1.18


def test_detection_needs_an_upward_crossing(quartic):
    grid = Grid1D(-4.0, 4.0, 800)
    stationary = CellField(grid, asymptotic_profile(quartic, grid.centers()))
    with pytest.raises(NotFound):
        detect_shock_formation(quartic, stationary, 2.0)
    with pytest.raises(NotFound):
        detect_shock_formation(quartic, step_datum(grid), 0.3)


def test_detection_needs_a_grid_across_zero(quartic):
    u0 = step_datum(Grid1D(1.0, 3.0, 40))
    with pytest.raises(DomainError, match="straddle"):
        detect_shock_formation(quartic, u0, 1.0)


# ===== Distances =====

def test_l1_distance_windows():
    grid = Grid1D(-2.0, 2.0, 400)
    u = CellField(grid, np.ones(400))
    assert l1_distance(u, np.zeros(400), (-2.0, 2.0)) == pytest.approx(4.0)
    assert l1_distance(u, np.zeros(400), window=(-1.0, 1.0)) == pytest.approx(2.0)
