"""Period map: quadrature accuracy, monotonicity and inversion."""
from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetclaw.cli import main
from hetclaw.errors import DomainError, HetclawError, NotFound
from hetclaw.flow import terminal_state
from hetclaw.model import HamiltonianModel, quartic_well
from hetclaw.period import (
    _BASE_EDGES,
    _BLOCK,
    _GL_NODES,
    _GL_WEIGHTS,
    _MAX_ITERATIONS,
    _flight_plan,
    _flight_time,
    _half_period,
    _passage_times,
    _planned_time,
    _solve,
    invert_half_period,
    period_by_ode,
    period_quadrature,
    shock_time,
    turning_point,
)

HALF_PI_OVER_SQRT8 = np.pi / (2.0 * np.sqrt(2.0))

# Reference values computed twice over: desingularized quadrature checked
# against direct integration of the oscillator with event refinement.
REFERENCE_PERIODS = {
    0.5: 2.3061252407934392,
    1.0: 2.6893524507036812,
    1.3: 3.6557260837839167,
    1.41: 8.0165354554996158,
    1.414: 15.974161673835236,
}


# ===== Quadrature values =====

def test_reference_periods(quartic):
    for p0, expected in REFERENCE_PERIODS.items():
        assert period_quadrature(quartic, p0) == pytest.approx(expected, rel=1e-12)


def test_period_at_depth_matches_mpmath(quartic):
    """The orbit turning 0.01 below the cutoff, against a 60-digit mpmath
    evaluation of the period integral.  The depth is given directly: a
    launch momentum would carry its own rounding into the period."""
    assert 2.0 * _half_period(quartic, 0.01) == pytest.approx(
        96.45123918556972, rel=1e-12)


def test_turning_point_value(quartic):
    assert turning_point(quartic, 1.0) == pytest.approx(0.3988779070671694, abs=1e-10)
    q_plus = turning_point(quartic, 0.7)
    assert quartic.g(q_plus) == pytest.approx(0.7**2 / 2.0, abs=1e-10)


@pytest.mark.parametrize("p0", [1e-7, 1e-6, 1e-4, 0.01, 0.5, 1.41,
                                math.sqrt(2.0) - 1e-9])
def test_turning_point_is_exact_to_rounding(quartic, p0):
    """Against the closed form of 1 - (1 - q**2)**4 = p0**2/2, from small
    amplitudes, where the depth below the cutoff loses relative
    precision, up to the separatrix."""
    exact = math.sqrt(-math.expm1(math.log1p(-0.5 * p0 * p0) / 4.0))
    assert turning_point(quartic, p0) == pytest.approx(exact, rel=1e-14,
                                                       abs=0.0)


def test_small_amplitude_limit_is_harmonic(quartic):
    """Near the bottom the well looks like curvature 8, so the period
    approaches 2 pi / sqrt(8)."""
    assert period_quadrature(quartic, 0.01) == pytest.approx(
        2.0 * HALF_PI_OVER_SQRT8, abs=1e-3)
    small = [period_quadrature(quartic, p0) for p0 in (0.04, 0.02, 0.01)]
    assert small[0] > small[1] > small[2] > 2.0 * HALF_PI_OVER_SQRT8


def test_shock_time_extrapolates_the_limit(quartic):
    assert shock_time(quartic) == pytest.approx(HALF_PI_OVER_SQRT8, abs=1e-11)


def _shallow_chord(d, d_top):
    y, yt = d * (2.0 - d), d_top * (2.0 - d_top)
    return (2.0 - d - d_top) * (y + yt)


def _shallow_force(x, out=None):
    return np.multiply(-4.0 * x, np.maximum(1.0 - x * x, 0.0), out=out)


def test_shock_time_cache_keys_the_model_object(quartic):
    """g = 1 - (1 - x^2)^2 shares the quartic's name, cutoff and flat
    value, but its curvature 4 at the bottom gives half-period pi/2; a
    cache keyed by those three fields alone handed it the quartic's."""
    shock_time(quartic)
    shallow = HamiltonianModel(
        name="quartic",
        g=lambda x: 1.0 - np.where(np.abs(x) < 1.0, 1.0 - x * x, 0.0) ** 2,
        force=_shallow_force,
        chord_slope=_shallow_chord, cutoff=1.0, flat_value=1.0)
    assert shock_time(shallow) == pytest.approx(np.pi / 2.0, abs=1e-6)
    assert shock_time(quartic) == pytest.approx(HALF_PI_OVER_SQRT8, abs=1e-11)


def test_period_grows_strictly(quartic):
    p0 = np.linspace(0.02, 1.41, 30)
    periods = [period_quadrature(quartic, float(p)) for p in p0]
    assert all(b > a for a, b in zip(periods, periods[1:]))


def test_period_blows_up_at_the_separatrix(quartic):
    assert period_quadrature(quartic, 1.4142) == pytest.approx(30.4339116, rel=1e-6)


# ===== Batch independence =====

def test_a_quadrature_block_is_its_entries_to_the_bit(quartic):
    """Each entry of a multi-block call, ragged tail included, has the
    bits of its own one-entry call, for both arrival-time integrals and
    for a flight plan evaluated on any subset of its entries, entries
    sharing one row of the plan included."""
    rng = np.random.default_rng(3)
    n = 3 * _BLOCK + 5
    v = rng.uniform(0.05, 1.5, n)
    a = rng.uniform(0.0, 0.8, n)
    b = a + rng.uniform(0.0, 2.0, n)
    depth = rng.uniform(1e-6, 0.9, n)
    x = rng.uniform(0.0, 1.0, n) * (quartic.cutoff - depth)
    flights = _flight_time(quartic, v, a, b)
    passages = _passage_times(quartic, depth, x)
    for k in range(n):
        one = slice(k, k + 1)
        assert flights[k].view(np.int64) == _flight_time(
            quartic, v[one], a[one], b[one])[0].view(np.int64)
        for got, want in zip(passages, _passage_times(quartic, depth[one],
                                                      x[one])):
            assert got[k].view(np.int64) == want[0].view(np.int64)

    # A [0, x] plan evaluated on ragged, shrinking subsets of its entries,
    # as the root-find does while entries retire, gives the same bits,
    # also where entries share an end: repeated, at the cutoff or past it.
    ends = np.concatenate([b, b[::3], [quartic.cutoff, 1.7, 2.9]])
    plan = _flight_plan(quartic, 0.0, ends)
    distinct = np.unique(np.minimum(ends, quartic.cutoff)).size
    assert plan[1].shape[0] == distinct < n
    rows = np.arange(ends.size)
    while rows.size:
        speeds = rng.uniform(0.0, 1.5, rows.size)
        got = _planned_time(plan, speeds, rows)
        for k, row in enumerate(rows):
            want = _flight_time(quartic, speeds[k:k + 1], np.zeros(1),
                                ends[row:row + 1])
            assert got[k].view(np.int64) == want[0].view(np.int64)
        rows = rows[rng.uniform(size=rows.size) < 0.6]


def _passage_reference(model, depth, x):
    """The passage quadrature as first written: every block sorts theta_x
    into the base edges and takes the sines and cosines of all 62 panels'
    nodes afresh."""
    q_turn = model.cutoff - depth
    theta_x = np.arctan2(x, np.sqrt(np.maximum(model.cutoff - x - depth, 0.0)
                                    * (q_turn + x)))
    t_out = np.empty_like(depth)
    quarter = np.empty_like(depth)
    for k in range(0, depth.size, _BLOCK):
        blk = slice(k, k + _BLOCK)
        split = theta_x[blk, None]
        edges = np.sort(np.concatenate(
            [np.broadcast_to(_BASE_EDGES, (split.size, _BASE_EDGES.size)),
             split], axis=1), axis=1)
        lo, hi = edges[:, :-1], edges[:, 1:]
        half = 0.5 * (hi - lo)
        theta = (lo + half)[..., None] + half[..., None] * _GL_NODES
        hpsi = 0.5 * (0.5 * np.pi - theta)
        qt = q_turn[blk, None, None]
        sin_h = np.sin(hpsi)
        slope = model.chord_slope(depth[blk, None, None]
                                  + 2.0 * qt * sin_h * sin_h,
                                  depth[blk, None, None])
        vals = np.cos(hpsi) * np.sqrt(qt / slope)
        panels = half * (vals @ _GL_WEIGHTS)
        quarter[blk] = panels.sum(axis=1)
        t_out[blk] = np.where(hi <= split, panels, 0.0).sum(axis=1)
    return t_out, 2.0 * quarter - t_out


def _theta_x(model, depth, x):
    return np.arctan2(x, np.sqrt(np.maximum(model.cutoff - x - depth, 0.0)
                                 * (model.cutoff - depth + x)))


def _on_base_edges(model):
    """(depth, x) pairs whose theta_x falls exactly on an inner base edge
    below pi/2 (the top ones round to pi/2), found by stepping x ulp by
    ulp around q_turn sin(edge)."""
    inner = _BASE_EDGES[1:-1]
    depths, xs = [], []
    for depth in (1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
        for edge in inner[inner < 0.5 * np.pi]:
            x0 = (model.cutoff - depth) * np.sin(edge)
            x = x0 + np.arange(-64, 65) * np.spacing(x0)
            hit = np.flatnonzero(_theta_x(model, np.full(x.size, depth), x)
                                 == edge)
            if hit.size:
                depths.append(depth)
                xs.append(x[hit[0]])
    return np.array(depths), np.array(xs)


@pytest.mark.parametrize("size", [1, 7, 8, 9, 17])
def test_spliced_panels_keep_the_bits_of_the_fresh_ones(quartic, size):
    """The library splices the split panel's two halves into constant rows
    of the base panels; the result equals, to the bit, the formula that
    recomputes every panel, on random orbits and positions, on theta_x =
    pi/2 (turning at x), exactly on base edges and next to 0."""
    rng = np.random.default_rng(size)
    edge_depth, edge_x = _on_base_edges(quartic)
    assert edge_x.size >= 17
    take = rng.choice(edge_x.size, size, replace=False)
    random_depth = 10.0 ** rng.uniform(-12.0, -0.01, 3 * size)
    # turning at x, twice; at 0 and next to it; near the separatrix
    depth = np.concatenate([random_depth, [0.25, 0.5, 0.3, 0.3, 1e-9],
                            edge_depth[take]])
    x = np.concatenate([rng.uniform(0.0, 1.0, 3 * size)
                        * (quartic.cutoff - random_depth),
                        [0.75, 0.5, 0.0, 1e-300, 1e-12], edge_x[take]])
    rng.shuffle(order := np.arange(depth.size))
    depth, x = depth[order], x[order]
    theta = _theta_x(quartic, depth, x)
    assert np.any(theta == 0.5 * np.pi) and np.any(theta == 0.0)
    assert np.sum(np.isin(theta, _BASE_EDGES[1:-1])
                  & (theta < 0.5 * np.pi)) >= size
    for k in range(0, depth.size, size):
        part = slice(k, k + size)
        got = _passage_times(quartic, depth[part], x[part])
        want = _passage_reference(quartic, depth[part], x[part])
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.view(np.int64),
                                          w.view(np.int64))


# ===== Independent route =====

def test_ode_route_agrees_with_quadrature(quartic):
    for p0 in (0.1, 0.7, 1.2, 1.39):
        quad = period_quadrature(quartic, p0)
        ode = period_by_ode(quartic, p0)
        assert abs(quad - ode) <= 1e-5


def test_orbit_sign_pattern_over_one_period(quartic):
    """Positive on the first half, negative on the second."""
    period = period_quadrature(quartic, 0.9)
    assert terminal_state(quartic, 0.0, 0.9, 0.25 * period)[0] > 0.0
    assert terminal_state(quartic, 0.0, 0.9, 0.75 * period)[0] < 0.0


@settings(deadline=2000, max_examples=40)
@given(st.floats(1e-3, 1.414))
def test_period_routes_agree_on_drawn_momenta(quartic, p0):
    """Quadrature and ODE periods at p0 in [1e-3, 1.414] agree to a
    relative 5e-12 T^2.  The ODE route's gap grows with the period it
    integrates: 1.3e-11 at p0 = 0.096 (T = 2.22) and 2.9e-10 at
    p0 = 1.414 (T = 15.97), at most 2.6e-12 T^2 over 180 momenta."""
    quad = period_quadrature(quartic, p0)
    assert abs(quad - period_by_ode(quartic, p0)) <= 5e-12 * quad**3


# ===== Root-find =====

_TINY = np.finfo(float).tiny      # the smallest normal magnitude, 2^-1022
_ULPS = 4.0 * np.finfo(float).eps


def _logged_solve(residual, lo, hi, f_lo, f_hi):
    """``_solve`` with every evaluation logged as (z, residual)."""
    log = []

    def logged(z):
        f = residual(z)
        log.append((float(z[0]), float(f[0])))
        return f

    return _solve(logged, lo, hi, f_lo, f_hi), log


def _brackets(log, lo, hi):
    """The bracket after each evaluation: a residual <= 0 moves its lower
    end to the iterate, a positive one its upper end."""
    brackets = []
    for z, f in log:
        lo, hi = (z, hi) if f <= 0.0 else (lo, z)
        brackets.append((lo, hi))
    return brackets


# Adversarial residuals on [-1, 0], each increasing through its root r:
# a flat cubic root; a unit jump at the root, with a slope of 1 / |r| so
# that the iterate nearest the root keeps the smallest residual; the same
# jump without the slope, whose residual is 1 in size at every iterate,
# so only the iterate that stopped the root-find is near the root; and a
# pole at the upper end, whose infinite residual there is all the
# root-find gets.  The cubic stays above underflow near its root.
_ADVERSARIES = {
    "flat cubic": (lambda r: lambda z: (z - r) ** 3,
                   lambda r: ((-1.0 - r) ** 3, -r ** 3)),
    "step": (lambda r: lambda z: np.where(z < r, -1.0, 1.0) + (z - r) / -r,
             lambda r: (-2.0 + 1.0 / r, 2.0)),
    "jump": (lambda r: lambda z: np.where(z < r, -1.0, 1.0),
             lambda r: (-1.0, 1.0)),
    "infinite end": (lambda r: lambda z: r / z - 1.0,
                     lambda r: (-r - 1.0, math.inf)),
}
_ROOTS = {"flat cubic": [-0.3, -1e-8, -1e-20],
          "step": [-0.3, -1e-8, -1e-150, -_TINY],
          "jump": [-0.3, -1e-8, -1e-150, -_TINY],
          "infinite end": [-0.3, -1e-8, -1e-150, -_TINY]}


@pytest.mark.parametrize("kind,root", [(kind, root) for kind in _ROOTS
                                       for root in _ROOTS[kind]])
def test_adversarial_roots_converge_within_the_cap(kind, root):
    """The bracket at least halves every fourth evaluation, so each
    residual stops within the cap, with a bracket a few ulps wide and the
    root a few ulps from the answer, also at the smallest normal root."""
    make, ends = _ADVERSARIES[kind]
    z, log = _logged_solve(make(root), -1.0, 0.0, *ends(root))
    assert len(log) <= _MAX_ITERATIONS
    brackets = _brackets(log, -1.0, 0.0)
    widths = [1.0] + [hi - lo for lo, hi in brackets]
    for before, after in zip(widths, widths[4:]):
        assert after <= 0.5 * before
    lo, hi = brackets[-1]
    assert log[-1][1] == 0.0 or hi - lo <= _ULPS * max(abs(lo), abs(hi))
    assert abs(z - root) <= 2.0 * _ULPS * abs(root)


def test_the_cap_clears_the_halving_worst_case():
    """Four evaluations per halving, and 1,072 halvings to take [-1, 0] to
    4 ulps around a root of normal magnitude."""
    halvings = -math.log2(_TINY) - math.log2(_ULPS)
    assert halvings == 1072
    assert 4 * halvings < _MAX_ITERATIONS


def test_a_hugging_secant_pays_four_evaluations_per_halving():
    """Where one end's residual dwarfs the other's, every secant step lands
    on the small end and moves nothing: the worst case.  Three such steps
    are followed by a bisection, so [-1, 0] reaches 4 ulps of a root at
    -1e-150 in four evaluations per halving."""
    root = -1e-150
    make, ends = _ADVERSARIES["step"]
    z, log = _logged_solve(make(root), -1.0, 0.0, *ends(root))
    halvings = math.ceil(-math.log2(_ULPS * -root))
    assert len(log) <= 4 * halvings
    assert sum(z_k == 0.0 for z_k, _ in log) > 2 * halvings


def test_an_unresolvable_root_raises_at_the_cap():
    """A jump at a subnormal point leaves a bracket that never gets 4 ulps
    of its ends wide: the root-find raises instead of handing back its
    last iterate."""
    with pytest.raises(NotFound, match=f"after {_MAX_ITERATIONS} residual"):
        _solve(lambda z: np.where(z < -1e-320, -1.0, 1.0), -1.0, 0.0,
               -1.0, 1.0)


def test_a_residual_that_is_not_a_number_is_refused():
    with pytest.raises(NotFound, match="not a number"):
        _solve(lambda z: np.where(z > -0.5, np.nan, z + 0.25), -1.0, 0.0,
               -0.75, 0.25)


# ===== Inversion =====

def test_half_period_inversion_round_trip(quartic):
    for p0 in (0.3, 0.9, 1.3):
        half = period_quadrature(quartic, p0) / 2.0
        assert invert_half_period(quartic, half) == pytest.approx(p0, abs=1e-6)


@pytest.mark.parametrize("t", [40.0, 45.0, 60.0, 80.0])
def test_late_inversion_brackets_the_root(quartic, t):
    """Late times push the root to within 3e-7 of the separatrix
    momentum; the inversion lands on it to well inside 1e-9."""
    p = invert_half_period(quartic, t)
    assert 0.5 * period_quadrature(quartic, p - 1e-9) < t
    assert t <= 0.5 * period_quadrature(quartic, p + 1e-9)


@pytest.mark.parametrize("t", [1e100, 1e130])
def test_late_inversions_land_on_the_separatrix(quartic, t):
    """The bisection from the infinite end needs about log2(t) steps; at a
    cap of 200 evaluations, times from about 1e92 on used to return the
    bracket's midpoint, p0 = 1.169, without a word."""
    assert invert_half_period(quartic, t) == pytest.approx(
        quartic.separatrix_momentum, rel=1e-15)


@pytest.mark.parametrize("t", [1e140, 1e200, 1e300])
def test_inversions_past_the_quadrature_are_refused(quartic, t):
    """Past t of about 1e138 the passage quadrature overflows at the
    turning point's depth, and its NaN is refused."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotFound, match="not a number"):
            invert_half_period(quartic, t)


def test_inversion_rejects_times_before_the_first_return(quartic):
    with pytest.raises(DomainError):
        invert_half_period(quartic, 1.0)


# ===== Properties =====

# Every call returns a finite value or raises a HetclawError, within the
# 1 s deadline.

@settings(deadline=1000)
@given(st.floats(0.0, math.sqrt(2.0), exclude_min=True, exclude_max=True))
def test_period_is_finite_or_refused(p0):
    try:
        period = period_quadrature(quartic_well(), p0)
    except HetclawError:
        return
    assert 0.0 < period < math.inf


@settings(deadline=1000)
@given(st.floats(math.log(shock_time(quartic_well())), math.log(1e4),
                 exclude_min=True).map(math.exp))
def test_inversion_is_finite_or_refused(t):
    try:
        p = invert_half_period(quartic_well(), t)
    except HetclawError:
        return
    assert 0.0 <= p <= math.sqrt(2.0)


# ===== Table and export =====

def test_table_rows_satisfy_energy_identity(quartic):
    for p0 in (0.3, 0.9, 1.3):
        q_max = turning_point(quartic, p0)
        assert quartic.g(q_max) == pytest.approx(p0**2 / 2.0, abs=1e-10)
        assert period_quadrature(quartic, p0) > 2.0 * HALF_PI_OVER_SQRT8 - 1e-9


def test_period_csv_layout(quartic, capsys, tmp_path):
    """The CLI writes the table; its rows carry the quadrature values."""
    assert main(["--experiment", "period", "--n", "3",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "period.json").read_text())
    lines = (tmp_path / "period.csv").read_text().splitlines()
    assert lines[2] == f"# units={doc['units']}"
    assert lines[3] == "p0,period,q_max"
    assert len(lines) == 4 + doc["rows"]
    first = [float(tok) for tok in lines[4].split(",")]
    assert first[0] == 0.01
    # repr round-trips, so the row carries the quadrature value exactly
    assert first[1] == period_quadrature(quartic, 0.01)


# ===== Domain errors =====

@pytest.mark.parametrize("p0", [0.0, -0.3, np.sqrt(2.0), 1.5])
def test_quadrature_domain(quartic, p0):
    with pytest.raises(DomainError):
        period_quadrature(quartic, p0)


def test_homogeneous_model_has_no_periods(homog):
    with pytest.raises(DomainError):
        period_quadrature(homog, 1.0)


@pytest.mark.parametrize("p0", [0.0, -0.5, math.sqrt(2.0), 3.0])
def test_period_by_ode_refuses_launches_outside_the_well(quartic, p0):
    with pytest.raises(DomainError, match="p0"):
        period_by_ode(quartic, p0)
