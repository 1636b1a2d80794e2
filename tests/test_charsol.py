"""Semi-analytic solution: sampling, asymptotics and the standing jump."""
from __future__ import annotations

import dataclasses
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetclaw.charsol import (
    _arc_batch,
    asymptotic_profile,
    eval_solution,
    solution_grid,
    solution_profile,
)
from hetclaw.design import Jump, profile_from_solution
from hetclaw.errors import DomainError, EnergyDrift, HetclawError
from hetclaw.flow import DEFAULT_DT, _rk4_rows, _split, integrate_batch
from hetclaw.fvm import Grid1D
from hetclaw.model import MODELS
from hetclaw.period import invert_half_period
from hetclaw.shooting import DEFAULT_SHOOT_TOL, arc_decode, arc_encode, delta

SQRT2 = np.sqrt(2.0)


def closed_form_profile(x):
    x = np.asarray(x, dtype=float)
    core = -SQRT2 * np.sign(x) * (1.0 - x**2) ** 2
    return np.where(np.abs(x) <= 1.0, core, 0.0)


# ===== Limit profile =====

def test_limit_profile_closed_form(quartic):
    xs = np.linspace(-2.0, 2.0, 801)
    np.testing.assert_allclose(asymptotic_profile(quartic, xs),
                               closed_form_profile(xs), rtol=0.0, atol=1e-12)
    assert asymptotic_profile(quartic, 0.5) == pytest.approx(-0.7954951288348661,
                                                             abs=1e-13)
    assert asymptotic_profile(quartic, 2.0) == 0.0
    assert asymptotic_profile(quartic, -0.5) == pytest.approx(0.7954951288348661,
                                                              abs=1e-13)


def test_limit_profile_is_odd(quartic):
    xs = np.linspace(0.0, 1.5, 101)
    np.testing.assert_array_equal(asymptotic_profile(quartic, -xs),
                                  -asymptotic_profile(quartic, xs))


# ===== Point samples =====

def test_sample_satisfies_energy_relation(quartic):
    for t, x in ((0.7, 0.4), (2.0, 0.5), (5.0, 1.2)):
        s = eval_solution(quartic, t, x)
        assert s.u**2 / 2.0 + quartic.g(x) == pytest.approx(s.p0**2 / 2.0, abs=1e-8)


def test_sample_is_odd(quartic):
    left = eval_solution(quartic, 5.0, -0.5)
    right = eval_solution(quartic, 5.0, 0.5)
    assert left.u == pytest.approx(-right.u, abs=1e-12)


def test_early_time_recovers_the_datum(quartic):
    assert eval_solution(quartic, 1e-3, 0.8).u == pytest.approx(2.0, abs=5e-3)


def test_long_time_values_inside_the_well(quartic):
    half = eval_solution(quartic, 30.0, 0.5).u
    assert half == pytest.approx(-0.795493812365669, abs=1e-6)
    assert abs(half - closed_form_profile(0.5)) < 5e-3
    rim = eval_solution(quartic, 30.0, 0.9).u
    assert abs(rim - closed_form_profile(0.9)) < 5e-5


def test_outside_the_well_decay_is_slow(quartic):
    """Beyond the cutoff the profile drains like 1/t, which is why the
    tail still carries a visible residue at t = 30."""
    tail = [eval_solution(quartic, t, 1.5).u
            for t in (5.0, 10.0, 30.0, 60.0)]
    assert tail[0] == pytest.approx(0.174347036644, abs=1e-6)
    assert tail[1] == pytest.approx(0.0738510014555, abs=1e-6)
    assert tail[2] == pytest.approx(0.0207470805146, abs=1e-6)
    assert tail[0] > tail[1] > tail[2] > tail[3] > 0.0


def test_late_values_are_finite(quartic):
    """Shots at late times launch within 1e-5 of the separatrix momentum;
    the half-period inversion the shooting bracket once needed failed to
    converge there from t = 80 on."""
    assert eval_solution(quartic, 80.0, 0.5).u == pytest.approx(
        -0.7954951045, abs=1e-9)
    assert eval_solution(quartic, 200.0, 1.5).u == pytest.approx(
        0.0027121751, abs=1e-9)


def test_interior_deviation_decays_like_t_to_the_minus_four(quartic):
    """The returning orbit's energy gap below the separatrix shrinks like
    t^-4, because 1 - g(x) ~ 16 (1 - |x|)^4 at the rim of the well."""
    dev = [abs(eval_solution(quartic, t, 0.5).u - closed_form_profile(0.5))
           for t in (20.0, 40.0)]
    assert 3.5 <= np.log2(dev[0] / dev[1]) <= 4.5


def _gauss_legendre(edges, nodes=20):
    """Nodes and weights of the composite Gauss-Legendre rule on edges."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(edges)
    return (((edges[:-1] + half)[:, None] + half[:, None] * x).ravel(),
            (half[:, None] * w).ravel())


@pytest.mark.parametrize("x", [0.25, 0.5, 0.9])
def test_interior_deviation_follows_the_late_time_law(quartic, x):
    """u - U ~ 16 A^4 / (|U| t^4) with A = (2/sqrt(32)) int_0^1 ds /
    sqrt(1 - s^4): near the cutoff flat - g ~ 16 (1 - x)^4, so the orbit
    turning at depth d returns after A/d.  With s = 1 - v^2 the integrand
    is 2 / sqrt((2 - v^2)(1 + (1 - v^2)^2)), smooth on [0, 1]."""
    v, w = _gauss_legendre(np.array([0.0, 1.0]), 40)
    a = 2.0 / np.sqrt(32.0) * np.sum(
        w * 2.0 / np.sqrt((2.0 - v * v) * (1.0 + (1.0 - v * v) ** 2)))
    assert a == pytest.approx(0.46351867, abs=1e-8)
    t = 1000.0
    u, limit = eval_solution(quartic, t, x).u, asymptotic_profile(quartic, x)
    ratio = (u - limit) * abs(limit) * t**4 / (16.0 * a**4)
    assert ratio == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("t", [30.0, 60.0, 120.0])
def test_exterior_value_obeys_the_exit_time_law(quartic, t):
    """Past the cutoff, u(t, x) is the speed of the orbit that leaves the
    well at tau_exit(u) = int_0^1 dq / sqrt(u^2 + 2 (1 - g)) and then
    coasts, so u (t - tau_exit(u)) = |x| - 1.  In the depth d = 1 - q,
    1 - g = (d (2 - d))^4; panels halving toward d = 0 resolve the
    narrow peak of the integrand at the cutoff."""
    d, w = _gauss_legendre(np.concatenate(([0.0],
                                           0.5 ** np.arange(40, -1, -1))))
    u = eval_solution(quartic, t, 1.5).u
    tau_exit = np.sum(w / np.sqrt(u * u + 2.0 * (d * (2.0 - d)) ** 4))
    assert u * (t - tau_exit) == pytest.approx(0.5, abs=1e-10)


def test_pointwise_attraction_is_monotone(quartic):
    devs = [abs(eval_solution(quartic, t, 0.5).u - closed_form_profile(0.5))
            for t in (5.0, 10.0, 20.0, 30.0)]
    assert devs[0] > devs[1] > devs[2] > devs[3]


def test_monotone_decay_scan(quartic):
    u = np.array([eval_solution(quartic, float(t), 0.5).u
                  for t in range(3, 31, 3)])
    bound = abs(asymptotic_profile(quartic, 0.5))
    assert np.all(u[1:] <= u[:-1] + 1e-6)
    assert bound == pytest.approx(0.7954951288348661, abs=1e-12)
    assert np.all(u < bound)


# ===== Standing jump =====

def test_jump_size_grows_and_saturates(quartic):
    def _jump(model, t):
        # u(t, 0-) - u(t, 0+) = -2 u(t, 0+) by odd reflection, the trace
        # being 2 u(eps) - u(2 eps), which cancels the first-order error
        return -2.0 * (2.0 * eval_solution(model, t, 1e-4).u
                       - eval_solution(model, t, 2e-4).u)

    # pre-shock the one-sided traces agree to the O(eps^2) offset error
    assert abs(_jump(quartic, 0.5)) <= 1e-8
    s2 = _jump(quartic, 2.0)
    s4 = _jump(quartic, 4.0)
    assert 0.0 < s2 < s4
    assert _jump(quartic, 30.0) == pytest.approx(2.0 * SQRT2, abs=1e-3)


def test_trace_momentum_values(quartic):
    assert invert_half_period(quartic, 1.2) == pytest.approx(
        0.695704223218254, abs=1e-8)
    assert invert_half_period(quartic, 2.0) == pytest.approx(
        1.33527856057482174, abs=1e-8)
    assert invert_half_period(quartic, 4.0) == pytest.approx(
        1.40996236139438907, abs=1e-8)


def test_one_sided_trace_matches_point_samples(quartic):
    trace = invert_half_period(quartic, 2.0)
    near = eval_solution(quartic, 2.0, 1e-8)
    assert near.u == pytest.approx(-trace, abs=1e-6)
    # the returning orbit is found this close to the origin too: no
    # momentum floor leaves a sliver the shot cannot reach
    assert abs(delta(quartic, 2.0, 1e-8).residual) <= DEFAULT_SHOOT_TOL
    # before the shock the one-sided limit is 0
    assert abs(eval_solution(quartic, 0.5, 1e-12).u) < 5e-9


@pytest.mark.parametrize("t", [80.0, 200.0])
def test_late_shock_traces_are_finite(quartic, t):
    """The trace orbits return to the origin within 2e-8 of the
    separatrix momentum; the half-period inversion still lands on them,
    and the profile's jump tag carries the same traces."""
    trace = invert_half_period(quartic, t)
    assert 1.4142 < trace < SQRT2
    assert eval_solution(quartic, t, 1e-8).u == pytest.approx(-trace,
                                                             abs=1e-10)
    profile = profile_from_solution(quartic, t, np.linspace(-2.0, 2.0, 40))
    assert np.all(np.isfinite(profile.ws))
    assert profile.jumps == (Jump(0.0, trace, -trace),)


# ===== Batch routes =====

def test_profile_route_matches_point_route(quartic):
    # wide and narrow profiles share one lockstep root-find per branch
    for n in (30, 5):
        xs = np.linspace(0.05, 3.0, n)
        us = solution_profile(quartic, 2.0, xs)
        for x, u in zip(xs, us):
            assert u == pytest.approx(
                eval_solution(quartic, 2.0, float(x)).u, abs=1e-7)


def test_mirrored_profile_is_odd_and_the_point_route_to_the_bit(quartic):
    """Each distinct |x| is shot once, and a shot does not depend on its
    batch, so the profile is odd and equals the point route bit for bit."""
    xs = Grid1D(-4.2, 4.2, 400).centers()
    us = solution_profile(quartic, 1.6, xs)
    np.testing.assert_array_equal(us[::-1].view(np.int64),
                                  (-us).view(np.int64))
    points = np.array([eval_solution(quartic, 1.6, float(x)).u for x in xs])
    np.testing.assert_array_equal(us.view(np.int64), points.view(np.int64))


def test_grid_route_matches_point_route(quartic):
    xs = np.concatenate([-np.linspace(0.07, 2.5, 9)[::-1],
                         np.linspace(0.07, 2.5, 9)])
    grid = solution_grid(quartic, (0.5, 2.5), xs, n_orbits=4096)
    for i, t in enumerate((0.5, 2.5)):
        for j, x in enumerate(xs):
            assert grid[i, j] == pytest.approx(
                eval_solution(quartic, t, float(x)).u, abs=2e-4)


@pytest.mark.parametrize("t, xs, tol", [
    (2.3, np.linspace(0.05, 0.3, 11), 2e-4),
    (2.4, np.linspace(0.05, 0.3, 11), 2e-4),
    (2.475, np.linspace(0.05, 0.3, 11), 2e-4),
    (30.0, np.array([0.08, 0.5, 0.9]), 1e-4),
])
def test_grid_route_stays_on_the_energy_shell(quartic, t, xs, tol):
    """Interpolating the momentum between orbits missed the point route
    by up to 3e-4 at these early times next to the origin and by 4e-2 at
    t = 30, where the alive orbits crowd toward the separatrix; the
    raster interpolates the launch point and reads its energy at x."""
    grid = solution_grid(quartic, (t,), xs, n_orbits=4096)[0]
    for x, u in zip(xs, grid):
        assert u == pytest.approx(eval_solution(quartic, t, float(x)).u,
                                  abs=tol)


@settings(deadline=None, max_examples=3)
@given(st.integers(0, 2**32 - 1))
def test_grid_route_meets_the_point_route_on_drawn_points(quartic, seed):
    """t log-uniform on [0.2, 30] and |x| uniform on [0.001, 3], with
    random signs, repeated positions and no order: the raster stays
    within 5e-5 of the shooting route (1.25e-5 measured over that
    rectangle)."""
    rng = np.random.default_rng(seed)
    t = math.exp(rng.uniform(math.log(0.2), math.log(30.0)))
    xs = rng.uniform(0.001, 3.0, 24) * rng.choice([-1.0, 1.0], 24)
    xs = rng.permutation(np.concatenate([xs, rng.choice(xs, 6)]))
    np.testing.assert_allclose(solution_grid(quartic, (t,), xs)[0],
                               solution_profile(quartic, t, xs),
                               rtol=0.0, atol=5e-5)


def _row_loop_grid(model, times, xs, n_orbits):
    """solution_grid's rows as first written, for times from 0: every
    position interpolated in its own order, and the alive orbits
    gathered by mask for each array."""
    q0, p0 = _arc_batch(model, float(np.max(np.abs(xs))), n_orbits)
    Q, P, dead = integrate_batch(model, q0, p0, times, retire=True)
    pos = np.abs(xs)
    g_pos = model.g(pos)
    s0 = arc_encode(q0, p0)
    U = np.empty((times.size, xs.size))
    for i, t in enumerate(times):
        if t == 0.0:
            U[i] = 2.0
            continue
        alive = ~dead[i]
        order = np.argsort(Q[i, alive])
        qs = Q[i, alive][order]
        ps = P[i, alive][order]
        a, b = arc_decode(np.interp(pos, qs, s0[alive][order]))
        shell = np.sqrt(np.maximum(2.0 * (model.h(a, b) - g_pos), 0.0))
        p_lin = np.interp(pos, qs, ps)
        k = np.clip(np.searchsorted(qs, pos), 1, qs.size - 1)
        turning = ps[k - 1] * ps[k] < 0.0
        U[i] = np.where(turning, p_lin, np.copysign(shell, p_lin))
    return np.negative(U, out=U, where=xs[None, :] < 0.0)


def test_grid_rows_keep_the_row_loop_bits(quartic):
    """Interpolating each distinct |x| once, in sorted order, and
    gathering the alive orbits once by index give the row loop's bits on
    shuffled positions that repeat and are not mirrored."""
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.001, 3.0, 300) * rng.choice([-1.0, 1.0], 300)
    xs = rng.permutation(np.concatenate([xs, xs[:40], xs[:5]]))
    times = np.array([0.0, 0.4, 1.3, 2.6, 7.0])
    got = solution_grid(quartic, times, xs, n_orbits=2048)
    want = _row_loop_grid(quartic, times, xs, 2048)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_homogeneous_routes_give_the_rarefaction_fan(homog):
    """With g = 0 the solution is the fan u = x / t inside |x| < 2t and
    the datum outside; the shooting route solves it in closed form and
    the raster interpolates it exactly."""
    xs = np.concatenate([-np.linspace(0.05, 3.0, 12)[::-1],
                         np.linspace(0.05, 3.0, 12)])
    times = (0.5, 1.0)
    fan = np.array([np.clip(xs / t, -2.0, 2.0) for t in times])
    grid = solution_grid(homog, times, xs, n_orbits=1024)
    np.testing.assert_allclose(grid, fan, rtol=0.0, atol=1e-12)
    for t, row in zip(times, fan):
        np.testing.assert_allclose(solution_profile(homog, t, xs), row,
                                   rtol=0.0, atol=1e-12)


def test_grid_route_is_odd(quartic):
    xs = np.concatenate([-np.linspace(0.1, 2.0, 7)[::-1], np.linspace(0.1, 2.0, 7)])
    grid = solution_grid(quartic, (1.5,), xs, n_orbits=2048)
    np.testing.assert_allclose(grid[0], -grid[0, ::-1], rtol=0.0, atol=1e-13)


def test_grid_route_includes_time_zero(quartic):
    xs = np.array([-0.5, 0.5])
    grid = solution_grid(quartic, (0.0, 1.0), xs, n_orbits=512)
    np.testing.assert_array_equal(grid[0], np.array([-2.0, 2.0]))


@pytest.mark.parametrize("name, record", [
    ("quartic", np.linspace(0.0, 2.5, 101)),    # a gap of 25 steps
    ("quartic", np.array([0.0, 0.3, 5.0])),     # 74 chunks in one gap
    ("homogeneous", np.array([0.0, 0.5, 1.0])),  # all free at launch
])
def test_retiring_march_keeps_the_kernel_bits(name, record):
    """Retiring orbits that dip below 0 and adding free ones' one
    increment per step leaves every unretired entry as the bare RK4
    kernel has it, and the retired flags are the kernel's running minimum
    below 0.  Orbits heading back into the well from the flat tail are
    added to the arc's: g' is zero where they start but not where they
    go."""
    model = MODELS[name]()
    q0, p0 = _arc_batch(model, 3.0, 512)
    q0 = np.concatenate([q0, np.linspace(1.0, 2.5, 16)])
    p0 = np.concatenate([p0, np.full(16, -0.7)])
    Q, P, retired = integrate_batch(model, q0, p0, record, retire=True)
    spans = [_split(s, DEFAULT_DT) for s in [0.0, *np.diff(record)]]
    lowest = q0.copy()
    KQ, KP, MN = [], [], []
    for q, p in _rk4_rows(model, q0.copy(), p0.copy(), spans, lowest):
        KQ.append(q)
        KP.append(p)
        MN.append(lowest.copy())
    KQ, KP, MN = map(np.array, (KQ, KP, MN))
    np.testing.assert_array_equal(retired, MN < 0.0)
    alive = ~retired
    np.testing.assert_array_equal(Q[alive].view(np.int64),
                                  KQ[alive].view(np.int64))
    np.testing.assert_array_equal(P[alive].view(np.int64),
                                  KP[alive].view(np.int64))
    free = alive[-1] & (KQ[-1] >= model.cutoff) & (KP[-1] >= 0.0)
    assert free.any()
    assert retired[-1].any() == (name == "quartic")


def _heavy(model, below_zero_only):
    """The model with g' scaled by 1.5, everywhere or only at q < 0 where
    only dead orbits go; g is kept, so the energy drifts."""
    def force(q, out=None):
        scale = 1.5 if not below_zero_only else np.where(q < 0.0, 1.5, 1.0)
        return np.multiply(scale, model.force(q), out=out)
    return dataclasses.replace(model, name="heavy", force=force)


@pytest.mark.parametrize("below_zero_only", [False, True])
def test_raster_certifies_dead_and_moving_orbits(quartic, below_zero_only):
    with pytest.raises(EnergyDrift):
        solution_grid(_heavy(quartic, below_zero_only), (0.5, 1.5),
                      np.array([-0.5, 0.5]), n_orbits=512)


def test_a_raster_of_an_uneven_force_refuses_negative_positions(quartic):
    """The quartic force scaled by 1 + 1e-12 at x > 0 is not odd, so u at
    x < 0 is no reflection of u at x > 0: a raster asking for x < 0 is
    refused by the model's name once the march has been certified, where
    it used to return exactly -u(t, 0.5) at x = -0.5.  Positive positions
    alone still give the raster."""
    def force(x, out=None):
        return np.multiply(np.where(x > 0.0, 1.0 + 1e-12, 1.0),
                           quartic.force(x), out=out)

    model = dataclasses.replace(quartic, name="uneven", force=force)
    with pytest.raises(DomainError, match="'uneven': the force is not odd"):
        solution_grid(model, (0.5, 1.5), np.array([-0.5, 0.5]), n_orbits=512)
    U = solution_grid(model, (0.5, 1.5), np.array([0.5, 1.0]), n_orbits=512)
    assert U.shape == (2, 2) and np.all(np.isfinite(U))


@pytest.mark.parametrize("n_orbits, times", [
    (4096, [1e5]),     # 1e8 steps in one gap
    (8, [5000.0]),     # 145 orbits over 5e6 steps, about 6 min of march
])
def test_grid_march_work_has_a_ceiling(quartic, n_orbits, times):
    start = time.perf_counter()
    with pytest.raises(DomainError, match="steps"):
        solution_grid(quartic, times, np.array([0.5]), n_orbits=n_orbits)
    assert time.perf_counter() - start < 1.0


def test_a_grid_past_the_record_ceiling_is_refused_before_it_allocates(
        quartic):
    """A million repeated zero times take no step, so the step budget
    charges them nothing, yet each would record a row of every orbit and
    position.  The call is refused, naming both sizes, having allocated
    no more than its input's temporaries."""
    times = np.zeros(10**6)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=re.escape(
                "1000000 times x (145 orbits + 1 positions)")):
            solution_grid(quartic, times, np.array([0.5]), n_orbits=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * times.nbytes


def test_a_grid_holds_its_output_once(quartic):
    """20 times x 100,000 positions, the largest raster ``exact`` asks
    for: the output (16 MB) is allocated once and reflected in place, so
    the peak stays under twice the output.  Building the reflection with
    np.where held two more full grids and peaked at 3.5 outputs."""
    times = np.linspace(0.125, 2.5, 20)
    xs = Grid1D(-4.0, 4.0, 100_000).centers()
    tracemalloc.start()
    try:
        U = solution_grid(quartic, times, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert U.shape == (20, 100_000)
    assert peak < 2 * U.nbytes


@settings(deadline=5000, max_examples=50)
@given(st.lists(st.floats(0.0, 5.0), max_size=6),
       st.lists(st.tuples(st.floats(0.001, 4.0), st.booleans()),
                min_size=1, max_size=12),
       st.booleans(), st.integers(1, 512))
def test_grid_is_finite_and_odd_or_refused(quartic, times, signed, mirror,
                                           n_orbits):
    """Any nondecreasing times in [0, 5], positions in +-[0.001, 4] (a
    mirrored set included) and 1 to 512 orbits give a finite grid of one
    row per time and one column per position, odd in x to the bit, or a
    HetclawError."""
    times = sorted(times)
    xs = np.array([x if keep else -x for x, keep in signed])
    if mirror:
        xs = np.concatenate([xs, -xs])
    try:
        U = solution_grid(quartic, times, xs, n_orbits=n_orbits)
    except HetclawError:
        return
    assert U.shape == (len(times), xs.size)
    assert np.all(np.isfinite(U))
    bits = U.view(np.int64)
    flipped = (-U).view(np.int64)
    for j, k in zip(*np.nonzero(xs[:, None] == -xs[None, :])):
        assert np.array_equal(bits[:, j], flipped[:, k])


def test_grid_of_no_positions_has_no_columns(quartic):
    """No positions used to escape as a raw ValueError from np.max."""
    grid = solution_grid(quartic, [0.0, 1.0], np.array([]))
    assert grid.shape == (2, 0)


@pytest.mark.parametrize("n_orbits", [100.5, 0, -8, True])
def test_grid_orbit_count_must_be_a_positive_integer(quartic, n_orbits):
    """A fractional count used to escape as a raw TypeError, and True
    used to rasterize from one orbit."""
    with pytest.raises(DomainError, match="n_orbits"):
        solution_grid(quartic, [1.0], np.array([0.5]), n_orbits=n_orbits)


@pytest.mark.parametrize("times, xs", [
    ((1.0,), np.array([[0.5, 0.6]])),
    ((1.0,), np.array([0.5, np.nan])),
    ((1.0,), np.array([np.inf])),
    ([[1.0]], np.array([0.5])),
    ((0.5, np.nan), np.array([0.5])),
    ((np.inf,), np.array([0.5])),
])
def test_grid_axes_must_be_finite_and_one_dimensional(quartic, times, xs):
    """A 2-D xs used to return a 3-D grid, and a NaN position to march
    every orbit before failing as NonFinite."""
    with pytest.raises(DomainError, match="grid (times|positions) must be"):
        solution_grid(quartic, times, xs, n_orbits=64)


# ===== Domain =====

def test_rejects_nonpositive_time(quartic):
    with pytest.raises(DomainError):
        eval_solution(quartic, 0.0, 0.5)
    with pytest.raises(DomainError):
        eval_solution(quartic, -1.0, 0.5)


def test_point_routes_refuse_the_shock_and_backward_times(quartic):
    with pytest.raises(DomainError, match="shock"):
        eval_solution(quartic, 1.0, 0.0)
    with pytest.raises(DomainError, match="shock"):
        solution_profile(quartic, 1.0, [0.5, 0.0])
    with pytest.raises(DomainError, match="nondecreasing"):
        solution_grid(quartic, [1.0, 0.5], [0.5])
