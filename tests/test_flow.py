"""Characteristic flow: integration accuracy, events and symmetries."""
from __future__ import annotations

import ast
import dataclasses
import itertools
import math
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetclaw.errors import DomainError, EnergyDrift, HetclawError, \
    NonFinite
from hetclaw.model import MODELS, HamiltonianModel, quartic_well
from hetclaw.flow import (
    DEFAULT_DT,
    ENERGY_TOL,
    _MAX_ORBIT_STEPS,
    _STEP_COST_ORBITS,
    Trajectory,
    _mirror,
    _rk4_rows,
    _split,
    crossing_events,
    integrate,
    integrate_batch,
    rk4_step,
    terminal_batch,
    terminal_state,
)
from hetclaw.period import period_quadrature

SQRT2 = np.sqrt(2.0)


# ===== Exact special orbits =====

def test_free_flight_outside_the_well(quartic):
    """Beyond the cutoff the force vanishes, so motion is a straight line."""
    q, p = terminal_state(quartic, 1.5, 2.0, 1.0)
    assert q == pytest.approx(3.5, abs=1e-12)
    assert p == pytest.approx(2.0, abs=1e-14)


def test_rest_state_stays_at_rest(quartic):
    q, p = terminal_state(quartic, 0.0, 0.0, 7.0)
    assert q == 0.0
    assert p == 0.0


def test_periodic_orbit_returns(quartic):
    """One full period brings a trapped orbit back to its datum."""
    period = period_quadrature(quartic, 1.0)
    q, p = terminal_state(quartic, 0.0, 1.0, period)
    assert abs(q) < 1e-6
    assert p == pytest.approx(1.0, abs=1e-6)


def test_momentum_map_at_zero_time(quartic):
    q, p = terminal_state(quartic, 0.4, 1.7, 0.0)
    assert p == 1.7
    assert q == 0.4


# ===== Separatrix behaviour =====

def test_critical_orbit_creeps_toward_the_rim(quartic):
    """The orbit launched with the critical momentum approaches q = 1
    from below and never crosses it."""
    qs = [terminal_state(quartic, 0.0, SQRT2, t)[0]
          for t in (1.0, 2.0, 5.0, 10.0, 30.0)]
    assert all(b > a for a, b in zip(qs, qs[1:]))
    assert all(q < 1.0 for q in qs)
    assert qs[3] == pytest.approx(0.9809270618596965, abs=1e-7)
    assert qs[4] > 0.993


def test_escaping_orbit_outruns_the_sound_cone(quartic):
    for t in (1.0, 2.0, 5.0, 10.0):
        assert terminal_state(quartic, 0.0, 2.0, t)[0] >= SQRT2 * t - 1.0


def test_separatrix_pair_classes(quartic):
    """The critical orbit stays trapped; the datum-momentum orbit escapes."""
    lower = integrate(quartic, 0.0, quartic.separatrix_momentum, 8.0)
    upper = integrate(quartic, 0.0, 2.0, 8.0)
    assert np.max(lower.q) < 1.0
    assert np.max(upper.q) > 8.0
    assert lower.p[0] == pytest.approx(SQRT2)
    assert upper.p[0] == 2.0


# ===== Orderings used downstream =====

def test_feet_order_is_preserved_forward(quartic):
    """Orbits launched at the top momentum never overtake one another."""
    for t in (0.5, 2.0, 5.0, 10.0):
        qs = [terminal_state(quartic, q0, 2.0, t)[0]
              for q0 in (0.0, 0.4, 0.8, 1.6)]
        assert all(b > a for a, b in zip(qs, qs[1:]))


def test_launch_momentum_orders_positions(quartic):
    def q_at(t, p0):
        return terminal_state(quartic, 0.0, p0, t)[0]

    assert q_at(1.0, 0.5) < q_at(1.0, 1.0)
    assert q_at(0.7, 1.0) < q_at(0.7, 2.0)


# ===== Invariants =====

def test_energy_is_conserved_to_tolerance(quartic):
    for p0 in (0.5, 1.0, 1.39, 2.0):
        traj = integrate(quartic, 0.0, p0, 30.0)
        assert traj.drift <= 1e-9


def test_backward_integration_reverses(quartic):
    q1, p1 = terminal_state(quartic, 0.0, 1.2, 10.0)
    q0, p0 = terminal_state(quartic, q1, p1, -10.0)
    assert abs(q0) <= 1e-8
    assert abs(p0 - 1.2) <= 1e-8


def test_flow_is_odd(quartic):
    for t in (0.8, 4.0):
        q, p = terminal_state(quartic, 0.3, 0.7, t)
        qm, pm = terminal_state(quartic, -0.3, -0.7, t)
        assert qm == pytest.approx(-q, abs=1e-14)
        assert pm == pytest.approx(-p, abs=1e-14)


def test_drift_guard_raises_on_coarse_steps(quartic):
    with pytest.raises(EnergyDrift):
        integrate(quartic, 0.0, 1.4, 10.0, dt_max=0.25)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_durations_are_domain_errors(quartic, t):
    with pytest.raises(DomainError):
        terminal_state(quartic, 0.0, 1.0, t)
    with pytest.raises(DomainError):
        integrate(quartic, 0.0, 1.0, t)
    with pytest.raises(DomainError):
        terminal_batch(quartic, np.array([0.0]), np.array([1.0]), t)


def test_record_times_must_start_at_zero(quartic):
    with pytest.raises(DomainError):
        integrate_batch(quartic, np.array([0.0]), np.array([1.0]), [0.5, 1.0])
    with pytest.raises(DomainError):
        integrate_batch(quartic, np.array([0.0]), np.array([1.0]), [])


@pytest.mark.parametrize("record_times, turn", [
    ([0.0, 1.0, 0.5], "0.5"),
    ([0.0, 0.0, -1.0, -1.0, -0.25, -2.0], "-0.25"),
])
def test_record_times_keep_one_direction(quartic, record_times, turn):
    """[0, 1, 0.5] used to march forward, then back, without a word."""
    with pytest.raises(DomainError, match=f"{turn} turns back"):
        integrate_batch(quartic, np.array([0.1]), np.array([1.0]),
                        record_times)


@pytest.mark.parametrize("record_times", [
    [0.0, 1e300], [0.0, -1e300], [0.0, 0.0, 1e300, 1.7e308],
])
def test_far_record_times_reach_the_step_budget_without_overflow(
        quartic, record_times):
    """The direction check multiplies the gaps by the first gap's sign,
    not by the gap itself: 1e300 * 1e300 used to overflow, and under
    warnings as errors the march raised RuntimeWarning instead of the
    step budget's refusal."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="needs more than"):
            integrate_batch(quartic, np.array([0.1]), np.array([1.0]),
                            record_times)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_repeated_record_times_record_one_state_twice(quartic, sign):
    q0, p0 = np.array([0.1, 0.6]), np.array([1.0, -0.3])
    times = sign * np.array([0.0, 0.5, 0.5, 1.25, 1.25])
    Q, P = integrate_batch(quartic, q0, p0, times)
    Qd, Pd = integrate_batch(quartic, q0, p0, times[[0, 1, 3]])
    assert Q.tobytes() == Qd[[0, 1, 1, 2, 2]].tobytes()
    assert P.tobytes() == Pd[[0, 1, 1, 2, 2]].tobytes()


@pytest.mark.parametrize("q0, p0", [
    (np.zeros(3), np.ones(4)),
    (np.zeros((2, 2)), np.ones((2, 2))),
    (0.0, 1.0),
])
def test_batch_launch_must_be_two_matching_vectors(quartic, q0, p0):
    """Launch arrays of different sizes used to escape as a raw numpy
    broadcast error."""
    with pytest.raises(DomainError, match="1-D"):
        integrate_batch(quartic, q0, p0, [0.0, 1.0])


# Each public marcher on one trapped orbit to t = 1.
MARCHERS = {
    "integrate": lambda m, **kw: integrate(m, 0.0, 1.4, 1.0, **kw),
    "terminal_state": lambda m, **kw: terminal_state(m, 0.0, 1.4, 1.0, **kw),
    "terminal_batch": lambda m, **kw: terminal_batch(
        m, np.array([0.0]), np.array([1.4]), 1.0, **kw),
    "integrate_batch": lambda m, **kw: integrate_batch(
        m, np.array([0.0]), np.array([1.4]), [0.0, 0.5, 1.0], **kw),
}
# dt_max = 1e-9 asks for 1e9 steps over t = 1, past the step ceiling
BAD_INPUTS = [("dt_max", v) for v in (0.0, -0.5, np.nan, np.inf, 1e-9)]


@pytest.mark.parametrize(
    "marcher, name, value",
    [(m, n, v) for m in MARCHERS for n, v in BAD_INPUTS]
    + [("integrate", "record_every", v) for v in (0, -3, 2.5, True)])
def test_bad_flow_inputs_are_domain_errors(quartic, marcher, name, value):
    with pytest.raises(DomainError, match=name):
        MARCHERS[marcher](quartic, **{name: value})


def test_step_count_has_a_ceiling():
    """A tiny dt_max used to be cut into 1e12 steps and march for days."""
    with pytest.raises(DomainError, match="steps"):
        _split(1.0, 1e-12)
    assert _split(64.0, 1e-3) == (64000, 1e-3)


@pytest.mark.parametrize("orbits, record_times", [
    (10**5, [0.0, 20.0]),               # 2e9 orbit-steps in one span
    (1, [0.0, 9000.0, 18000.0]),        # 1.8e7 steps, 9e6 in each gap
    (1, [0.0, 2000.0]),                 # 2e6 steps of ~76 us each
])
def test_batch_march_work_has_a_ceiling(quartic, orbits, record_times):
    """A batch march used to bound each record gap on its own, so its
    orbits x steps grew without limit, and a narrow one could run for
    minutes on the fixed cost of its steps; it is refused before any
    step."""
    start = time.perf_counter()
    with pytest.raises(DomainError, match="orbit-steps"):
        integrate_batch(quartic, np.zeros(orbits), np.full(orbits, 0.5),
                        record_times)
    assert time.perf_counter() - start < 1.0


def test_zero_duration_trajectory_is_its_sample(quartic):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(quartic, 0.4, 1.7, 0.0)
    assert traj.times.tolist() == [0.0]
    assert traj.q.tolist() == [0.4]
    assert traj.p.tolist() == [1.7]
    assert traj.drift == 0.0


# Every entry point returns finite values or raises a HetclawError, and
# the scalar, recorded and batch routes land on the same bits.
DRAWS = (st.floats(-3.0, 3.0), st.floats(-2.5, 2.5), st.floats(-40.0, 40.0),
         st.floats(1e-3, 0.5))


def _scalar_or_error(q0, p0, t, dt_max):
    try:
        q, p = terminal_state(quartic_well(), q0, p0, t, dt_max)
    except HetclawError as err:
        return err
    assert math.isfinite(q) and math.isfinite(p)
    return q, p


@settings(deadline=2000)
@given(*DRAWS)
def test_recorded_march_ends_on_the_scalar_one(q0, p0, t, dt_max):
    """terminal_state, which records only the ends of its march, lands on
    a plain rk4_step loop over _split's steps to the bit; where it
    refuses, that loop's end breaks the energy certificate."""
    model = quartic_well()
    n, h = _split(t, dt_max)
    q, p = q0, p0
    for _ in range(n):
        q, p = rk4_step(model.force, q, p, h)
    got = _scalar_or_error(q0, p0, t, dt_max)
    if isinstance(got, HetclawError):
        assert not abs(model.h(q, p) - model.h(q0, p0)) <= ENERGY_TOL
        return
    np.testing.assert_array_equal(_bits(got), _bits((q, p)))


# A one-orbit batch costs 67-80 us a step against 2.0-2.8 us on floats
# (2-core x86 host), so 40,000 steps at dt_max = 1e-3 take about 3 s of
# the 10 s deadline.
@settings(deadline=10000, max_examples=30)
@given(*DRAWS)
def test_batch_march_lands_on_the_scalar_one(q0, p0, t, dt_max):
    ref = _scalar_or_error(q0, p0, t, dt_max)
    args = (quartic_well(), np.array([q0]), np.array([p0]), t, dt_max)
    if isinstance(ref, HetclawError):
        with pytest.raises(type(ref)):
            terminal_batch(*args)
        return
    Q, P = terminal_batch(*args)
    assert (Q[0], P[0]) == ref


# ===== Events =====

def test_first_return_crossing(quartic):
    """A trapped orbit crosses the origin at half its period."""
    period = period_quadrature(quartic, 1.0)
    traj = integrate(quartic, 0.0, 1.0, 3.0)
    events = crossing_events(traj)
    interior = events[events > 1e-9]
    assert interior.size >= 1
    assert interior[0] == pytest.approx(period / 2.0, abs=1e-6)


def test_free_orbit_never_crosses(quartic):
    traj = integrate(quartic, 1.5, 2.0, 2.0)
    assert crossing_events(traj).size == 0


@settings(deadline=5000, max_examples=40)
@given(st.floats(-0.9, 0.9), st.floats(-1.3, 1.3), st.floats(-12.0, 12.0),
       st.floats(-0.9, 0.9))
def test_crossing_times_sit_on_the_level(q0, p0, t, level):
    """Every crossing time, forward or backward, puts the orbit within
    1e-8 of its level.  The orbit is marched from one crossing to the
    next; a rest state on the level counts one crossing, at its start."""
    model = quartic_well()
    taus = crossing_events(integrate(model, q0, p0, t), level)
    q, p, s = q0, p0, 0.0
    for tau in taus if t >= 0.0 else taus[::-1]:
        q, p = terminal_state(model, q, p, tau - s)
        s = tau
        assert abs(q - level) <= 1e-8


def test_a_run_on_the_level_counts_once_where_it_crosses(quartic):
    """A run of on-level samples is one crossing, at its first sample, if
    the orbit changes side across it or it touches an end; a touch from
    one side is none."""
    rest = crossing_events(integrate(quartic, 0.0, 0.0, 2.0))
    np.testing.assert_array_equal(rest, [0.0])

    times = np.arange(5.0)
    runs = {(1.0, 0.0, 0.0, 0.0, -1.0): [1.0],
            (1.0, 0.0, 0.0, 1.0, 1.0): [],
            (-1.0, 0.0, -1.0, 0.0, 0.0): [3.0],
            (0.0, 0.0, 1.0, 0.0, 1.0): [0.0],
            (0.0, 0.0, 0.0, 0.0, 0.0): [0.0]}
    for q, want in runs.items():
        traj = Trajectory(quartic, times, np.array(q), np.zeros(5), 0.0)
        np.testing.assert_array_equal(crossing_events(traj), want)


def test_mirror_orbit_has_identical_crossings(quartic):
    a = crossing_events(integrate(quartic, 0.0, 1.0, 3.0))
    b = crossing_events(integrate(quartic, 0.0, -1.0, 3.0))
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-9)


# ===== Batch marches =====

def test_batch_matches_scalar_integration(quartic):
    q0 = np.array([0.0, 0.2, 1.5])
    p0 = np.array([1.0, -0.5, 2.0])
    marks = np.array([0.0, 0.5, 1.25, 2.0])
    Q, P = integrate_batch(quartic, q0, p0, marks)
    np.testing.assert_array_equal(Q[0], q0)
    np.testing.assert_array_equal(P[0], p0)
    for j in range(q0.size):
        for i, t in enumerate(marks[1:], start=1):
            q, p = terminal_state(quartic, q0[j], p0[j], float(t))
            assert Q[i, j] == pytest.approx(q, abs=1e-12)
            assert P[i, j] == pytest.approx(p, abs=1e-12)


def test_batch_running_minimum_sees_between_record_dips(quartic):
    """An orbit that dips below zero between two record times must not
    look alive at the records alone."""
    period = period_quadrature(quartic, 1.0)
    marks = np.array([0.0, period])
    Q, _ = integrate_batch(quartic, np.array([0.0]), np.array([1.0]), marks)
    assert abs(Q[1, 0]) < 1e-6
    _, _, retired = integrate_batch(quartic, np.array([0.0]),
                                    np.array([1.0]), marks, retire=True)
    assert retired.tolist() == [[False], [True]]


def test_a_march_without_retirement_holds_its_record_once(quartic):
    """Without ``retire`` no flag array is built: 1,000 orbits over 801
    record times peak at about 1.02 records (Q and P, 12.8 MB), where
    the flags nobody read took it to 1.08."""
    q0 = np.linspace(-2.0, 2.0, 1000)
    p0 = np.linspace(1.5, -1.5, 1000)
    tracemalloc.start()
    try:
        Q, P = integrate_batch(quartic, q0, p0, np.linspace(0.0, 2.0, 801))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * (Q.nbytes + P.nbytes)


def test_terminal_batch_is_the_last_recorded_row(quartic):
    q0 = np.array([0.0, 0.2, 1.5, -0.4])
    p0 = np.array([1.0, -0.5, 2.0, 0.3])
    for t in (2.0, -1.5):
        Q, P = integrate_batch(quartic, q0, p0, [0.0, t])
        q, p = terminal_batch(quartic, q0, p0, t)
        np.testing.assert_array_equal(q.view(np.int64), Q[-1].view(np.int64))
        np.testing.assert_array_equal(p.view(np.int64), P[-1].view(np.int64))


def _rk4_step_rows(model, q, p, spans, lowest):
    """A plain loop of rk4_step on whole arrays, the running minimum of q
    folded into ``lowest`` after every step."""
    rows = []
    for n, h in spans:
        for _ in range(n):
            q, p = rk4_step(model.force, q, p, h)
            np.minimum(lowest, q, out=lowest)
        rows.append((q, p, lowest.copy()))
    return rows


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("spans", [
    [(1, 1e-3)],
    [(7, 1e-3), (64, 1e-3), (3, 2.5e-4)],
    [(1, -1e-3), (40, -1e-3), (2, -0.3)],
], ids=["one-step", "forward", "backward"])
def test_array_march_is_rk4_step_to_the_bit(name, spans):
    """An array march runs in place on its own rows, yet each span's end
    is a plain rk4_step loop's to the bit, and so is the running minimum.
    The kernel-bit tests of the batch marchers take ``_rk4_rows`` as their
    reference; this ties it to rk4_step.  The launches sit on the rim
    q = +-1, past it and at p = +-0."""
    model = MODELS[name]()
    q0 = np.concatenate([[1.0, -1.0, 1.0, -1.0, 0.0, -0.0, 1.5, -2.5, 0.3,
                          -0.7, 1.0 - 2.0**-53],
                         np.linspace(-1.2, 1.2, 25)])
    p0 = np.concatenate([[0.0, -0.0, -0.5, 0.5, 0.0, -0.0, -1.0, 0.7, 1.2,
                          -0.0, 1e-3],
                         np.linspace(1.4, -1.4, 25)])
    lowest = q0.copy()
    got = [(q, p, lowest.copy())
           for q, p in _rk4_rows(model, q0.copy(), p0.copy(), spans,
                                 lowest)]
    want = _rk4_step_rows(model, q0.copy(), p0.copy(), spans, q0.copy())
    assert len(got) == len(want) == len(spans)
    for row, ref in zip(got, want):
        for a, b in zip(row, ref):
            np.testing.assert_array_equal(_bits(a), _bits(b))
    for (qa, pa, _), (qb, pb, _) in itertools.combinations(got, 2):
        assert not any(np.shares_memory(a, b)
                       for a in (qa, pa) for b in (qb, pb))


def test_an_array_step_makes_two_force_calls(quartic):
    """Stage 2's position needs only the state and stage 4's only stage
    2's force, so a step reads the force at two pairs of rows."""
    shapes = []

    def force(x, out=None):
        shapes.append(x.shape)
        return quartic.force(x, out)

    model = dataclasses.replace(quartic, name="counted", force=force)
    shapes.clear()
    q0, p0 = np.linspace(-1.2, 1.2, 7), np.linspace(0.9, -0.9, 7)
    list(_rk4_rows(model, q0, p0, [(5, 1e-3), (3, -1e-3)]))
    assert shapes == [(2, 7)] * 16


def _kernel_rows(model, q0, p0, record):
    """The bare RK4 kernel over integrate_batch's spans, every orbit
    stepped every step."""
    spans = [_split(s, DEFAULT_DT) for s in [0.0, *np.diff(record)]]
    rows = list(_rk4_rows(model, q0.copy(), p0.copy(), spans))
    return (np.array([q for q, _ in rows]), np.array([p for _, p in rows]))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("record", [
    np.linspace(0.0, 2.5, 101),         # a gap of 25 steps
    np.array([0.0, 0.3, 5.0]),          # 74 chunks in one gap
    np.array([0.0, -0.4, -1.7]),        # backward
])
def test_batch_march_keeps_the_kernel_bits(quartic, record):
    """Free orbits add one increment per step instead of taking RK4
    steps, yet every entry, orbits that dip below 0 included, is the
    kernel's to the bit.  Past the cutoff an orbit is free when it moves
    outward in the march's direction (p >= 0 forward, p <= 0 backward);
    one that heads back into the well is not."""
    q0 = np.concatenate([np.zeros(40), np.linspace(0.5, 2.5, 24),
                         np.linspace(1.0, 2.5, 8)])
    p0 = np.concatenate([np.linspace(1e-3, 2.0, 40), np.full(24, 1.3),
                         np.full(8, -0.7)])
    Q, P = integrate_batch(quartic, q0, p0, record)
    KQ, KP = _kernel_rows(quartic, q0, p0, record)
    np.testing.assert_array_equal(_bits(Q), _bits(KQ))
    np.testing.assert_array_equal(_bits(P), _bits(KP))
    assert (Q < 0.0).any()
    assert ((Q[-1] >= quartic.cutoff) & (P[-1] * record[-1] >= 0.0)).any()


# ===== Mirrored launches =====

def _widths(march):
    """Run ``march`` and return its result and the set of batch widths
    that integrate_batch sorted into free and moving orbits."""
    seen = set()
    flies_free = HamiltonianModel.flies_free

    def spy(self, q, v):
        seen.add(q.size)
        return flies_free(self, q, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HamiltonianModel, "flies_free", spy)
        result = march()
    return result, seen


def _unmirrored(model, q0, p0, record):
    """integrate_batch with a launch at (9, 0.5) appended and its column
    dropped: that launch has no mirror in the batch, so every orbit is
    marched, and an orbit's bits do not depend on its batch."""
    Q, P = integrate_batch(model, np.append(q0, 9.0), np.append(p0, 0.5),
                           record)
    return Q[:, :-1], P[:, :-1]


EDGE_Q = [0.0, -0.0, 1.0, -1.0, 1.0 - 2.0**-53, 1.5, -1.5, 2.5, -2.5]
EDGE_P = [0.0, -0.0, 0.7, -0.7, 1.3, -1.3]
LAUNCH = st.tuples(st.one_of(st.sampled_from(EDGE_Q), st.floats(-3.0, 3.0)),
                   st.one_of(st.sampled_from(EDGE_P), st.floats(-2.0, 2.0)))


# Five marches of up to 500 steps at 20-60 us a step (2-core x86 host).
@settings(deadline=5000, max_examples=30)
@given(name=st.sampled_from(sorted(MODELS)), sign=st.sampled_from([1, -1]),
       right=st.lists(LAUNCH, min_size=1, max_size=12),
       centre=st.booleans(), first=st.floats(0.01, 0.2),
       gaps=st.lists(st.floats(0.0, 0.15), max_size=2),
       moved=st.integers(0, 24))
@example(name="quartic", sign=-1,
         right=[(0.0, 0.7), (1.0, 0.0), (1.5, 0.7), (1.5, -0.7), (2.5, 1.3),
                (-1.0, -1.3), (1.0 - 2.0**-53, 0.0)],
         centre=True, first=0.2, gaps=[0.0, 0.15], moved=3)
@example(name="homogeneous", sign=1,
         right=[(0.0, 0.0), (1.5, 0.7), (1.5, -0.7), (-2.5, 1.3)],
         centre=False, first=0.1, gaps=[0.1], moved=0)
def test_mirrored_launches_march_once_to_the_bit(name, sign, right, centre,
                                                 first, gaps, moved):
    """A batch of mirror pairs, the launches 0.0 - x of the right half
    reversed before it, with the rest launch (+0, +0) between them or
    not, marches only its right half, yet every record row is the two
    halves' own unmirrored marches to the bit.  A -0.0 launch has no
    mirror (0.0 - -0.0 is +0.0), so its batch takes the full march; so
    does the batch with one launch moved by one ulp, and every retiring
    march."""
    model = MODELS[name]()
    rq, rp = map(np.array, zip(*right))
    mid = [0.0] if centre else []
    q0 = np.concatenate([0.0 - rq[::-1], mid, rq])
    p0 = np.concatenate([0.0 - rp[::-1], mid, rp])
    n, m = q0.size, rq.size
    record = sign * np.cumsum([0.0, first, *gaps])
    (Q, P), seen = _widths(lambda: integrate_batch(model, q0, p0, record))
    halves = [_unmirrored(model, q0[:m], p0[:m], record),
              _unmirrored(model, q0[m:], p0[m:], record)]
    for k, got in enumerate((Q, P)):
        want = np.hstack([half[k] for half in halves])
        np.testing.assert_array_equal(_bits(got), _bits(want))
    launches = np.concatenate([rq, rp])
    signed_zero = ((launches == 0.0) & np.signbit(launches)).any()
    assert seen == {n if signed_zero else n - m}

    q1 = q0.copy()
    q1[moved % n] = np.nextafter(q1[moved % n], np.inf)
    (Q1, P1), seen = _widths(lambda: integrate_batch(model, q1, p0, record))
    assert seen == {n}
    keep = np.arange(n) != moved % n
    np.testing.assert_array_equal(_bits(Q1[:, keep]), _bits(Q[:, keep]))
    np.testing.assert_array_equal(_bits(P1[:, keep]), _bits(P[:, keep]))

    (RQ, RP, stale), seen = _widths(
        lambda: integrate_batch(model, q0, p0, record, retire=True))
    assert seen == {n}
    np.testing.assert_array_equal(_bits(RQ[~stale]), _bits(Q[~stale]))
    np.testing.assert_array_equal(_bits(RP[~stale]), _bits(P[~stale]))


def test_an_uneven_force_marches_every_orbit(quartic):
    """The quartic force scaled by 1 + 1e-12 at x > 0 keeps the energy
    within the certificate but is not odd: a mirrored batch under it
    marches every orbit, and its left half is no mirror of its right."""
    def force(x, out=None):
        return np.multiply(np.where(x > 0.0, 1.0 + 1e-12, 1.0),
                           quartic.force(x), out=out)

    model = dataclasses.replace(quartic, name="uneven", force=force)
    assert not model.odd
    right = np.linspace(0.05, 0.95, 10)
    q0 = np.concatenate([0.0 - right[::-1], right])
    p0 = np.concatenate([np.full(10, -0.4), np.full(10, 0.4)])
    assert _mirror(quartic, q0, p0) == 10 and _mirror(model, q0, p0) == 0
    record = [0.0, 1.0]
    (Q, P), seen = _widths(lambda: integrate_batch(model, q0, p0, record))
    assert seen == {20}
    halves = [_unmirrored(model, q0[:10], p0[:10], record),
              _unmirrored(model, q0[10:], p0[10:], record)]
    np.testing.assert_array_equal(_bits(Q), _bits(np.hstack(
        [half[0] for half in halves])))
    assert (_bits(Q[-1, :10]) != _bits(0.0 - Q[-1, :9:-1])).any()


def test_a_mirrored_batch_is_charged_for_every_orbit(quartic):
    """333,334 steps of 2,000 orbits are just over the orbit-step ceiling,
    though the 1,000 orbits a mirrored batch marches would fit under it.
    The mirrored batch gets its unmirrored twin's refusal, before any
    step."""
    steps, orbits = 333334, 2000
    assert (steps * (orbits // 2 + _STEP_COST_ORBITS) <= _MAX_ORBIT_STEPS
            < steps * (orbits + _STEP_COST_ORBITS))
    right = np.linspace(0.05, 0.95, orbits // 2)
    q0 = np.concatenate([0.0 - right[::-1], right])
    p0 = np.concatenate([np.full(orbits // 2, -0.4),
                         np.full(orbits // 2, 0.4)])
    twin = q0.copy()
    twin[0] = np.nextafter(twin[0], np.inf)
    assert _mirror(quartic, q0, p0) == orbits // 2
    assert _mirror(quartic, twin, p0) == 0
    start = time.perf_counter()
    refusals = []
    for q in (q0, twin):
        with pytest.raises(DomainError, match="orbit-steps") as err:
            integrate_batch(quartic, q, p0, [0.0, -float(steps)], dt_max=1.0)
        refusals.append(str(err.value))
    assert time.perf_counter() - start < 1.0
    assert refusals[0] == refusals[1]
    assert f"march of {orbits} orbits" in refusals[0]


def test_rk4_step_has_one_call_site():
    """Every float orbit in the package is marched by ``flow._march``."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src",
                       "hetclaw")
    sites = []
    for fname in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, fname)) as fh:
            tree = ast.parse(fh.read())
        sites += [(fname, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "rk4_step" in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))]
        if fname == "flow.py":
            march = next(node for node in tree.body
                         if getattr(node, "name", None) == "_march")
    assert len(sites) == 1, sites
    assert sites[0][0] == "flow.py"
    assert march.lineno < sites[0][1] <= march.end_lineno


def test_orbits_that_overflow_are_refused(quartic):
    """p0 = 1e308 carries q past the largest float within t = 10.  At
    p0 = 1e200 the states stay finite to t = 1 but the energy overflows;
    its drift read nan and passed the certificate."""
    with np.errstate(over="ignore", invalid="ignore"):
        for p0, t in ((1e308, 10.0), (1e200, 1.0)):
            for march in (lambda: integrate(quartic, 0.0, p0, t),
                          lambda: terminal_state(quartic, 0.0, p0, t),
                          lambda: terminal_batch(quartic, [0.0], [p0], t)):
                with pytest.raises(NonFinite):
                    march()
