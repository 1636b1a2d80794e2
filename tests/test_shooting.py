"""Backward shooting map: limits, monotonicity and continuity."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from hetclaw.errors import DomainError, NotFound
from hetclaw.flow import integrate_batch, terminal_state
from hetclaw.period import invert_half_period, period_quadrature, shock_time
from hetclaw.shooting import DEFAULT_SHOOT_TOL, arc_decode, arc_encode, \
    delta, delta_batch


# ===== Small-time limit =====

def test_short_horizons_shoot_from_nearby(quartic):
    """As the horizon shrinks the datum approaches (x, top momentum)."""
    last_dev = np.inf
    for t in (0.2, 0.05, 0.01):
        res = delta(quartic, t, 0.7)
        assert res.p0 == 2.0
        # the uphill slowdown shifts the foot right of the free-flight
        # estimate by the second-order term, about g'(0.7)/2 * t^2
        dev = res.q0 - (0.7 - 2.0 * t)
        assert 0.0 < dev < t * t
        assert dev < last_dev
        last_dev = dev
    res = delta(quartic, 0.01, 0.7)
    assert abs(res.q0 - 0.7) < 0.021


# ===== Uniqueness and consistency =====

def test_momentum_grows_with_target_position(quartic):
    assert delta(quartic, 2.0, 0.3).p0 < delta(quartic, 2.0, 0.6).p0


def test_shot_lands_on_target(quartic):
    res = delta(quartic, 2.0, 0.5)
    assert abs(res.residual) <= 1e-8
    landed = terminal_state(quartic, res.q0, res.p0, 2.0)[0]
    assert abs(landed - 0.5) <= 1e-8


def test_brute_force_scan_agrees(quartic):
    """A dense sweep of every admissible datum finds the same shot,
    confirming the root-find picks the unique minimiser."""
    t, x = 2.0, 0.5
    n = 10_000
    half = n // 2
    p_launch = np.concatenate([np.linspace(1e-3, 2.0, half),
                               np.full(n - half, 2.0)])
    q_launch = np.concatenate([np.zeros(half),
                               np.linspace(1e-6, 1.0, n - half)])
    Q, _, retired = integrate_batch(quartic, q_launch, p_launch, [0.0, t],
                                    retire=True)
    ok = ~retired[-1]
    miss = np.where(ok, np.abs(Q[-1] - x), np.inf)
    best = int(np.argmin(miss))
    res = delta(quartic, t, x)
    assert abs(q_launch[best] - res.q0) < 2e-3
    assert abs(p_launch[best] - res.p0) < 2e-3


def test_batch_matches_scalar(quartic):
    xs = np.linspace(0.1, 4.0, 12)
    q0, p0, residual, _ = delta_batch(quartic, 2.0, xs)
    assert np.max(np.abs(residual)) <= 1e-7
    for j, x in enumerate(xs):
        res = delta(quartic, 2.0, float(x))
        assert q0[j] == pytest.approx(res.q0, abs=1e-8)
        assert p0[j] == pytest.approx(res.p0, abs=1e-8)


# ===== Batch independence =====

# Positions that fall on the oscillating, escaping and half-line branches
# and in free flight at each of the times below.
BRANCH_XS = np.array([0.03, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.97, 1.05,
                      1.3, 1.8, 2.6, 3.5, 4.5, 5.5, 7.0, 50.0, 70.0])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("t", [0.3, 1.6, 2.4, 30.0])
def test_a_shot_does_not_depend_on_its_batch(quartic, t):
    """The set, its reversal, every x twice and each x alone give the same
    (q0, p0, residual, p_end) to the bit."""
    xs = BRANCH_XS
    q0, p0, _, _ = ref = delta_batch(quartic, t, xs)
    half = (p0 == 2.0) & (xs - 2.0 * t < quartic.cutoff)
    osc = p0 < quartic.separatrix_momentum
    assert half.any() and osc.any() and (~half & ~osc & (q0 == 0.0)).any()

    reversed_ = [a[::-1] for a in delta_batch(quartic, t, xs[::-1])]
    doubled = delta_batch(quartic, t, np.repeat(xs, 2))
    alone = [delta(quartic, t, float(x)) for x in xs]
    alone = [[getattr(d, k) for d in alone]
             for k in ("q0", "p0", "residual", "p_end")]
    for want, rev, dup, one in zip(ref, reversed_, doubled, alone):
        for got in (rev, dup[0::2], dup[1::2], one):
            np.testing.assert_array_equal(_bits(got), _bits(want))


# sha256 of the engine's outputs below; a change to the shooting map, the
# arrival-time quadratures or the root-find that moves any bit moves it
ENGINE_DIGEST = \
    "c03c612d849040c14d62a142ae8408868fcbd72b07ee22c6c13a7ff2269a2a36"


def test_the_engine_keeps_its_bits(quartic):
    """Shots on every branch from t = 0.3 to 1e4, the shock time, three
    periods and three half-period inversions hash to the pinned digest."""
    digest = hashlib.sha256()
    for t in (0.3, 1.6, 2.4, 30.0, 1e4):
        for out in delta_batch(quartic, t, BRANCH_XS):
            digest.update(np.ascontiguousarray(out, dtype=float).tobytes())
    values = ([shock_time(quartic)]
              + [period_quadrature(quartic, p) for p in (0.1, 0.9, 1.4142)]
              + [invert_half_period(quartic, t) for t in (2.0, 5.0, 40.0)])
    digest.update(np.array(values).tobytes())
    assert digest.hexdigest() == ENGINE_DIGEST


# ===== Continuity =====

def test_no_continuity_breaks_on_the_working_rectangle(quartic):
    """On a 50 x 50 grid of (t, x), the arc parameter of the shot never
    jumps between neighbours by more than 10x the grid step."""
    ts, dt = np.linspace(0.5, 3.0, 50, retstep=True)
    xs, dx = np.linspace(0.1, 2.0, 50, retstep=True)
    s = np.array([arc_encode(*delta_batch(quartic, float(t), xs)[:2])
                  for t in ts])
    assert np.max(np.abs(np.diff(s, axis=0))) <= 10.0 * dt
    assert np.max(np.abs(np.diff(s, axis=1))) <= 10.0 * dx


# ===== Domain errors =====

@pytest.mark.parametrize("t,x", [(0.0, 0.5), (-1.0, 0.5), (2.0, 0.0), (2.0, -0.4),
                                 (np.inf, 0.5)])
def test_rejects_degenerate_queries(quartic, t, x):
    with pytest.raises(DomainError):
        delta(quartic, t, x)


# ===== Late times =====

@pytest.mark.parametrize("t", [1e4, 1e8])
def test_late_shots_keep_converging(quartic, t):
    """The turning point is measured by its depth below the cutoff, so
    orbits this close to the separatrix keep their relative precision."""
    res = delta(quartic, t, 0.5)
    assert abs(res.residual) <= DEFAULT_SHOOT_TOL
    assert res.p_end == pytest.approx(-0.7954951288348661, abs=1e-12)


def test_unrepresentable_shots_raise(quartic):
    """Past t ~ 1e100 the turning point's depth below the cutoff leaves
    double precision; the shot raises instead of returning a value."""
    with pytest.raises(NotFound):
        delta(quartic, 1e200, 0.5)


@pytest.mark.parametrize("s", [2.0, 3.0, np.array([0.5, 2.0])])
def test_arc_decode_refuses_parameters_past_the_arc(s):
    with pytest.raises(DomainError, match="< 2"):
        arc_decode(s)
