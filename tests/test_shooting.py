"""Backward shooting map: limits, monotonicity and continuity."""
from __future__ import annotations

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetclaw import shooting
from hetclaw.charsol import eval_solution, solution_profile
from hetclaw.errors import DomainError, HetclawError, NotFound
from hetclaw.flow import integrate_batch, terminal_state
from hetclaw.fvm import Grid1D
from hetclaw.model import quartic_well
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
    "1c871ca3fef774c4a3a6cd8896f4a552b34e3864fdb42f7e4416c5987882d6bf"


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
    orbits this close to the separatrix keep their relative precision.
    The shot meets the root-find's stop contract.  A stop by bracket
    width may leave an arrival-time miss of one ulp of t, so the residual,
    that miss times |p_end|, is held to the larger of the shot tolerance
    and |p_end| ulp(t): 1.2e-8 at t = 1e8."""
    with _Logged() as log:
        res = delta(quartic, t, 0.5)
    assert log.calls and all(_meets_the_stop_contract(call)
                             for call in log.calls)
    assert abs(res.residual) <= max(DEFAULT_SHOOT_TOL,
                                    abs(res.p_end) * np.spacing(t))
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


# ===== Root-find traffic =====

class _Logged:
    """``shooting._illinois`` with every call's brackets, evaluations and
    results logged, while it is patched in."""

    def __init__(self):
        self.calls = []
        self.real = shooting._illinois

    def __call__(self, residual, lo, hi, f_lo, f_hi, force, shoot_tol):
        evals = []

        def logged(z, idx):
            f, p = residual(z, idx)
            evals.append((z.copy(), idx.copy(), f.copy()))
            return f, p

        call = {"lo": lo.copy(), "hi": hi.copy(), "tol": shoot_tol,
                "evals": evals}
        self.calls.append(call)
        call["out"] = self.real(logged, lo, hi, f_lo, f_hi, force,
                                shoot_tol)
        return call["out"]

    def __enter__(self):
        self.patch = mock.patch.object(shooting, "_illinois", self)
        self.patch.start()
        return self

    def __exit__(self, *exc):
        self.patch.stop()

    def entries(self):
        """Residual evaluations, one per entry per iterate."""
        return sum(idx.size for c in self.calls for _, idx, _ in c["evals"])

    def iterates(self):
        return sum(len(c["evals"]) for c in self.calls)


def _point_late_round():
    """The 20 (t, x) queries of point-late's first round at seed 1: ten
    times in five antithetic log strata of [0.5, 30], at two positions."""
    rng = np.random.default_rng((1, 0))
    lo, hi, strata = math.log(0.5), math.log(30.0), 5
    w = (hi - lo) / strata
    k = np.arange(strata)
    v = lo + w * (k + rng.uniform(size=strata))
    times = np.exp(np.concatenate([v, 2.0 * lo + w * (2.0 * k + 1.0) - v]))
    xs = rng.uniform(0.05, 2.5, 2) * rng.choice((-1.0, 1.0), 2)
    return [(float(t), float(x)) for t in times for x in xs]


def test_point_queries_pay_few_root_find_iterates(quartic):
    """A lone slow secant step no longer forces a bisection: point-late's
    round takes 193 residual evaluations (318 with a bisection after
    every step that failed to halve the bracket)."""
    with _Logged() as log:
        for t, x in _point_late_round():
            eval_solution(quartic, t, x)
    assert log.entries() == log.iterates() <= 200


def test_a_profile_pays_few_root_find_iterates(quartic):
    """One 400-cell profile at t = 2.2, as design-profile shoots it: 35
    batch iterates and 1,593 entry evaluations (82 and 3,056 with a
    bisection after every slow step)."""
    xs = Grid1D(-5.4, 5.4, 400).centers()
    with _Logged() as log:
        solution_profile(quartic, 2.2, xs)
    assert log.iterates() <= 38
    assert log.entries() <= 1650


_ULPS = 4.0 * np.finfo(float).eps


def _meets_the_stop_contract(call) -> bool:
    """Every entry of one root-find stopped as ``_illinois`` says: its
    phase-space miss at 0.1 shoot_tol, a zero residual, or a bracket at
    most 4 ulps of its larger end wide; and it answered with the (z, R)
    of its last evaluation, the iterate that stopped it.  The bracket is
    rebuilt from the log: a residual <= 0 moves the lower end to its
    iterate, a positive one the upper end."""
    a, b = call["lo"].copy(), call["hi"].copy()
    last_z, last_f = np.full_like(a, np.nan), np.full_like(a, np.nan)
    for z, idx, f in call["evals"]:
        a[idx] = np.where(f > 0.0, a[idx], z)
        b[idx] = np.where(f > 0.0, z, b[idx])
        last_z[idx], last_f[idx] = z, f
    z_out, f_out, _, miss = call["out"]
    return bool(np.all((miss <= 0.1 * call["tol"]) | (f_out == 0.0)
                       | (b - a <= _ULPS * np.maximum(np.abs(a),
                                                      np.abs(b))))
                and np.array_equal(_bits(z_out), _bits(last_z))
                and np.array_equal(_bits(f_out), _bits(last_f)))


# t log-uniform on [1e-3, 1e4]; |x| on [1e-3, 10], either sign
_TIMES = st.floats(math.log(1e-3), math.log(1e4)).map(math.exp)
_POSITIONS = st.tuples(st.floats(1e-3, 10.0), st.booleans()).map(
    lambda pair: -pair[0] if pair[1] else pair[0])


@settings(deadline=5000, max_examples=80)
@given(_TIMES, _POSITIONS)
def test_a_point_value_is_finite_and_converged_or_refused(t, x):
    """eval_solution returns a finite u, at most 2 in size, from shots
    that each met the root-find's stop contract, or raises a
    HetclawError."""
    with _Logged() as log:
        try:
            u = eval_solution(quartic_well(), t, x).u
        except HetclawError:
            return
    assert math.isfinite(u) and abs(u) <= 2.0
    assert all(_meets_the_stop_contract(call) for call in log.calls)


@settings(deadline=5000, max_examples=30)
@given(_TIMES, st.lists(_POSITIONS, min_size=1, max_size=12))
def test_a_profile_is_its_point_values_to_the_bit(t, xs):
    """solution_profile at drawn positions either gives each entry the
    bits of eval_solution there, from converged shots, or raises a
    HetclawError, as then at least one point query does."""
    model = quartic_well()
    with _Logged() as log:
        try:
            u = solution_profile(model, t, xs)
        except HetclawError:
            u = None
    if u is None:
        with pytest.raises(HetclawError):
            for x in xs:
                eval_solution(model, t, x)
        return
    assert all(_meets_the_stop_contract(call) for call in log.calls)
    for x, got in zip(xs, u):
        want = eval_solution(model, t, x).u
        assert np.float64(got).view(np.int64) == np.float64(want).view(
            np.int64)
