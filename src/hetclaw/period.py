"""Period map of the oscillating characteristics.

For momentum p0 in (0, sqrt(2*flat_value)) the orbit launched from (0, p0)
oscillates between -q_turn and +q_turn where g(q_turn) = p0**2/2.  Its
period is

    T(p0) = 4 * int_0^{q_turn} dq / sqrt(p0**2 - 2 g(q)).

Orbits are labelled by the depth of q_turn below the cutoff, which keeps
its relative precision as they near the separatrix.  Substituting
q = q_turn * sin(theta) and measuring the half-angle from pi/2 makes the
integrand smooth through the turning point (see ``_passage_times``);
Gauss-Legendre on panels graded toward pi/2 then integrates it to
rounding.  Both arrival-time integrals of the shooting map live here:
the passage times of an oscillating orbit (``_passage_times``) and the
flight time of an orbit above the flat level (``_flight_time``), whose
panels are graded toward its arrival end.  A flight between fixed ends
is planned once (``_flight_plan``), so a root-find over its speed pays
only for the speed.  An ODE route (integrate and
detect the first upward return to q = 0) serves as an independent
cross-check, and a Richardson extrapolation of half-periods toward
p0 = 0 recovers the infimum, which is the shock-formation time of the
step-datum solution.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, NotFound
from .flow import DEFAULT_DT, crossing_events, integrate
from .model import HamiltonianModel

# Gauss-Legendre nodes per graded panel.  Each panel spans one octave of
# the distance to the graded end, where the integrands are smooth: 16
# nodes reach rounding on orbits down to 1e-3 from the separatrix.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Panel edges on [0, 1] that halve toward 0: [0, 2^-60, ..., 1/2, 1].
# Orbits close to the separatrix linger near their turning point, which
# shows up as a power-law ramp of the integrand at the graded end; each
# panel resolves one octave of that ramp, so a fixed stack down to ~2^-60
# covers everything double precision can distinguish.
_OCTAVES = np.concatenate(([0.0], 0.5 ** np.arange(60, -1, -1)))

# The edges pi/2 (1 - 2^-k) for k >= 54 round to pi/2, so panels 54-60
# have no width.  They stay: their nodes sit on the turning point, where a
# g' that underflows to 0 gives the NaN that refuses the orbit (without
# them T/2 is inf, and invert_half_period returns p_sep at t = 1e140), and
# the rounding of the (62, 16) product is pinned (with 54 panels a shot at
# t = 1e8 misses shoot_tol by one ulp of t).
_BASE_EDGES = 0.5 * math.pi - 0.5 * math.pi * _OCTAVES[::-1]


def _panel_rows(lo, hi):
    """Per panel [lo, hi] of theta: its half width, then the sines and the
    cosines of its nodes' half-angles psi from pi/2, in one row of 33."""
    half = 0.5 * (hi - lo)
    theta = (lo + half)[..., None] + half[..., None] * _GL_NODES
    hpsi = 0.5 * (0.5 * np.pi - theta)
    return np.concatenate([half[..., None], np.sin(hpsi), np.cos(hpsi)],
                          axis=-1)


# The rows of the base panels, which no passage changes: a call computes
# fresh ones only for the two halves of the panel that theta_x splits.
_BASE_ROWS = _panel_rows(_BASE_EDGES[:-1], _BASE_EDGES[1:])
_PANELS = np.arange(_BASE_ROWS.shape[0] + 1)
# a split panel's edges E[m], theta_x, E[m + 1] from E[m + (0, 0, 1)]
_SPLIT_EDGES = np.array([0, 0, 1])

# Gauss-Legendre on [0, 1] in the octave panels, in the distance r from
# the arrival end of a flight.  Near the separatrix the integrand peaks
# there on the scale eps**(1/4), and each panel resolves one octave of
# that peak, as the period panels do toward pi/2.
_R_HALF = 0.5 * np.diff(_OCTAVES)
_R_NODES = ((_OCTAVES[:-1] + _R_HALF)[:, None]
            + _R_HALF[:, None] * _GL_NODES).ravel()
_R_WEIGHTS = (_R_HALF[:, None] * _GL_WEIGHTS).ravel()

# Positions per quadrature block: each temporary stays near 160 kB, in cache.
_BLOCK = 8

# Cap on residual evaluations per root.  The bracket at least halves every
# fourth evaluation: three steps that together fail to halve it are
# followed by a bisection.  A unit bracket around a root of normal
# magnitude, |root| >= 2^-1022, is ulps wide (4 eps |root| >= 2^-1072)
# after 1,072 halvings, so the cap clears that worst case; only a root
# that double precision cannot bracket reaches it, and raises NotFound.
_MAX_ITERATIONS = 4 * 1074


# ===== Arrival-time quadrature =====

def _passage_times(model: HamiltonianModel, depth, x):
    """(tau_out, tau_ret): when the orbit turning at depth ``depth`` below
    the cutoff passes x on its way out and on its way back.

    With q = q_turn sin(theta), tau_out integrates over [0, theta_x] and
    the quarter period over [0, pi/2]; tau_ret is half the period minus
    tau_out.  Both come from one pass over the panels graded toward pi/2,
    split at theta_x.  In the half-angle psi from pi/2,
    q_turn - q = 2 q_turn sin(psi)^2 and cos(theta) = 2 sin(psi) cos(psi),
    so the integrand dq / sqrt(2 (g(q_turn) - g(q))) is
    cos(psi) sqrt(q_turn / chord slope) and stays smooth through the
    turning point.
    """
    q_turn = model.cutoff - depth
    theta_x = np.arctan2(x, np.sqrt(np.maximum(model.cutoff - x - depth, 0.0)
                                    * (q_turn + x)))
    # the base panel m that theta_x splits, E[m] <= theta_x < E[m + 1]
    # (the last one at theta_x = pi/2), and its halves' rows
    split = np.searchsorted(_BASE_EDGES[1:-1], theta_x, side="right")
    edges = _BASE_EDGES[split[:, None] + _SPLIT_EDGES]
    edges[:, 1] = theta_x
    halves = _panel_rows(edges[:, :-1], edges[:, 1:])
    t_out = np.empty_like(depth)
    quarter = np.empty_like(depth)
    for k in range(0, depth.size, _BLOCK):
        blk = slice(k, k + _BLOCK)
        # the panels in order, the split one replaced by its halves
        at = split[blk]
        rows = np.empty((at.size, _PANELS.size, _BASE_ROWS.shape[1]))
        for i, m in enumerate(at.tolist()):
            rows[i, :m] = _BASE_ROWS[:m]
            rows[i, m:m + 2] = halves[k + i]
            rows[i, m + 2:] = _BASE_ROWS[m + 1:]
        half, sin_h, cos_h = rows[..., 0], rows[..., 1:17], rows[..., 17:]
        qt = q_turn[blk, None, None]
        slope = model.chord_slope(depth[blk, None, None]
                                  + 2.0 * qt * sin_h * sin_h,
                                  depth[blk, None, None])
        vals = cos_h * np.sqrt(qt / slope)
        panels = half * (vals @ _GL_WEIGHTS)
        quarter[blk] = panels.sum(axis=1)
        # tau_out takes the panels up to m's lower half; the upper half
        # ends past theta_x, or has no width at theta_x = pi/2
        t_out[blk] = np.where(_PANELS <= at[:, None], panels,
                              0.0).sum(axis=1)
    return t_out, 2.0 * quarter - t_out


def _flight_plan(model: HamiltonianModel, a, b):
    """The parts of tau(E; a -> b) that do not depend on E, for 0 <= a <= b
    with b an array: per entry the width inside the cutoff, the row of
    2 (flat - g) at its nodes and the flat tail past the cutoff.  Several
    flights from one start ``a`` share a row per distinct end, so from 0
    every b past the cutoff shares one."""
    c = model.cutoff
    hi = np.minimum(b, c)
    if hi.size > 1 and np.ndim(a) == 0:
        hi, row = np.unique(hi, return_inverse=True)
    else:
        row = np.arange(hi.size)
    width = hi - np.minimum(a, c)
    gap = np.empty((width.size, _R_NODES.size))
    for k in range(0, width.size, _BLOCK):
        blk = slice(k, k + _BLOCK)
        d = (c - hi[blk, None]) + width[blk, None] * _R_NODES
        gap[blk] = 2.0 * model.below_flat(d)
    return width[row], gap, row, np.maximum(b, c) - np.maximum(a, c)


def _planned_time(plan, v, rows):
    """tau(E; a -> b) with E = flat + v**2/2 for the entries ``rows`` of a
    flight plan, one speed ``v`` >= 0 past the cutoff each.  The part
    inside the cutoff is integrated on panels graded toward its upper
    end; the flat part is crossed at speed v."""
    width, gap, row, tail = plan
    width, row, tail = width[rows], row[rows], tail[rows]
    inner = np.empty_like(v)
    for k in range(0, v.size, _BLOCK):
        blk = slice(k, k + _BLOCK)
        speed = np.sqrt(v[blk, None] ** 2 + gap[row[blk]])
        # row by row, so an entry's bits do not depend on its block
        inner[blk] = width[blk] * np.vecdot(1.0 / speed, _R_WEIGHTS)
    return inner + np.where(tail > 0.0, tail / v, 0.0)


def _flight_time(model: HamiltonianModel, v, a, b):
    """tau(E; a -> b) for arrays with 0 <= a <= b and E = flat + v**2/2,
    ``v`` >= 0 being the speed past the cutoff: one plan, evaluated."""
    return _planned_time(_flight_plan(model, a, b), v, np.arange(v.size))


def _half_period(model: HamiltonianModel, depth: float) -> float:
    """T/2 of the orbit turning at ``depth`` below the cutoff: the time it
    takes to come back to x = 0."""
    return float(_passage_times(model, np.array([depth]), np.zeros(1))[1][0])


# ===== Root-find =====

def _illinois(residual, lo, hi, f_lo, f_hi, force, shoot_tol):
    """Roots of increasing residuals on the brackets [lo, hi], all at once.

    ``residual(z, idx)`` returns the arrival-time miss R and the signed
    momentum p at the target for the entries ``idx`` at parameters z;
    f_lo <= 0 <= f_hi are the residuals at the bracket ends (infinite
    where they are unbounded).  Illinois regula falsi with a bisection
    guard: three steps that together do not halve the bracket are
    followed by a bisection, as is any step from an infinite end and any
    secant step that would leave the bracket.  A lone slow step is not:
    the Illinois halving of the kept end's residual already pulls the
    next secant across the root.  An entry stops once its phase-space
    miss |R| * |(p, force)|, with force = -g'(x), drops to 0.1 shoot_tol
    (so the momentum is converged at turning points too), its residual is
    0, or its bracket is at most 4 ulps of its larger end wide.  Returns
    (z, R, p, miss) at the iterate where each entry stopped: no earlier
    one met the miss test, and a stop by width is within 4 ulps of the
    sign change, a jump's too.  Raises NotFound if an entry has not
    stopped after ``_MAX_ITERATIONS`` evaluations.

    The state of the active entries is kept compact, aligned with ``idx``,
    in one local array per quantity; an entry's stopping iterate is
    written out when it retires.
    """
    n = lo.size
    z_out, f_out, p_out, miss_out = (np.empty(n) for _ in range(4))
    ulps = 4.0 * np.finfo(float).eps
    idx = np.arange(n)
    # per active entry: the bracket, its end residuals and the force; the
    # factors, 0.5 or 1.0, that halve an end's residual where the other
    # end moved last; the bracket's width before the last step and the
    # one before it; whether to bisect
    a, b, fa, fb, frc = lo, hi, f_lo, f_hi, force
    keep_a, keep_b = np.ones(n), np.ones(n)
    w1, w2 = np.full(n, np.inf), np.full(n, np.inf)
    bisect = np.zeros(n, dtype=bool)
    for _ in range(_MAX_ITERATIONS):
        if idx.size == 0:
            break
        w, df = b - a, fb - fa
        z = a - fa * (w / df)
        z = np.where(bisect | np.isinf(df) | ~((z >= a) & (z <= b)),
                     0.5 * (a + b), z)
        f, p = residual(z, idx)
        miss = np.abs(f) * np.hypot(p, frc)
        up = f > 0.0
        # Illinois: an end kept twice in a row has its residual halved
        fa = np.where(up, fa * keep_a, f)
        fb = np.where(up, f, fb * keep_b)
        a, b = np.where(up, a, z), np.where(up, z, b)
        keep_a, keep_b = np.where(up, 0.5, 1.0), np.where(up, 1.0, 0.5)
        # bisect where the last three steps together did not halve it
        width = b - a
        bisect = width > 0.5 * w2
        w1, w2 = w, w1
        done = ((miss <= 0.1 * shoot_tol) | (f == 0.0)
                | (width <= ulps * np.maximum(np.abs(a), np.abs(b))))
        if done.any():
            gone = idx[done]
            z_out[gone], f_out[gone] = z[done], f[done]
            p_out[gone], miss_out[gone] = p[done], miss[done]
            stay = ~done
            (idx, a, b, fa, fb, frc, keep_a, keep_b, w1, w2, bisect) = (
                v[stay] for v in (idx, a, b, fa, fb, frc, keep_a, keep_b,
                                  w1, w2, bisect))
    if idx.size:
        raise NotFound(f"{idx.size} of {n} roots still unresolved after "
                       f"{_MAX_ITERATIONS} residual evaluations")
    return z_out, f_out, p_out, miss_out


def _solve(residual, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of one increasing residual of z alone, to the last ulp it
    can resolve.  Raises NotFound where the residual is not a number,
    since its sign decides which end of the bracket moves."""
    def checked(z, k):
        f = residual(z)
        if np.isnan(f[0]):
            raise NotFound(f"the residual is not a number at z={z[0]}")
        return f, np.ones_like(z)

    z = _illinois(checked, np.array([lo]), np.array([hi]), np.array([f_lo]),
                  np.array([f_hi]), np.zeros(1), 0.0)[0]
    return float(z[0])


# ===== Period map =====

def _depth(model: HamiltonianModel, p0: float) -> float:
    """Depth d below the cutoff of the turning point of the orbit launched
    from (0, p0): the root of below_flat(d) = flat - p0**2/2."""
    p_sep = model.separatrix_momentum
    if not (0.0 < p0 < p_sep):
        raise DomainError(f"period needs p0 in (0, {p_sep:.6g}), got {p0}")
    target = model.flat_value - 0.5 * p0 * p0
    depth = _solve(lambda d: model.below_flat(d) - target, 0.0,
                   model.cutoff, -target, 0.5 * p0 * p0)
    # The depth carries an absolute rounding of eps * cutoff, and the
    # integrand's chord slopes inherit it relative to q_turn: a turning
    # point closer to the origin than sqrt(eps) * cutoff leaves the
    # period with less than half its digits.
    if model.cutoff - depth < math.sqrt(np.finfo(float).eps) * model.cutoff:
        raise DomainError(f"p0={p0} is too small to resolve its turning "
                          f"point below the cutoff")
    return depth


def turning_point(model: HamiltonianModel, p0: float) -> float:
    """Positive solution q_turn of g(q) = p0**2/2.

    Defined for 0 < p0 < sqrt(2*flat_value); the potential is assumed
    strictly increasing on (0, cutoff), which holds for the quartic well.
    Near the separatrix q_turn is read off its depth below the cutoff,
    which keeps its precision there.  Read that way, a turning point in
    the lower half of the well would carry the rounding of
    flat - p0**2/2 divided by g'(q_turn), so there g(q) = p0**2/2 is
    solved in q instead: both routes are exact to rounding.
    """
    q_turn = model.cutoff - _depth(model, p0)
    if q_turn < 0.5 * model.cutoff:
        level = 0.5 * p0 * p0
        q_turn = _solve(lambda q: model.g(q) - level, 0.0, model.cutoff,
                        -level, model.flat_value - level)
    return q_turn


def period_quadrature(model: HamiltonianModel, p0: float) -> float:
    """Period T(p0): twice the return time to x = 0 of the orbit launched
    from (0, p0), by the graded Gauss-Legendre quadrature.

    Raises DomainError outside (0, sqrt(2*flat_value)) and where the
    amplitude is too small to resolve (p0 below about 4e-8 on the
    quartic well).
    """
    return 2.0 * _half_period(model, _depth(model, p0))


def period_by_ode(model: HamiltonianModel, p0: float) -> float:
    """Period from the integrated orbit: first upward return to q = 0.

    Independent of the quadrature route; used as its cross-check.  The
    search horizon doubles from 8 to at most 64 until the return is found.
    """
    p_sep = model.separatrix_momentum
    if not (0.0 < p0 < p_sep):
        raise DomainError(f"period needs p0 in (0, {p_sep:.6g}), got {p0}")
    horizon = 8.0
    while horizon <= 64.0:
        traj = integrate(model, 0.0, p0, horizon)
        for t in crossing_events(traj, level=0.0):
            # an upward return comes from below: the sample before is < 0
            before = traj.q[np.searchsorted(traj.times, t) - 1]
            if t > DEFAULT_DT and before < 0.0:
                return float(t)
        horizon *= 2.0
    raise NotFound(f"no upward return to q=0 within t=64.0 for p0={p0}")


@lru_cache(maxsize=64)
def shock_time(model: HamiltonianModel) -> float:
    """Infimum of the half-period, by Richardson extrapolation toward p0=0.

    The half-period has an even expansion in p0, so two Richardson levels
    on the halving nodes 0.04, 0.02, 0.01 kill the p0^2 and p0^4 terms.
    Results are cached per model object, since every half-period
    inversion and every tagged profile slice asks for it again; shooting
    never does.
    """
    h = [0.5 * period_quadrature(model, p) for p in (0.04, 0.02, 0.01)]
    r1a = (4.0 * h[1] - h[0]) / 3.0
    r1b = (4.0 * h[2] - h[1]) / 3.0
    return (16.0 * r1b - r1a) / 15.0


# A turning point too close to the separatrix overflows the quadrature;
# _solve refuses the NaN that follows.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def invert_half_period(model: HamiltonianModel, t: float) -> float:
    """Momentum p0 whose orbit first returns to q = 0 at time t.

    Solves T/2 = t by Illinois regula falsi on minus the turning point's
    depth, which keeps its relative precision as the root nears the
    separatrix.  The bracket runs from the rest point, whose half-period
    is the infimum ``shock_time``, to the separatrix, where it diverges;
    every finite t above the infimum is attained.  Neither end is
    evaluated: the first step bisects away from the infinite one.  Raises
    NotFound where the turning point is too close to the separatrix for
    the quadrature (on the quartic well, t past about 1e138).
    """
    t_shock = shock_time(model)
    if not (t_shock < t < math.inf):
        raise DomainError(f"t={t} is not a finite time above the "
                          f"half-period infimum {t_shock:.6g}")
    z = _solve(lambda z: _passage_times(model, -z, np.zeros_like(z))[1] - t,
               -model.cutoff, 0.0, t_shock - t, math.inf)
    return math.sqrt(2.0 * (model.flat_value - model.below_flat(-z)))
