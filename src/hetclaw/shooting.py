"""Shooting map from (time, position) back to the starting arc.

For t > 0 and x > 0 there is exactly one point on the arc

    ([0, inf) x {2})  union  ({0} x (0, 2])

whose orbit reaches x at time t while staying in q > 0 on (0, t).  The arc
is glued into one scalar parameter s (s <= 0 is the half-line piece, s in
(0, 2) the momentum piece), ordered so that larger s means a smaller
datum.  Along that order the terminal position flowQ(t, arc(s)) decreases
strictly, so a single bisection on s serves both pieces.

The positivity constraint is not checked after the fact: when a shock
exists at time t, the momentum piece of the bracket is cut at the first
momentum whose orbit has not yet returned to q = 0, which keeps the
shooting residual sign-definite below the root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PositivityViolation
from .flow import DEFAULT_DT, terminal_batch, terminal_state
from .model import HamiltonianModel
from .period import invert_half_period, shock_time

DEFAULT_SHOOT_TOL = 1e-9

# Arc-parameter resolution target and iteration cap for the bisection.
ARC_TOL = 1e-12
MAX_BISECTIONS = 60

# Smallest momentum kept on the arc when no shock restricts the bracket,
# and the safety margin added above the first returning momentum when one
# does (the half-period inversion itself is accurate to 1e-9).
_P_FLOOR = 1e-9
_P_MARGIN = 2e-9


# ===== The glued arc =====

def arc_decode(s):
    """Arc parameter s -> datum (q0, p0), for one float or elementwise.

    s <= 0 encodes the point (-s, 2) on the half-line piece; s in (0, 2)
    encodes (0, 2 - s) on the momentum piece; s = 0 is the corner (0, 2).
    Larger s means a smaller datum in the orbit-comparison order.
    """
    if not np.all(np.asarray(s) < 2.0):
        raise DomainError(f"arc parameters must be < 2, got {s}")
    if isinstance(s, np.ndarray):
        return np.where(s <= 0.0, -s, 0.0), np.where(s <= 0.0, 2.0, 2.0 - s)
    s = float(s)
    return (-s, 2.0) if s <= 0.0 else (0.0, 2.0 - s)


def free_flight(model: HamiltonianModel, t: float, x):
    """Whether the orbit reaching x at time t never leaves the flat tail.

    There the datum is exactly (x - 2t, 2) and the solution value is 2.
    Works elementwise on arrays of positions.
    """
    return x - 2.0 * t >= model.cutoff


@dataclass(frozen=True)
class DeltaResult:
    """Converged shooting datum for one (t, x) query.

    ``residual`` is flowQ(t, q0, p0) - x at the accepted parameter.  In a
    narrow band around the separatrix image (x near the position of the
    orbit launched at the critical momentum) the terminal position is so
    sensitive to the datum that the residual may exceed the requested
    tolerance; callers that care should inspect it.  ``p_end`` is the
    terminal momentum of the accepted orbit.
    """

    q0: float
    p0: float
    residual: float
    p_end: float


# ===== Bracket construction =====

def _momentum_floor(model: HamiltonianModel, t: float) -> float:
    """Smallest arc momentum whose orbit stays in q > 0 on (0, t)."""
    if model.separatrix_momentum <= 0.0:
        return _P_FLOOR
    if t <= shock_time(model):
        return _P_FLOOR
    try:
        return invert_half_period(model, t) + _P_MARGIN
    except DomainError:
        # t is inside the inversion's blind spot just above the infimum
        return _P_FLOOR


# ===== Shooting =====

# Below this many shots a loop of scalar marches beats the batched march,
# whose per-step cost is numpy dispatch until a couple dozen orbits.
_BATCH_MIN = 24


def _bisect(march, t, xs, lo, hi, shoot_tol):
    """Bisect the arc brackets [lo, hi] of all targets ``xs`` at once.

    ``march(q0, p0)`` maps data arrays to (terminal q, terminal p,
    running min of q).  Returns the (s, residual, terminal p) arrays of
    the best iterates and raises PositivityViolation if an accepted orbit
    dips below q = 0.
    """
    best_s = lo.copy()
    best_f = np.full_like(xs, np.inf)
    best_p = np.zeros_like(xs)
    best_minq = np.zeros_like(xs)
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        q_end, p_end, min_q = march(*arc_decode(mid))
        f = q_end - xs
        better = np.abs(f) < np.abs(best_f)
        best_s[better] = mid[better]
        best_f[better] = f[better]
        best_p[better] = p_end[better]
        best_minq[better] = min_q[better]
        above = f > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
        if (np.max(hi - lo) <= ARC_TOL
                or np.max(np.abs(f)) <= 0.1 * shoot_tol):
            break
    worst = int(np.argmin(best_minq))
    if best_minq[worst] < -10.0 * shoot_tol:
        raise PositivityViolation(
            f"orbit for t={t}, x={xs[worst]} dips to "
            f"q={best_minq[worst]} before t")
    return best_s, best_f, best_p


def delta(model: HamiltonianModel, t: float, x: float,
          shoot_tol: float = DEFAULT_SHOOT_TOL,
          dt_max: float = DEFAULT_DT) -> DeltaResult:
    """Unique arc datum whose orbit reaches x at time t through q > 0.

    The one-point case of :func:`delta_batch`.  Raises DomainError for
    t <= 0 or x <= 0 and PositivityViolation if the accepted orbit dips
    below q = 0 on (0, t).
    """
    q0, p0, res, p_end = delta_batch(model, t, [x], shoot_tol, dt_max)
    return DeltaResult(q0=float(q0[0]), p0=float(p0[0]),
                       residual=float(res[0]), p_end=float(p_end[0]))


def delta_batch(model: HamiltonianModel, t: float, xs: np.ndarray,
                shoot_tol: float = DEFAULT_SHOOT_TOL,
                dt_max: float = DEFAULT_DT):
    """Shooting data for many positions at one time.

    Returns (q0, p0, residual, p_end) arrays aligned with ``xs``, where
    p_end is the terminal momentum of the accepted orbit.  Far-field
    points that never feel the potential get the exact free-flight datum
    (p_end = 2); the rest share one bisection on the bracket
    [-x, 2 - momentum floor].  Next to x = 0 the floor leaves a thin
    sliver the bracket cannot straddle; there the bisection settles on
    the bracket's upper end and the miss shows up in ``residual``.
    """
    xs = np.asarray(xs, dtype=float)
    if not (t > 0.0):
        raise DomainError(f"delta needs t > 0, got {t}")
    if not np.all(xs > 0.0):
        raise DomainError(f"delta needs x > 0 everywhere, got {xs}")

    q0_out = np.empty_like(xs)
    p0_out = np.empty_like(xs)
    res_out = np.zeros_like(xs)
    p_end_out = np.empty_like(xs)

    free = free_flight(model, t, xs)
    q0_out[free] = xs[free] - 2.0 * t
    p0_out[free] = 2.0
    p_end_out[free] = 2.0

    shoot = ~free
    if np.any(shoot):
        x_s = xs[shoot]
        if x_s.size < _BATCH_MIN:
            def march(q0, p0):
                return np.array([terminal_state(model, float(a), float(b),
                                                t, dt_max)
                                 for a, b in zip(q0, p0)]).T
        else:
            def march(q0, p0):
                return terminal_batch(model, q0, p0, t, dt_max)

        s, res, p_end = _bisect(
            march, t, x_s, -x_s,
            np.full_like(x_s, 2.0 - _momentum_floor(model, t)), shoot_tol)
        q0_out[shoot], p0_out[shoot] = arc_decode(s)
        res_out[shoot] = res
        p_end_out[shoot] = p_end
    return q0_out, p0_out, res_out, p_end_out


# ===== Continuity scan =====

@dataclass(frozen=True)
class ContinuityReport:
    """Discrete modulus of continuity of the shooting map on a grid.

    ``s_values`` holds the arc parameter; jumps between grid neighbors
    are compared against 10x the grid step in the same direction.
    """

    t_values: np.ndarray
    x_values: np.ndarray
    s_values: np.ndarray
    p0_values: np.ndarray
    max_jump_t: float
    max_jump_x: float
    threshold_t: float
    threshold_x: float
    flags: tuple

    @property
    def ok(self) -> bool:
        return not self.flags


def delta_continuity_scan(model: HamiltonianModel, t_range, x_range,
                          n: int, dt_max: float = 4e-3) -> ContinuityReport:
    """Scan delta over a (t, x) rectangle and flag continuity breaks.

    A neighbor-to-neighbor jump of the arc parameter larger than 10x the
    grid step in that direction is flagged.  A degenerate rectangle (one
    point) yields an empty report.
    """
    t0, t1 = map(float, t_range)
    x0, x1 = map(float, x_range)
    n_t = n if t1 > t0 else 1
    n_x = n if x1 > x0 else 1
    t_vals = np.linspace(t0, t1, n_t)
    x_vals = np.linspace(x0, x1, n_x)

    s_grid = np.empty((n_t, n_x))
    p_grid = np.empty((n_t, n_x))
    for i, t in enumerate(t_vals):
        q0, p0, _, _ = delta_batch(model, float(t), x_vals, dt_max=dt_max)
        s_grid[i] = np.where(q0 > 0.0, -q0, 2.0 - p0)
        p_grid[i] = p0

    step_t = (t1 - t0) / (n_t - 1) if n_t > 1 else 0.0
    step_x = (x1 - x0) / (n_x - 1) if n_x > 1 else 0.0
    jumps_t = np.abs(np.diff(s_grid, axis=0))
    jumps_x = np.abs(np.diff(s_grid, axis=1))
    thr_t = 10.0 * step_t
    thr_x = 10.0 * step_x

    flags = []
    if jumps_t.size:
        for i, j in zip(*np.nonzero(jumps_t > thr_t)):
            flags.append(("t", int(i), int(j), float(jumps_t[i, j])))
    if jumps_x.size:
        for i, j in zip(*np.nonzero(jumps_x > thr_x)):
            flags.append(("x", int(i), int(j), float(jumps_x[i, j])))

    return ContinuityReport(
        t_values=t_vals, x_values=x_vals, s_values=s_grid,
        p0_values=p_grid,
        max_jump_t=float(np.max(jumps_t)) if jumps_t.size else 0.0,
        max_jump_x=float(np.max(jumps_x)) if jumps_x.size else 0.0,
        threshold_t=thr_t, threshold_x=thr_x, flags=tuple(flags))
