"""Shooting map from (time, position) back to the starting arc.

For t > 0 and x > 0 there is exactly one point on the arc

    ([0, inf) x {2})  union  ({0} x (0, 2])

whose orbit reaches x at time t while staying in q > 0 on (0, t).  The arc
is glued into one scalar parameter s (s <= 0 is the half-line piece, s in
(0, 2) the momentum piece), ordered so that larger s means a smaller
datum.

Energy is conserved along orbits, so the shot needs no march: an orbit of
energy E runs from a to b in the time

    tau(E; a -> b) = int_a^b dq / sqrt(2 (E - g(q))),

and every iterate of the root-find costs one such quadrature.  Outside
free flight each query falls on one of three branches, each with one
arrival-time residual R that increases in one parameter:

* half-line, launch point q0 with E = 2 + g(q0), when the corner orbit
  from (0, 2) has not reached x by time t: R = t - tau(E; q0 -> x);
* escaping, speed v past the cutoff with E = flat + v**2/2, when x lies
  past the cutoff or the separatrix orbit reaches x no earlier than t:
  R = t - tau(E; 0 -> x);
* oscillating, turning point q_turn in (x, cutoff) with E = g(q_turn),
  measured by its depth below the cutoff: the orbit passes x at tau_out
  on its way out and at tau_ret on its way back, and
  R = min(t - tau_out, tau_ret - t).  Orbits that are back at q = 0 by
  time t have tau_ret < t, so positivity needs no separate check and the
  branch reaches all the way to x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotFound
from .model import HamiltonianModel
from .period import (_flight_plan, _flight_time, _illinois, _passage_times,
                     _planned_time)

# Not called here; perfbench/tracing.py wraps these names on this module.
from .flow import terminal_batch, terminal_state  # noqa: F401
from .period import invert_half_period, shock_time  # noqa: F401

DEFAULT_SHOOT_TOL = 1e-9

# A shot that misses shoot_tol and also its arrival time by more than
# this share of t is not rounding in the quadrature but a shot double
# precision cannot represent.
_LOST = 1e-6


# ===== The glued arc =====

def arc_decode(s):
    """Arc parameters s -> data (q0, p0), elementwise on an array.

    s <= 0 encodes the point (-s, 2) on the half-line piece; s in (0, 2)
    encodes (0, 2 - s) on the momentum piece; s = 0 is the corner (0, 2).
    Larger s means a smaller datum in the orbit-comparison order.
    """
    if not np.all(np.asarray(s) < 2.0):
        raise DomainError(f"arc parameters must be < 2, got {s}")
    return np.where(s <= 0.0, -s, 0.0), np.where(s <= 0.0, 2.0, 2.0 - s)


def arc_encode(q0, p0):
    """Datum (q0, p0) on the arc -> arc parameter s, elementwise; the
    inverse of :func:`arc_decode`."""
    return np.where(q0 > 0.0, -q0, 2.0 - p0)


@dataclass(frozen=True)
class DeltaResult:
    """Converged shooting datum for one (t, x) query.

    ``residual`` is the arrival-time miss of the accepted orbit times its
    speed at x, a length with the sign of flowQ(t, q0, p0) - x; callers
    that care should compare it with their tolerance.  ``p_end`` is the
    momentum of the accepted orbit at x, on its energy shell.
    """

    q0: float
    p0: float
    residual: float
    p_end: float


# ===== Shooting =====

def delta(model: HamiltonianModel, t: float, x: float,
          shoot_tol: float = DEFAULT_SHOOT_TOL) -> DeltaResult:
    """Unique arc datum whose orbit reaches x at time t through q > 0.

    The one-point case of :func:`delta_batch`.
    """
    q0, p0, res, p_end = delta_batch(model, t, [x], shoot_tol)
    return DeltaResult(q0=float(q0[0]), p0=float(p0[0]),
                       residual=float(res[0]), p_end=float(p_end[0]))


# Infinite and undefined intermediates (a bracket end at the separatrix,
# an underflowing potential gap) are part of the algorithm: the root-find
# bisects away from them, and a shot that misses its arrival time by more
# than rounding raises NotFound below.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def delta_batch(model: HamiltonianModel, t: float, xs: np.ndarray,
                shoot_tol: float = DEFAULT_SHOOT_TOL):
    """Shooting data for many positions at one time.

    Returns (q0, p0, residual, p_end) arrays aligned with ``xs``, where
    p_end is the momentum of the accepted orbit at x.  Far-field points
    that never feel the potential get the exact free-flight datum
    (p_end = 2); the rest share one root-find per branch (see the module
    docstring), every iterate one arrival-time quadrature; nothing is
    marched.  Raises DomainError unless t is finite and positive and every
    x is positive, and NotFound where double precision cannot represent the
    shot (on the quartic well, inside the well past t of about 1e100).
    """
    xs = np.asarray(xs, dtype=float)
    if not (0.0 < t < np.inf):
        raise DomainError(f"delta needs a finite t > 0, got {t}")
    if not np.all(xs > 0.0):
        raise DomainError(f"delta needs x > 0 everywhere, got {xs}")

    q0_out = xs - 2.0 * t
    p0_out = np.full_like(xs, 2.0)
    res_out = np.zeros_like(xs)
    p_end_out = np.full_like(xs, 2.0)

    shoot = np.flatnonzero(~model.flies_free(q0_out, p0_out))
    x = xs[shoot]
    c, flat = model.cutoff, model.flat_value
    rows = np.arange(x.size)
    # flights from 0 to x: the corner and separatrix orbits and every
    # escaping iterate share one plan
    plan = _flight_plan(model, 0.0, x)
    v_corner = np.full_like(x, np.sqrt(2.0 * (2.0 - flat)))
    tau_corner = _planned_time(plan, v_corner, rows)
    tau_sep = np.full_like(x, np.inf)
    inside = (tau_corner <= t) & (x < c)
    tau_sep[inside] = _planned_time(plan, np.zeros_like(x[inside]),
                                     rows[inside])
    half = tau_corner > t
    osc = tau_sep < t
    esc = ~half & ~osc

    # the potential's share of the speed at x, sqrt(2 (flat - g(x)))
    well = np.sqrt(2.0 * model.below_flat(np.maximum(c - x, 0.0)))
    lost = np.zeros_like(xs, dtype=bool)

    def solve(mask, residual, lo, hi, f_lo, f_hi):
        force = model.force(x[mask])
        z, f, p, miss = _illinois(residual, lo, hi, f_lo, f_hi, force,
                                  shoot_tol)
        res_out[shoot[mask]] = f * np.abs(p)
        p_end_out[shoot[mask]] = p
        lost[shoot[mask]] = ~((miss <= shoot_tol) | (np.abs(f) <= _LOST * t))
        return z

    if np.any(half):
        xh, well_h = x[half], well[half]

        def launch_time(q0, k):
            v = np.sqrt(2.0 * (2.0 - flat + model.g(q0)))
            return (t - _flight_time(model, v, q0, xh[k]),
                    np.hypot(v, well_h[k]))

        q0_out[shoot[half]] = solve(
            half, launch_time, np.zeros_like(xh), np.minimum(xh, c),
            t - tau_corner[half], t - np.maximum(xh - c, 0.0) / 2.0)

    if np.any(esc):
        xe, rows_e, well_e = x[esc], rows[esc], well[esc]

        def escape_time(v, k):
            return (t - _planned_time(plan, v, rows_e[k]),
                    np.hypot(v, well_e[k]))

        # past the cutoff tau > (x - c) / v, so v = (x - c) / t is early
        v_lo = np.maximum(xe - c, 0.0) / t
        f_lo = t - tau_sep[esc]
        far = np.flatnonzero(xe > c)
        f_lo[far] = escape_time(v_lo[far], far)[0]
        v = solve(esc, escape_time, v_lo, v_corner[esc], f_lo,
                  t - tau_corner[esc])
        q0_out[shoot[esc]] = 0.0
        p0_out[shoot[esc]] = np.sqrt(2.0 * flat + v * v)

    if np.any(osc):
        xo = x[osc]

        # the unknown is minus the turning point's depth below the cutoff,
        # which keeps its relative precision as orbits near the separatrix
        def passage_miss(z, k):
            d_x, depth = c - xo[k], -z
            t_out, t_ret = _passage_times(model, depth, xo[k])
            momentum = np.sqrt(2.0 * (d_x + z)
                               * model.chord_slope(d_x, depth))
            early, late = t - t_out, t_ret - t
            return np.minimum(early, late), np.copysign(momentum, late - early)

        z_x = xo - c
        z = solve(osc, passage_miss, z_x, np.zeros_like(xo),
                  passage_miss(z_x, np.arange(xo.size))[0], t - tau_sep[osc])
        q0_out[shoot[osc]] = 0.0
        p0_out[shoot[osc]] = np.sqrt(2.0 * (flat - model.below_flat(-z)))
    if np.any(lost):
        raise NotFound(f"no shot reaches x={xs[lost][0]} at t={t}: the "
                       f"arrival time is missed by more than {_LOST:g} t")
    return q0_out, p0_out, res_out, p_end_out

