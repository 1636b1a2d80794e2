"""Period map of the oscillating characteristics.

For momentum p0 in (0, sqrt(2*flat_value)) the orbit launched from (0, p0)
oscillates between -q_turn and +q_turn where g(q_turn) = p0**2/2.  Its
period is

    T(p0) = 4 * int_0^{q_turn} dq / sqrt(p0**2 - 2 g(q)).

The integrand has an inverse-square-root singularity at the turning point;
substituting q = q_turn * sin(theta) removes it, after which composite
Gauss-Legendre converges fast.  An ODE route (integrate and detect the
first upward return to q = 0) serves as an independent cross-check, and a
Richardson extrapolation of half-periods toward p0 = 0 recovers the
infimum, which is the shock-formation time of the step-datum solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NotFound, QuadratureFailure
from .flow import DEFAULT_DT, crossing_events, integrate
from .model import HamiltonianModel

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def turning_point(model: HamiltonianModel, p0: float, tol: float = 1e-12) -> float:
    """Positive solution q_turn of g(q) = p0**2/2, found by bisection.

    Defined for 0 < p0 < sqrt(2*flat_value); the potential is assumed
    strictly increasing on (0, cutoff), which holds for the quartic well.
    """
    p_sep = model.separatrix_momentum
    if not (0.0 < p0 < p_sep):
        raise DomainError(f"turning point needs p0 in (0, {p_sep:.6g}), "
                          f"got {p0}")
    target = 0.5 * p0 * p0
    lo, hi = 0.0, model.cutoff
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if model.g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _period_integrand(model, q_turn, g_turn, gp_turn, theta):
    # The argument is written as a difference of potential values so that
    # it vanishes at the turning point by construction.  Using
    # p0**2 - 2 g(q) instead would inherit the bisection offset of q_turn
    # and shift the singularity off the endpoint, which wrecks refinement.
    # Within rounding distance of the turning point the difference is pure
    # noise, so there the integrand is replaced by its exact limit under
    # the local quadratic model, cos(psi) * sqrt(q_turn / g'(q_turn)) with
    # psi the half-angle distance from pi/2.
    q = q_turn * np.sin(theta)
    arg = 2.0 * (g_turn - model.g(q))
    noise = 64.0 * np.finfo(float).eps * max(g_turn, 1e-300)
    hpsi = 0.5 * (0.5 * math.pi - theta)
    plateau = np.cos(hpsi) * math.sqrt(q_turn / gp_turn)
    ramp = q_turn * np.cos(theta) / np.sqrt(np.maximum(arg, noise))
    return np.where(arg > noise, ramp, plateau)


def _graded_edges(depth: int = 60) -> np.ndarray:
    # Panels accumulate dyadically toward pi/2.  Orbits close to the
    # separatrix linger near their turning point, which shows up as a
    # power-law ramp of the integrand at the right endpoint; halving
    # panels resolve one octave of that ramp each, so a fixed stack down
    # to ~2^-60 covers everything double precision can distinguish.
    b = 0.5 * math.pi
    tail = b - b * 0.5 ** np.arange(1, depth + 1)
    return np.concatenate(([0.0], tail, [b]))


_BASE_EDGES = _graded_edges()


def period_quadrature(model: HamiltonianModel, p0: float,
                      rel_tol: float = 1e-8, max_refine: int = 256) -> float:
    """Period T(p0) by composite Gauss-Legendre on the desingularized form.

    A fixed stack of panels graded toward theta = pi/2 handles the
    near-separatrix ramp; every panel is then split into 1, 2, 4, ...
    uniform pieces until two successive levels agree to ``rel_tol``
    relatively.  Non-convergence raises QuadratureFailure.
    """
    q_turn = turning_point(model, p0)
    g_turn = model.g(q_turn)
    gp_turn = model.g_prime(q_turn)
    widths = np.diff(_BASE_EDGES)
    prev = None
    pieces = 1
    while pieces <= max_refine:
        seg = np.arange(pieces + 1) / pieces
        sub = _BASE_EDGES[:-1, None] + widths[:, None] * seg[None, :]
        lows = sub[:, :-1].ravel()
        highs = sub[:, 1:].ravel()
        mids = 0.5 * (lows + highs)
        halfs = 0.5 * (highs - lows)
        theta = mids[:, None] + halfs[:, None] * _GL_NODES[None, :]
        vals = _period_integrand(model, q_turn, g_turn, gp_turn, theta)
        total = float(np.sum(halfs * (vals @ _GL_WEIGHTS)))
        if prev is not None and abs(total - prev) <= rel_tol * abs(total):
            return 4.0 * total
        prev = total
        pieces *= 2
    raise QuadratureFailure(
        f"period quadrature for p0={p0} did not reach rel_tol={rel_tol} "
        f"within {max_refine}-fold panel refinement")


def period_by_ode(model: HamiltonianModel, p0: float,
                  dt_max: float = DEFAULT_DT, t_cap: float = 64.0) -> float:
    """Period from the integrated orbit: first upward return to q = 0.

    Independent of the quadrature route; used as its cross-check.  The
    search horizon doubles until the return is found or ``t_cap`` is hit.
    """
    p_sep = model.separatrix_momentum
    if not (0.0 < p0 < p_sep):
        raise DomainError(f"period needs p0 in (0, {p_sep:.6g}), got {p0}")
    horizon = 8.0
    while horizon <= t_cap:
        traj = integrate(model, 0.0, p0, horizon, dt_max=dt_max)
        for t in crossing_events(traj, level=0.0):
            if t > dt_max and traj.p_at(t) > 0.0:
                return float(t)
        horizon *= 2.0
    raise NotFound(f"no upward return to q=0 within t={t_cap} for p0={p0}")


@lru_cache(maxsize=64)
def shock_time(model: HamiltonianModel, nodes=(0.04, 0.02, 0.01),
               rel_tol: float = 1e-8) -> float:
    """Infimum of the half-period, by Richardson extrapolation toward p0=0.

    The half-period has an even expansion in p0, so two Richardson levels
    on the halving nodes kill the p0^2 and p0^4 terms.  Tolerances finer
    than about 1e-9 are pointless: the integrand loses that much to
    cancellation near the turning point.  Results are cached, since the
    shooting, point-evaluation and design layers all ask for the same value.
    """
    h = [0.5 * period_quadrature(model, p, rel_tol=rel_tol) for p in nodes]
    r1a = (4.0 * h[1] - h[0]) / 3.0
    r1b = (4.0 * h[2] - h[1]) / 3.0
    return (16.0 * r1b - r1a) / 15.0


@lru_cache(maxsize=4096)
def _invert_half_period_cached(model: HamiltonianModel, t: float,
                               p_tol: float) -> float:
    p_sep = model.separatrix_momentum
    lo = 1e-6 * p_sep
    hi = p_sep * (1.0 - 1e-15)
    if 0.5 * period_quadrature(model, lo) >= t:
        raise DomainError(f"t={t} is at or below the half-period infimum")
    # No guard on the high side: g' vanishes at the cutoff for flat-tail
    # potentials, so the period diverges at the separatrix and every
    # t above the infimum is attained.
    while hi - lo > p_tol:
        mid = 0.5 * (lo + hi)
        if 0.5 * period_quadrature(model, mid) < t:
            lo = mid
        else:
            hi = mid
    # the lower end is returned so callers get a momentum whose orbit has
    # already returned to q=0 by time t (never one that is still out)
    return lo


def invert_half_period(model: HamiltonianModel, t: float,
                       p_tol: float = 1e-9) -> float:
    """Momentum p0 whose orbit first returns to q = 0 at time t.

    Solves T(p0)/2 = t by bisection on the quadrature.  The returned value
    sits on the small side of the root by at most ``p_tol``.
    """
    return _invert_half_period_cached(model, float(t), float(p_tol))


# ===== Tabulation =====

@dataclass(frozen=True)
class PeriodSample:
    """One row of the period table: launch momentum, period, turning point."""

    p0: float
    period: float
    q_max: float


def period_table(model: HamiltonianModel, p0_values,
                 rel_tol: float = 1e-8) -> list[PeriodSample]:
    """Evaluate the period map on a momentum grid."""
    rows = []
    for p0 in p0_values:
        p0 = float(p0)
        rows.append(PeriodSample(p0, period_quadrature(model, p0, rel_tol),
                                 turning_point(model, p0)))
    return rows
