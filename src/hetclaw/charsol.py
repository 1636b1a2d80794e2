"""Semi-analytic solution built from the shooting map.

For x > 0 the solution value at (t, x) is the terminal momentum of the
unique arc orbit that reaches x at time t; for x < 0 it is the odd
reflection of the value at (t, -x).  This gives the entropy solution of
the step datum (2 for x > 0, -2 for x < 0) everywhere off the standing
shock at x = 0.

The module also evaluates the stationary limit profile
-sgn(x) * sqrt(2 (flat - g(x))), and it can rasterize the solution onto
a space-time grid by marching one batch of arc orbits forward instead of
shooting per grid node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _count
from .flow import _record_budget, integrate_batch
from .model import HamiltonianModel
from .shooting import arc_decode, arc_encode, delta, delta_batch

# Not called here; perfbench/tracing.py wraps these names on this module.
from .flow import terminal_batch, terminal_state  # noqa: F401
from .period import invert_half_period, shock_time  # noqa: F401


@dataclass(frozen=True)
class SolutionSample:
    """One point sample of the semi-analytic solution.

    ``p0`` is the momentum component of the arc datum used for the
    shot at |x|, which x and -x share.
    """

    t: float
    x: float
    u: float
    p0: float


# ===== Point evaluation =====

def eval_solution(model: HamiltonianModel, t: float,
                  x: float) -> SolutionSample:
    """Solution value u(t, x) for t > 0 and x != 0.

    One shot of the shooting map at |x|, negated for x < 0 (odd
    reflection).  The value is the shot's momentum at |x| on its launch
    energy shell, so the energy relation holds to machine precision at
    every sample.
    """
    if not (t > 0.0):
        raise DomainError(f"eval_solution needs t > 0, got {t}")
    if x == 0.0:
        raise DomainError("eval_solution is undefined on the shock x = 0")
    datum = delta(model, t, abs(x))
    u = -datum.p_end if x < 0.0 else datum.p_end
    return SolutionSample(t=t, x=x, u=u, p0=datum.p0)


def asymptotic_profile(model: HamiltonianModel, x):
    """Stationary limit profile -sgn(x) * sqrt(2 (flat - g(x))).

    Vanishes wherever the potential sits at its flat tail value, so for
    the default model it is supported on [-1, 1].  A float gives an
    ``np.float64``.
    """
    gap = 2.0 * (model.flat_value - model.g(x))
    return -np.sign(x) * np.sqrt(np.maximum(gap, 0.0))


# ===== Profiles =====

def solution_profile(model: HamiltonianModel, t: float, xs) -> np.ndarray:
    """Vector of solution values u(t, x) over the positions ``xs``.

    Positions must avoid 0.  Each distinct |x| is shot once, all in one
    shooting call, and odd reflection fills x < 0.  A shot does not
    depend on its batch, so every entry equals
    ``eval_solution(model, t, x).u`` to the bit.
    """
    xs = np.asarray(xs, dtype=float)
    if np.any(xs == 0.0):
        raise DomainError("profile positions must avoid the shock x = 0")
    pos, back = np.unique(np.abs(xs), return_inverse=True)
    u = delta_batch(model, t, pos)[3][back]
    return np.where(xs < 0.0, -u, u)


# ===== Space-time rasterizer =====

def _arc_batch(model: HamiltonianModel, x_max: float, n_orbits: int):
    """Starting states fanning out over the reachable half plane.

    Uniform momentum samples on the vertical arc piece are blended with
    a geometric cluster around the critical momentum and a uniform stack
    of free launch points out to x_max.  The cluster is log-uniform in
    the distance to the critical momentum, which is close to uniform in
    orbit period, so its point count directly sets how many still-alive
    orbits resolve the fast returning sweep at late times; it therefore
    scales with the requested batch size instead of staying fixed.
    """
    p_sep = model.separatrix_momentum
    n_p = max(n_orbits // 2, 8)
    n_c = max(n_orbits // 8, 44)
    n_q = max(n_orbits // 4, 4)
    p_uniform = np.linspace(2.0, 1e-4, n_p)
    if p_sep > 0.0:
        around = np.concatenate(
            [p_sep - np.geomspace(1e-12, 0.25, 2 * n_c), [p_sep],
             p_sep + np.geomspace(1e-12, 0.2, n_c)])
        around = around[(around > 0.0) & (around < 2.0)]
    else:
        around = np.empty(0)
    p_vert = np.concatenate([p_uniform, around])
    q_free = np.linspace(x_max, x_max / n_q, n_q)
    q0 = np.concatenate([np.zeros_like(p_vert), q_free])
    p0 = np.concatenate([p_vert, np.full_like(q_free, 2.0)])
    return q0, p0


def solution_grid(model: HamiltonianModel, times, xs,
                  n_orbits: int = 4096) -> np.ndarray:
    """Rasterize u onto times x positions by one forward orbit march.

    All arc orbits are marched once to the requested times by
    :func:`~hetclaw.flow.integrate_batch`, which retires an orbit once it
    has crossed back through q = 0.  At each requested
    time the still-alive orbits are ordered by position, their arc
    parameters are interpolated linearly at the positive grid positions,
    and the value is the momentum on the interpolated launch energy's
    shell at x, with the sign of the neighbouring orbits.  Between two
    orbits on opposite sides of a turning point the momentum itself is
    interpolated.  Odd reflection negates the x < 0 columns in place; a
    model whose force is not odd is refused there, after the march.
    No shooting is involved, so the raster is an independent check of
    the point route.
    Times and positions must be finite 1-D arrays; positions must avoid
    0; times must be nondecreasing and start at or after 0; ``n_orbits``
    must be a positive integer.  Row t = 0 is the step datum itself, and
    no positions give a grid with no columns.  The call holds the orbit
    records and the output once each, and temporaries of one row: every
    time records the orbits and the positions, so more than
    ``flow._MAX_RECORD`` values over them are refused before the march.
    """
    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float)
    for name, axis in (("times", times), ("positions", xs)):
        if axis.ndim != 1:
            raise DomainError(
                f"grid {name} must be 1-D, got shape {axis.shape}")
        if not np.all(np.isfinite(axis)):
            raise DomainError(f"grid {name} must be finite, "
                              f"got {axis[~np.isfinite(axis)][0]}")
    if np.any(xs == 0.0):
        raise DomainError("grid positions must avoid the shock x = 0")
    if times.size and (np.any(np.diff(times) < 0.0) or times[0] < 0.0):
        raise DomainError("grid times must be nondecreasing and >= 0")
    _count("n_orbits", n_orbits, 1)
    if not xs.size:
        return np.empty((times.size, 0))

    record = times if times.size and times[0] == 0.0 else np.concatenate(
        [[0.0], times])
    x_max = float(np.max(np.abs(xs)))
    q0, p0 = _arc_batch(model, x_max, n_orbits)
    _record_budget(record.size, q0.size + xs.size,
                   f"a grid of {record.size} times x ({q0.size} orbits + "
                   f"{xs.size} positions)")
    Q, P, dead = integrate_batch(model, q0, p0, record, retire=True)
    if not model.odd and np.any(xs < 0.0):
        raise DomainError(f"model {model.name!r}: the force is not odd, so "
                          f"u at x < 0 is no odd reflection of x > 0")
    if record.size != times.size:
        Q, P, dead = Q[1:], P[1:], dead[1:]

    # each distinct |x| is interpolated once, in sorted order, and every
    # position reads its value back
    pos, back = np.unique(np.abs(xs), return_inverse=True)
    g_pos = model.g(pos)
    s0 = arc_encode(q0, p0)
    U = np.empty((times.size, xs.size))
    for i, t in enumerate(times):
        if t == 0.0:
            U[i] = 2.0
            continue
        live = np.flatnonzero(~dead[i])
        qa = Q[i, live]
        order = np.argsort(qa)
        qs = qa[order]
        order = live[order]
        ps = P[i, order]
        # the launch point varies smoothly along the alive orbits, so it
        # is interpolated and its energy read at x; only across a turning
        # point, where the shell's square root is not smooth, does the
        # momentum itself interpolate better
        a, b = arc_decode(np.interp(pos, qs, s0[order]))
        shell = np.sqrt(np.maximum(2.0 * (model.h(a, b) - g_pos), 0.0))
        p_lin = np.interp(pos, qs, ps)
        k = np.clip(np.searchsorted(qs, pos), 1, qs.size - 1)
        turning = ps[k - 1] * ps[k] < 0.0
        np.take(np.where(turning, p_lin, np.copysign(shell, p_lin)), back,
                out=U[i])
    return np.negative(U, out=U, where=xs[None, :] < 0.0)
