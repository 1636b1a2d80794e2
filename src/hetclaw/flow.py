"""Characteristic (Hamiltonian) flow of q' = p, p' = -g'(q).

The integrator is a fixed-step classical RK4 with the last step shortened
to land exactly on the requested time.  Determinism matters more here than
adaptive cleverness: the forward raster, the footprints and the ray fans
build on this flow and need bit-reproducible outputs.  Energy conservation is
monitored as the accuracy gauge; a drift above ``energy_tol`` raises
:class:`~hetclaw.errors.EnergyDrift` instead of silently returning junk.

Dense output is cubic Hermite on the stored samples, which is enough for
event (level-crossing) refinement to ~1e-10 in time at the default step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EnergyDrift, NonFinite
from .model import HamiltonianModel

DEFAULT_DT = 1e-3
DEFAULT_ENERGY_TOL = 1e-8


# ===== Stepping kernels =====

def rk4_step(g_prime, q, p, h):
    """One classical RK4 step of the characteristic system.

    Works elementwise on floats and arrays alike; ``h`` may be a scalar or
    a per-column array.
    """
    k1q = p
    k1p = -g_prime(q)
    k2q = p + 0.5 * h * k1p
    k2p = -g_prime(q + 0.5 * h * k1q)
    k3q = p + 0.5 * h * k2p
    k3p = -g_prime(q + 0.5 * h * k2q)
    k4q = p + h * k3p
    k4p = -g_prime(q + h * k3q)
    return (q + h * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0,
            p + h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0)


def _step_count(duration: float, dt_max: float) -> int:
    if not math.isfinite(duration):
        raise DomainError(f"march duration must be finite, got {duration}")
    return max(int(math.ceil(abs(duration) / dt_max - 1e-12)), 1)


# ===== Trajectories =====

@dataclass
class Trajectory:
    """Sampled orbit with cubic Hermite dense output.

    ``times`` is strictly increasing regardless of integration direction;
    a backward run is stored reversed, so ``times[0]`` is the requested
    terminal time and ``times[-1] == 0``.
    """

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    qdot: np.ndarray
    pdot: np.ndarray
    energy: np.ndarray
    energy0: float

    @property
    def drift(self) -> float:
        """Largest deviation of the sampled energy from its initial value."""
        return float(np.max(np.abs(self.energy - self.energy0)))

    def _locate(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.times, t, side="right") - 1,
                      0, len(self.times) - 2)
        return t, idx

    def _hermite(self, y, ydot, t, idx):
        t0 = self.times[idx]
        h = self.times[idx + 1] - t0
        s = (t - t0) / h
        s2 = s * s
        s3 = s2 * s
        h00 = 2.0 * s3 - 3.0 * s2 + 1.0
        h10 = s3 - 2.0 * s2 + s
        h01 = -2.0 * s3 + 3.0 * s2
        h11 = s3 - s2
        return (h00 * y[idx] + h10 * h * ydot[idx]
                + h01 * y[idx + 1] + h11 * h * ydot[idx + 1])

    def q_at(self, t):
        t, idx = self._locate(t)
        return self._hermite(self.q, self.qdot, t, idx)

    def p_at(self, t):
        t, idx = self._locate(t)
        return self._hermite(self.p, self.pdot, t, idx)


def integrate(model: HamiltonianModel, q0: float, p0: float, t: float,
              dt_max: float = DEFAULT_DT, energy_tol: float = DEFAULT_ENERGY_TOL,
              record_every: int = 1) -> Trajectory:
    """Integrate the characteristic system from (q0, p0) over signed time t.

    Args:
        model: potential model driving p' = -g'(q).
        q0, p0: initial state at time 0.
        t: terminal time; negative integrates backward.
        dt_max: step-size bound (the actual step divides t exactly).
        energy_tol: allowed energy drift before EnergyDrift is raised.
        record_every: keep every k-th sample (endpoints always kept).
    """
    gp = model.g_prime
    q, p = float(q0), float(p0)
    ts = [0.0]
    qs = [q]
    ps = [p]
    if t != 0.0:
        n = _step_count(t, dt_max)
        h = t / n
        for k in range(1, n + 1):
            q, p = rk4_step(gp, q, p, h)
            if k % record_every == 0 or k == n:
                ts.append(k * h)
                qs.append(q)
                ps.append(p)
    times = np.array(ts)
    qa = np.array(qs)
    pa = np.array(ps)
    if not (np.isfinite(qa).all() and np.isfinite(pa).all()):
        raise NonFinite(f"orbit from ({q0}, {p0}) left the finite range "
                        f"before t={t}")
    if t < 0.0:
        times = times[::-1].copy()
        qa = qa[::-1].copy()
        pa = pa[::-1].copy()
    energy = 0.5 * pa * pa + model.g(qa)
    energy0 = 0.5 * p0 * p0 + float(model.g(float(q0)))
    traj = Trajectory(times=times, q=qa, p=pa,
                      qdot=pa, pdot=-gp(qa),
                      energy=energy, energy0=energy0)
    if traj.drift > energy_tol:
        raise EnergyDrift(
            f"energy drift {traj.drift:.3e} > {energy_tol:.1e} for orbit "
            f"({q0}, {p0}) over t={t} at dt_max={dt_max}")
    return traj


def terminal_state(model: HamiltonianModel, q0: float, p0: float, t: float,
                   dt_max: float = DEFAULT_DT,
                   energy_tol: float = DEFAULT_ENERGY_TOL):
    """Endpoint of the flow without storing the path.

    Returns (q(t), p(t), min_q) where min_q is the smallest sampled q along
    the way.
    """
    gp = model.g_prime
    q, p = float(q0), float(p0)
    min_q = q
    if t != 0.0:
        n = _step_count(t, dt_max)
        h = t / n
        for _ in range(n):
            q, p = rk4_step(gp, q, p, h)
            if q < min_q:
                min_q = q
    if not (math.isfinite(q) and math.isfinite(p)):
        raise NonFinite(f"orbit from ({q0}, {p0}) left the finite range")
    e0 = 0.5 * p0 * p0 + model.g(float(q0))
    e1 = 0.5 * p * p + model.g(q)
    if abs(e1 - e0) > energy_tol:
        raise EnergyDrift(f"energy drift {abs(e1 - e0):.3e} > {energy_tol:.1e}")
    return q, p, min_q


def terminal_batch(model: HamiltonianModel, q0, p0, t: float,
                   dt_max: float = DEFAULT_DT,
                   energy_tol: float = DEFAULT_ENERGY_TOL):
    """Vectorized :func:`terminal_state` for many initial states, shared t."""
    Q, P, MN = integrate_batch(model, q0, p0, [0.0, t], dt_max, energy_tol,
                               track_min=True)
    return Q[-1], P[-1], MN[-1]


def integrate_batch(model: HamiltonianModel, q0, p0, record_times,
                    dt_max: float = DEFAULT_DT,
                    energy_tol: float = DEFAULT_ENERGY_TOL,
                    track_min: bool = False):
    """March a batch of orbits, recording states at the given times.

    ``record_times`` must start at 0 and be strictly monotone (increasing
    for forward runs, decreasing for backward ones).  Returns arrays of
    shape (len(record_times), n_orbits); with ``track_min`` a third array
    holds the running minimum of q, sampled every micro step, so a dip
    below a level between two record times cannot go unnoticed.
    """
    rt = np.asarray(record_times, dtype=float)
    if rt[0] != 0.0:
        raise DomainError("record_times must start at 0")
    gp = model.g_prime
    q = np.array(q0, dtype=float, copy=True)
    p = np.array(p0, dtype=float, copy=True)
    mn = q.copy()
    Q = np.empty((len(rt), q.size))
    P = np.empty_like(Q)
    MN = np.empty_like(Q) if track_min else None
    Q[0] = q
    P[0] = p
    if track_min:
        MN[0] = mn
    for k in range(1, len(rt)):
        d = rt[k] - rt[k - 1]
        n = _step_count(d, dt_max)
        h = d / n
        for _ in range(n):
            q, p = rk4_step(gp, q, p, h)
            if track_min:
                np.minimum(mn, q, out=mn)
        Q[k] = q
        P[k] = p
        if track_min:
            MN[k] = mn
    if not (np.isfinite(Q).all() and np.isfinite(P).all()):
        raise NonFinite("batch orbit left the finite range")
    e0 = 0.5 * np.asarray(p0) ** 2 + model.g(np.asarray(q0, dtype=float))
    e1 = 0.5 * p * p + model.g(q)
    worst = float(np.max(np.abs(e1 - e0))) if q.size else 0.0
    if worst > energy_tol:
        raise EnergyDrift(f"batch energy drift {worst:.3e} > {energy_tol:.1e}")
    if track_min:
        return Q, P, MN
    return Q, P


# ===== Events =====

def crossing_events(traj: Trajectory, level: float = 0.0) -> np.ndarray:
    """Times where the orbit's position crosses the given level.

    Sign changes between stored samples are refined by bisection on the
    cubic Hermite interpolant down to 1e-10 in time.  Samples landing
    exactly on the level are reported as crossings too.
    """
    time_tol = 1e-10
    f = traj.q - level
    times = []
    for k in range(len(f) - 1):
        a, b = f[k], f[k + 1]
        if a == 0.0:
            times.append(traj.times[k])
            continue
        if a * b < 0.0:
            lo, hi = traj.times[k], traj.times[k + 1]
            flo = a
            while hi - lo > time_tol:
                mid = 0.5 * (lo + hi)
                fm = float(traj.q_at(mid)) - level
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (flo > 0.0) != (fm > 0.0):
                    hi = mid
                else:
                    lo = mid
                    flo = fm
            times.append(0.5 * (lo + hi))
    if f[-1] == 0.0:
        times.append(traj.times[-1])
    out = np.array(sorted(times))
    if out.size > 1:
        keep = np.concatenate([[True], np.diff(out) > 10.0 * time_tol])
        out = out[keep]
    return out
