"""Characteristic (Hamiltonian) flow of q' = p, p' = -g'(q).

A float orbit is marched by one fixed-step classical RK4 loop, ``_march``,
in equal steps that divide each span exactly; ``_rk4_rows`` runs the
same operations on a batch, in place, to the same bits.  Determinism
matters more here than adaptive cleverness: the forward raster, the
footprints and the ray fans build on this flow and need bit-reproducible
outputs.  One certificate, ``_certify``, gauges accuracy by energy
conservation; a drift above ``ENERGY_TOL`` raises
:class:`~hetclaw.errors.EnergyDrift` instead of silently returning junk.

A batch march steps only the orbits that still move: a free one (past
the cutoff, heading outward) adds one exact increment per step, and a
retired one (below q = 0, on request) is never stepped again.

A trajectory is its marched samples and nothing else; a level crossing
between two of them is refined by marching from the earlier one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EnergyDrift, NonFinite, _count
from .model import HamiltonianModel

DEFAULT_DT = 1e-3
ENERGY_TOL = 1e-8
# ceiling on the steps of one march: about 20 s of scalar marching
_MAX_STEPS = 10**7
# ceiling on a batch march's steps x (orbits + _STEP_COST_ORBITS): 3.3x the
# asymptotics raster (9,217 orbits over 30,000 steps), about 19 s at the
# in-place kernel's 18-21 ns per orbit-step (9,217 to 20,000 orbits, 2-core
# x86 host); a step's fixed numpy cost (29-34 us for one orbit) is charged
# as 1,000 orbits, so a narrow batch is bounded by about 30 s.  A mirrored
# batch marches half its orbits and is charged for all of them.
_MAX_ORBIT_STEPS = 10**9
_STEP_COST_ORBITS = 1000
# steps between two sortings of a batch into free, moving and retired orbits
_REGROUP = 64
# ceiling on the values one call records, rows x values per row: 40 MB of
# doubles.  A call holds each record once, plus temporaries of one row:
# solution_grid charges times x (orbits + positions) for its two orbit
# records and its output, and evolve distinct marks x cells for its
# snapshots.  The CLI's largest records are 2.2e6
# (exact's 21 rows of 100,000 positions and 4,609 orbits; its raster peaks
# at 1.7 times its 16 MB output) and 2.0e6 (entropy-check's 101 snapshots
# of 20,000 cells)
_MAX_RECORD = 5 * 10**6


# ===== Stepping kernels =====

def rk4_step(force, q, p, h):
    """One classical RK4 step of q' = p, p' = force(q), force being -g'.

    Works elementwise on floats and arrays alike; ``h`` may be a scalar or
    a per-column array.
    """
    k1q = p
    k1p = force(q)
    k2q = p + 0.5 * h * k1p
    k2p = force(q + 0.5 * h * k1q)
    k3q = p + 0.5 * h * k2p
    k3p = force(q + 0.5 * h * k2q)
    k4q = p + h * k3p
    k4p = force(q + h * k3q)
    return (q + h * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0,
            p + h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0)


def _split(duration: float, dt_max: float):
    """Cut a signed duration into n equal steps h of at most dt_max; a zero
    duration takes no step.  Every march cuts its time here."""
    if not 0.0 < dt_max < math.inf:
        raise DomainError(f"dt_max must be finite and positive, got {dt_max}")
    if not math.isfinite(duration):
        raise DomainError(f"march duration must be finite, got {duration}")
    if abs(duration) / dt_max > _MAX_STEPS:
        raise DomainError(f"march of {duration} at dt_max={dt_max} needs "
                          f"more than {_MAX_STEPS} steps")
    if duration == 0.0:
        return 0, 0.0
    n = max(int(math.ceil(abs(duration) / dt_max - 1e-12)), 1)
    return n, duration / n


def _budget(steps, orbits: int) -> None:
    """Refuse, before its first step, a vector march of ``orbits`` orbits
    (or finite-volume cells) over ``steps`` summed steps that would run
    for more than about half a minute.  A fractional or infinite
    ``steps`` counts as the next whole number."""
    if (steps > _MAX_STEPS
            or math.ceil(steps) * (orbits + _STEP_COST_ORBITS)
            > _MAX_ORBIT_STEPS):
        raise DomainError(
            f"march of {orbits} orbits or cells over {steps:.3g} steps "
            f"exceeds {_MAX_STEPS} steps or {_MAX_ORBIT_STEPS:.0e} "
            f"orbit-steps")


def _record_budget(rows: int, width: int, what: str) -> None:
    """Refuse, before it is allocated, a record of ``rows`` rows of
    ``width`` values each that holds more than _MAX_RECORD values."""
    if rows * width > _MAX_RECORD:
        raise DomainError(f"{what} would record {rows * width:.3g} values, "
                          f"over the ceiling of {_MAX_RECORD:.0e}")


def _march(model: HamiltonianModel, q: float, p: float, spans):
    """Yield the float state (q, p) at the end of each span of one
    fixed-step RK4 march; a span is an (n, h) pair of n steps of size h,
    as :func:`_split` cuts it."""
    force = model.force
    for n, h in spans:
        for _ in range(n):
            q, p = rk4_step(force, q, p, h)
        yield q, p


def _rk4_rows(model: HamiltonianModel, q, p, spans, lowest=None):
    """:func:`_march` on 1-D arrays, on preallocated rows; with
    ``lowest`` (shaped like q) the running minimum of q is folded into it
    after every step.  Each yielded pair is a fresh copy.

    The stages' positions, momenta and forces fill three (4, n) blocks,
    whose row 0 holds the march's own state.  A stage's position needs
    only the momentum before it, so the force takes two calls per step,
    each on two contiguous rows: at [q1; q2], then at [q3; q4].  The
    operations are rk4_step's, in its order.
    """
    qs, ps, fs = (np.empty((4, q.size)) for _ in range(3))
    qs[0], ps[0] = q, p
    q1, q2, q3, q4 = qs
    p1, p2, p3, p4 = ps
    f3 = fs[2]
    first, last = (qs[:2], fs[:2]), (qs[2:], fs[2:])
    f12, p23 = fs[:2], ps[1:3]
    # y + h * (((k1 + 2 k2) + 2 k3) + k4) / 6, summed in k2's row: q's
    # slopes are the stage momenta, p's the stage forces
    sums = [(q1, p23, p1, p2, p3, p4), (p1, fs[1:3], *fs)]
    force = model.force
    for n, h in spans:
        a = 0.5 * h
        for _ in range(n):
            np.multiply(a, p1, out=q2)
            np.add(q1, q2, out=q2)
            force(*first)
            np.multiply(a, f12, out=p23)
            np.add(p1, p2, out=p2)
            np.add(p1, p3, out=p3)
            np.multiply(a, p2, out=q3)
            np.add(q1, q3, out=q3)
            np.multiply(h, p3, out=q4)
            np.add(q1, q4, out=q4)
            force(*last)
            np.multiply(h, f3, out=p4)
            np.add(p1, p4, out=p4)
            for y, middle, k1, k2, k3, k4 in sums:
                np.multiply(2.0, middle, out=middle)
                np.add(k1, k2, out=k2)
                np.add(k2, k3, out=k2)
                np.add(k2, k4, out=k2)
                np.multiply(h, k2, out=k2)
                np.divide(k2, 6.0, out=k2)
                np.add(y, k2, out=y)
            if lowest is not None:
                np.minimum(lowest, q1, out=lowest)
        yield q1.copy(), p1.copy()


def _certify(model: HamiltonianModel, q0, p0, q, p) -> float:
    """Raise unless the states (q, p) and their energies are finite and
    keep the launch energy to ``ENERGY_TOL``; return the largest drift.

    A non-finite state stays non-finite under the update q + dq, so the
    end state of a march certifies every state before it.
    """
    if not (np.isfinite(q).all() and np.isfinite(p).all()):
        raise NonFinite("orbit left the finite range")
    drift = float(np.max(np.abs(model.h(q, p) - model.h(q0, p0)),
                         initial=0.0))
    if not drift <= ENERGY_TOL:
        if not math.isfinite(drift):
            raise NonFinite("orbit energy left the finite range")
        raise EnergyDrift(f"energy drift {drift:.3e} > {ENERGY_TOL:.1e}")
    return drift


# ===== Trajectories =====

@dataclass
class Trajectory:
    """The samples of one march, in march order.

    ``times`` runs from 0 to the terminal time, so a backward run's times
    decrease; ``drift`` is the largest deviation of a sample's energy from
    the launch energy.
    """

    model: HamiltonianModel
    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    drift: float


def integrate(model: HamiltonianModel, q0: float, p0: float, t: float,
              dt_max: float = DEFAULT_DT, record_every: int = 1) -> Trajectory:
    """Integrate the characteristic system from (q0, p0) over signed time t.

    Args:
        model: potential model driving p' = -g'(q).
        q0, p0: initial state at time 0.
        t: terminal time; negative integrates backward.
        dt_max: step-size bound (the actual step divides t exactly).
        record_every: keep every k-th sample (endpoints always kept).
    """
    _count("record_every", record_every, 1)
    q0, p0 = float(q0), float(p0)
    n, h = _split(t, dt_max)
    ends = [*range(record_every, n, record_every), n] if n else []
    spans = [(b - a, h) for a, b in zip([0, *ends], ends)]
    states = [(q0, p0), *_march(model, q0, p0, spans)]
    qa, pa = map(np.array, zip(*states))
    times = np.array([0.0, *(k * h for k in ends)])
    return Trajectory(model, times, qa, pa, _certify(model, q0, p0, qa, pa))


def terminal_state(model: HamiltonianModel, q0: float, p0: float, t: float,
                   dt_max: float = DEFAULT_DT):
    """Endpoint (q(t), p(t)) of the flow: :func:`integrate` recording only
    the ends (no march has more than ``_MAX_STEPS`` steps)."""
    traj = integrate(model, q0, p0, t, dt_max, record_every=_MAX_STEPS)
    return float(traj.q[-1]), float(traj.p[-1])


def terminal_batch(model: HamiltonianModel, q0, p0, t: float,
                   dt_max: float = DEFAULT_DT):
    """Vectorized :func:`terminal_state` for many initial states, shared t."""
    Q, P = integrate_batch(model, q0, p0, [0.0, t], dt_max)
    return Q[-1], P[-1]


def _mirror(model: HamiltonianModel, q, p) -> int:
    """The number of leading orbits that mirror the trailing ones:
    q.size // 2 where the force is odd (``model.odd``) and 0.0 - q[::-1]
    and 0.0 - p[::-1] are q and p to the bit, else 0.

    Under an odd force RK4's operations commute with negation, but for
    the sign of a zero that a sum yields.  A sum is -0.0 only where both
    terms are, and every state update adds to the state, so a state is
    -0.0 only after a -0.0.  A mirror pair holds no -0.0 (0.0 - x never
    is), so the left orbit of a pair marches to 0.0 - its right
    partner, to the bit.
    """
    if not model.odd:
        return 0
    for a in (q, p):
        if not np.array_equal((0.0 - a[::-1]).view(np.int64),
                              a.view(np.int64)):
            return 0
    return q.size // 2


def integrate_batch(model: HamiltonianModel, q0, p0, record_times,
                    dt_max: float = DEFAULT_DT, retire: bool = False):
    """March a batch of orbits, recording states at the given times.

    ``record_times`` must start at 0 and keep one direction: nondecreasing
    for forward runs, nonincreasing for backward ones, a repeated time
    recording the same state twice; ``q0`` and ``p0`` are 1-D and of one
    size.  Returns arrays of shape (len(record_times), n_orbits).  Every
    ``_REGROUP`` steps the orbits are sorted afresh.  A free one
    (``model.flies_free(q, p * h)``) sees g' = 0 at every RK4 stage, so a
    step leaves p and adds to q a closed form in p and h.  With
    ``retire``, an orbit whose q has dropped below 0 at any step is never
    stepped again, and a third boolean array flags its stale entries.  The
    rest take the RK4 march.  Without ``retire``, a batch of mirror pairs
    (see :func:`_mirror`) marches only its right half and unfolds the left
    one.  Every unflagged entry keeps the full march's bits.
    """
    rt = np.asarray(record_times, dtype=float)
    if not rt.size or rt[0] != 0.0:
        raise DomainError("record_times must start at 0")
    gaps = np.diff(rt)
    # the first nonzero gap sets the direction (none: 0.0, nothing turns)
    ahead = np.sum(gaps[gaps != 0.0][:1])
    back = np.flatnonzero(np.sign(ahead) * gaps < 0.0)
    if back.size:
        raise DomainError(f"record_times must keep one direction; "
                          f"{rt[back[0] + 1]} turns back")
    q = np.array(q0, dtype=float, copy=True)
    p = np.array(p0, dtype=float, copy=True)
    if q.ndim != 1 or q.shape != p.shape:
        raise DomainError(f"q0 and p0 must be 1-D and of one size, got "
                          f"shapes {q.shape} and {p.shape}")
    Q = np.empty((len(rt), q.size))
    P = np.empty_like(Q)
    retired = np.zeros(Q.shape, dtype=bool) if retire else None
    # the leading zero duration takes no step, so row 0 is the launch
    spans = [_split(span, dt_max) for span in [0.0, *gaps]]
    _budget(sum(n for n, _ in spans), q.size)
    m = 0 if retire else _mirror(model, q, p)
    q, p = q[m:], p[m:]
    lowest = q.copy() if retire else None
    gone = np.zeros(q.size, dtype=bool)
    for k, (n, h) in enumerate(spans):
        for start in range(0, n, _REGROUP):
            c = min(_REGROUP, n - start)
            free = ~gone & model.flies_free(q, p * h)
            moving = np.flatnonzero(~(gone | free))
            if moving.size:
                low = lowest[moving] if retire else None
                [(q[moving], p[moving])] = _rk4_rows(
                    model, q[moving], p[moving], [(c, h)], low)
                if retire:
                    lowest[moving] = low
                    gone = lowest < 0.0
            if free.any():
                qf, pf = q[free], p[free]
                # one RK4 step of q from 0 under g' = 0, to its bits
                inc = 0.0 + (h * (((pf + 2.0 * pf) + 2.0 * pf) + pf)) / 6.0
                for _ in range(c):
                    qf += inc
                q[free] = qf
        Q[k, m:] = q
        P[k, m:] = p
        if retire:
            retired[k] = gone
    if m:
        # the left half is 0.0 - the right one reversed, as fvm._unfold
        np.subtract(0.0, Q[:, :-m - 1:-1], out=Q[:, :m])
        np.subtract(0.0, P[:, :-m - 1:-1], out=P[:, :m])
    _certify(model, Q[0], P[0], Q[-1], P[-1])
    return (Q, P, retired) if retire else (Q, P)


# ===== Events =====

def crossing_events(traj: Trajectory, level: float = 0.0) -> np.ndarray:
    """Sorted times where the orbit's position crosses the given level.

    A sign change between two samples is bisected down to 1e-10 in time;
    each midpoint is marched afresh from the earlier sample in steps of at
    most ``DEFAULT_DT``.  A run of samples landing exactly on the level
    counts once, at its first sample, where the orbit changes side across
    the run or the run touches an end of the trajectory.
    """
    time_tol = 1e-10
    f = traj.q - level
    edges = np.diff((f == 0.0).astype(np.int8), prepend=0, append=0)
    first, past = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    ends = (first == 0) | (past == f.size)
    through = f[first - 1] * f[np.minimum(past, f.size - 1)] < 0.0
    times = traj.times[first[ends | through]].tolist()
    for k in np.flatnonzero(f[:-1] * f[1:] < 0.0):
        t0, q0, p0 = traj.times[k], float(traj.q[k]), float(traj.p[k])
        lo, hi = t0, traj.times[k + 1]
        flo = f[k]
        while abs(hi - lo) > time_tol:
            mid = 0.5 * (lo + hi)
            [(qm, _)] = _march(traj.model, q0, p0,
                               [_split(mid - t0, DEFAULT_DT)])
            fm = qm - level
            if fm == 0.0:
                lo = hi = mid
                break
            if (flo > 0.0) != (fm > 0.0):
                hi = mid
            else:
                lo = mid
                flo = fm
        times.append(0.5 * (lo + hi))
    out = np.sort(times)
    return out[np.diff(out, prepend=-np.inf) > 10.0 * time_tol]
