"""Inverse design by backward characteristics.

Given a target profile w at time T, every sample (x, w(x)) is carried
backward through the characteristic system to its foot (q(0), p(0)).
The feet being nondecreasing in x is the observable criterion for the
profile to be reachable from some initial datum; the graph of momenta
over feet is then a candidate datum, and a forward finite-volume run
closes the loop.  A ray-fan utility launches backward orbits from one
point with interpolated terminal momenta and reports how they cross or
spread, which distinguishes the x-dependent well from the homogeneous
model, where all rays are straight lines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .charsol import solution_profile
from .errors import DomainError, NonMonotoneFeet, _count
from .flow import integrate_batch, terminal_batch
from .fvm import DEFAULT_CFL, CellField, Grid1D, evolve, l1_distance
from .model import HamiltonianModel
from .period import invert_half_period, shock_time

MONOTONE_TOL = 1e-6
COLLAPSE_TOL = 1e-4
# The crossing scan compares every pair of rays, so its time grows as the
# square of the ray count.
MAX_RAYS = 1000
# Crossings one fan may report.  Their count grows with the horizon and
# with the square of the ray count; the CLI's largest fan, 1,000 rays to
# t = 4, reports about 1.2 million.
_MAX_CROSSINGS = 2_000_000
# offset of a tagged jump's one-sided side points from its x
_SIDE = 1e-12


# ===== Profiles =====

@dataclass(frozen=True)
class Jump:
    """A tagged discontinuity with its one-sided values."""

    x: float
    w_minus: float
    w_plus: float


@dataclass(frozen=True)
class Profile:
    """Sampled profile: strictly increasing positions, finite values.

    Discontinuities are carried as explicit tags rather than as steep
    sample pairs, so downstream code can launch both one-sided values.
    A tag's side points, at x -+ 1e-12, must fall strictly between the
    samples and the other tags' side points, so that ``sample`` reads a
    monotone axis.
    """

    xs: np.ndarray
    ws: np.ndarray
    jumps: tuple = ()

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ws = np.asarray(self.ws, dtype=float)
        if xs.ndim != 1 or xs.shape != ws.shape or xs.size < 2:
            raise DomainError("profile needs matching 1-D axes, >= 2 samples")
        if np.any(np.diff(xs) <= 0.0):
            raise DomainError("profile positions must be strictly increasing")
        if not (np.isfinite(xs).all() and np.isfinite(ws).all()):
            raise DomainError("profile samples must be finite")
        for j in self.jumps:
            if np.any((xs >= j.x - _SIDE) & (xs <= j.x + _SIDE)):
                raise DomainError(f"jump at x={j.x} collides with a sample; "
                                  "tag it or sample it, not both")
        tags = sorted(j.x for j in self.jumps)
        for a, b in zip(tags, tags[1:]):
            if b - _SIDE <= a + _SIDE:
                raise DomainError(f"two jumps are tagged at x={a} and x={b}, "
                                  f"closer than their side points x -+ "
                                  f"{_SIDE}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ws", ws)

    def _merged(self, side: float):
        """The samples and each tag's w_minus at x - side and w_plus at
        x + side, stably sorted onto one axis (minus first where they
        coincide), with the index of each tag's minus side.  Side 0 takes
        the tags as they are: x + 0.0 would turn -0.0 into +0.0."""
        x, w_minus, w_plus = np.reshape(
            [(j.x, j.w_minus, j.w_plus) for j in self.jumps], (-1, 3)).T
        axis = np.concatenate([self.xs, x - side, x + side] if side
                              else [self.xs, x, x])
        values = np.concatenate([self.ws, w_minus, w_plus])
        order = np.argsort(axis, kind="stable")
        rank = np.argsort(order, kind="stable")
        return axis[order], values[order], rank[self.xs.size:][:x.size]

    def sample(self, x):
        """Interpolate at x, honoring jump tags via one-sided side points."""
        return np.interp(np.asarray(x, dtype=float), *self._merged(_SIDE)[:2])


def profile_from_solution(model: HamiltonianModel, t: float, xs) -> Profile:
    """Time slice of the semi-analytic solution as a taggable profile.

    Positions must avoid 0; once the standing jump at the origin has
    formed, it is tagged with exact one-sided traces from the half-period
    inversion rather than with offset samples.
    """
    xs = np.asarray(xs, dtype=float)
    ws = solution_profile(model, t, xs)
    traces = _standing_traces(model, t)
    return Profile(xs, ws, () if traces is None else (Jump(0.0, *traces),))


def _standing_traces(model: HamiltonianModel, t: float):
    """Traces (w_minus, w_plus) = (p0, -p0) at time t of the jump standing
    at x = 0, p0 being the momentum whose orbit first returns to 0 at t;
    None before the shock time and on a model whose well traps nothing."""
    if model.separatrix_momentum > 0.0 and t > shock_time(model):
        trace = invert_half_period(model, t)
        return trace, -trace
    return None


# ===== Backward footprints =====

@dataclass(frozen=True)
class FootprintMap:
    """Backward-orbit feet for every (interleaved) profile sample.

    ``jump_pairs`` holds index pairs (i_minus, i_plus) into the
    interleaved arrays for each tagged discontinuity.
    """

    model: HamiltonianModel
    horizon: float
    xs: np.ndarray
    ws: np.ndarray
    feet: np.ndarray
    p0: np.ndarray
    jump_pairs: tuple = ()


def footprint(model: HamiltonianModel, t: float,
              w: Profile) -> FootprintMap:
    """Carry every sample of w backward over [0, t].

    Tagged discontinuities launch both one-sided values from the same
    position, interleaved into the sample order, so the monotonicity
    test sees the extremal backward characteristics.
    """
    if not 0.0 < t < np.inf:
        raise DomainError(f"horizon must be positive and finite, got {t}")
    xs, ws, minus = w._merged(0.0)
    feet, p0 = terminal_batch(model, xs, ws, -t)
    return FootprintMap(model, t, xs, ws, feet, p0,
                        tuple((i, i + 1) for i in minus.tolist()))


# ===== Reports =====

@dataclass(frozen=True)
class DesignReport:
    """Outcome of the reachability pipeline for one target profile."""

    monotone: bool
    violations: tuple
    gap_collapse: tuple
    reconstructed: Profile | None = None
    round_trip_l1: float | None = None

    def as_dict(self) -> dict:
        return {
            "monotone": self.monotone,
            "violations": [(int(i), float(d)) for i, d in self.violations],
            "gap_collapse": [(float(x), float(g))
                             for x, g in self.gap_collapse],
            "round_trip_l1": self.round_trip_l1,
            "reconstructed_samples": None if self.reconstructed is None
            else int(self.reconstructed.xs.size),
        }


def monotone_test(fm: FootprintMap) -> DesignReport:
    """Check the feet are nondecreasing within ``MONOTONE_TOL``.

    The tolerance absorbs the backward integrator's error, which is
    orders of magnitude below it.  Also reports, per tagged jump, the
    gap between the one-sided extremal feet: near zero means the target
    pins its datum there, a positive gap means a genuine cone of data.
    """
    d = np.diff(fm.feet)
    bad = np.nonzero(d < -MONOTONE_TOL)[0]
    violations = tuple((int(i), float(d[i])) for i in bad)
    gaps = tuple((float(fm.xs[im]), float(fm.feet[ip] - fm.feet[im]))
                 for im, ip in fm.jump_pairs)
    return DesignReport(monotone=bad.size == 0, violations=violations,
                        gap_collapse=gaps)


def reconstruct_vertex(fm: FootprintMap) -> Profile:
    """Candidate initial datum: the momentum graph over the feet.

    Feet clustering within ``COLLAPSE_TOL`` as the momentum sweeps a
    range are collapsed into a tagged jump (the fan or shock signature);
    elsewhere the graph is kept pointwise and resampled by monotone
    interpolation at evaluation time.
    """
    rep = monotone_test(fm)
    if not rep.monotone:
        raise NonMonotoneFeet(f"{len(rep.violations)} decreasing feet "
                              f"(worst {min(d for _, d in rep.violations):.3g})")
    feet = np.maximum.accumulate(fm.feet)
    p0 = np.asarray(fm.p0)

    # maximal runs of feet closer than COLLAPSE_TOL: a step that is not
    # that close, NaN included, cuts a run, so a NaN foot stays a sample
    cut = ~(np.diff(feet, prepend=-np.inf, append=np.inf) <= COLLAPSE_TOL)
    first, last = np.flatnonzero(cut[:-1]), np.flatnonzero(cut[1:])
    jumped = (last > first) & (abs(p0[last] - p0[first]) > 10 * COLLAPSE_TOL)
    jumps = tuple(Jump(float(feet[i:j + 1].mean()), float(p0[i]), float(p0[j]))
                  for i, j in zip(first[jumped], last[jumped]))
    keep = ~jumped[np.cumsum(cut[:-1]) - 1]
    xs, ws = feet[keep], p0[keep]
    if xs.size < 2:
        raise DomainError(f"{feet.size} feet collapse into {len(jumps)} "
                          f"jumps, leaving {xs.size} samples; sample the "
                          f"target wider than the collapse")
    # nudge ties apart so the profile axis is strictly increasing
    for k in range(1, xs.size):
        if xs[k] <= xs[k - 1]:
            xs[k] = xs[k - 1] + 1e-12
    return Profile(xs, ws, jumps)


def round_trip(model: HamiltonianModel, t: float, w: Profile, window: tuple,
               cfl: float = DEFAULT_CFL, *, reconstructed: Profile) -> float:
    """L1 distance on the window between evolve(reconstructed, t) and w.

    The finite-volume domain, 4000 cells, is the window widened by the
    fastest wave and one more unit, so no boundary effect reaches the
    comparison region.
    """
    speed = max(2.0, float(np.max(np.abs(reconstructed.ws))))
    grid = Grid1D(window[0] - speed * t - 1.0, window[1] + speed * t + 1.0,
                  4000)
    centers = grid.centers()
    u0 = CellField(grid, reconstructed.sample(centers))
    result = evolve(model, u0, t, cfl=cfl)
    return l1_distance(result.final, w.sample(centers), window)


def design_report(fm: FootprintMap, w: Profile, window: tuple,
                  cfl: float = DEFAULT_CFL) -> DesignReport:
    """Pipeline past the footprint ``fm`` of ``w``: monotone test, vertex,
    round trip on the footprint's model and horizon."""
    rep = monotone_test(fm)
    if not rep.monotone:
        return rep
    rec = reconstruct_vertex(fm)
    err = round_trip(fm.model, fm.horizon, w, window, cfl, reconstructed=rec)
    return replace(rep, reconstructed=rec, round_trip_l1=err)


# ===== Ray fans =====

@dataclass(frozen=True)
class RayFanReport:
    """Backward rays from one point with interpolated terminal momenta.

    ``positions[i, k]`` is ray k at ``times[i]`` (increasing, ending at
    the launch time).  Crossings are (i, j, s) with s strictly inside
    (0, horizon); exits are (k, s) where an interior ray leaves the
    envelope of the two extremal rays.
    """

    horizon: float
    momenta: np.ndarray
    times: np.ndarray
    positions: np.ndarray
    crossings: tuple
    exits: tuple

    @property
    def feet(self) -> np.ndarray:
        return self.positions[0]

    def fill_ratio(self) -> float:
        """Largest foot gap relative to an even filling (1 = perfectly even)."""
        feet = np.sort(self.feet)
        span = feet[-1] - feet[0]
        if span <= 0.0:
            return float("inf")
        return float(np.max(np.diff(feet)) * (feet.size - 1) / span)

    def as_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "momenta": [float(p) for p in self.momenta],
            "crossings": [(int(i), int(j), float(s))
                          for i, j, s in self.crossings],
            "exits": [(int(k), float(s)) for k, s in self.exits],
            "feet": [float(f) for f in self.feet],
            "fill_ratio": self.fill_ratio(),
        }


def _crossings_after(rays, i: int, times, tol: float):
    """Crossings of ray i with every later ray, pair by pair in j, then
    in time: the later rays' indices and the crossing times inside
    (times[0], times[-1]).

    One call holds one block of differences and one scratch block, for
    |d| and then the sign-change product; both go when it returns.
    """
    d = rays[i] - rays[i + 1:]
    w = np.abs(d)
    clear = w > tol
    swap = np.multiply(d[:, :-1], d[:, 1:], out=w[:, :-1]) < 0.0
    swap &= clear[:, :-1]
    swap &= clear[:, 1:]
    j, k = np.nonzero(swap)
    frac = d[j, k] / (d[j, k] - d[j, k + 1])
    s = times[k] + frac * (times[k + 1] - times[k])
    inside = (times[0] < s) & (s < times[-1])
    return j[inside] + i + 1, s[inside]


def ray_fan(model: HamiltonianModel, t: float, x0: float,
            p_left: float, p_right: float, n_rays: int,
            tol: float = 1e-6) -> RayFanReport:
    """Launch n_rays backward orbits from (t, x0), momenta interpolated.

    Terminal momenta sweep linearly from p_left to p_right; all rays are
    integrated on one shared time grid so crossings reduce to sign
    changes of pairwise differences, refined by linear interpolation.
    A sign change only counts when both sides clear ``tol``: rays
    sharing a foot touch at solver-tolerance scale without crossing,
    whereas genuine fan crossings swing far wider.  A ray exits once it
    leaves the band of the two edge rays by more than ``tol``.
    ``n_rays`` must be an integer from 2 to 1000, and a fan that crosses
    itself more than 2 million times is refused.
    """
    if not 0.0 < t < np.inf:
        raise DomainError(f"horizon must be positive and finite, got {t}")
    _count("n_rays", n_rays, 2, MAX_RAYS)
    lam = np.linspace(0.0, 1.0, n_rays)
    momenta = (1.0 - lam) * p_left + lam * p_right
    record = np.linspace(0.0, -t, 801)
    positions = integrate_batch(model, np.full(n_rays, float(x0)), momenta,
                                record)[0][::-1]
    times = t + record[::-1]

    # the refusal reads the running count, before any tuple is built
    rays = positions.T.copy()
    rows, count = [], 0
    for i in range(n_rays - 1):
        rows.append(_crossings_after(rays, i, times, tol))
        count += rows[-1][0].size
        if count > _MAX_CROSSINGS:
            raise DomainError(f"the fan crosses itself more than "
                              f"{_MAX_CROSSINGS} times; use fewer rays or "
                              f"a shorter horizon")
    del rays
    crossings = tuple(c for i, (j, s) in enumerate(rows)
                      for c in zip([i] * j.size, j.tolist(), s.tolist()))

    # each interior ray's first exit strictly inside (0, t)
    lo = np.minimum(positions[:, :1], positions[:, -1:]) - tol
    hi = np.maximum(positions[:, :1], positions[:, -1:]) + tol
    out = (positions[:, 1:-1] < lo) | (positions[:, 1:-1] > hi)
    out &= ((times > 0.0) & (times < t))[:, None]
    k = np.flatnonzero(out.any(axis=0))
    exits = zip((k + 1).tolist(), times[out[:, k].argmax(axis=0)].tolist())
    return RayFanReport(t, momenta, times, positions, crossings, tuple(exits))
