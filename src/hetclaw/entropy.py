"""Discrete check of the entropy inequality on gridded solutions.

For every constant k and every nonnegative smooth test function phi of
compact support, an entropy solution u of

    u_t + (u**2/2)_x + g'(x) = 0

satisfies

    iint [ |u - k| phi_t + sgn(u - k) (u**2/2 - k**2/2) phi_x
           - sgn(u - k) g'(x) phi ] dx dt
        + int |u(0, x) - k| phi(0, x) dx  >=  0.

The module quantizes this statement.  Solutions arrive as values on a
rectangular space-time grid, the integrals become composite midpoint
sums, and the right-hand side 0 is replaced by a negative floor
proportional to the grid spacing.  Discretization noise stays above the
floor; a genuine violation (an expansive jump) lands far below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .charsol import asymptotic_profile
from .errors import DomainError, NonFinite, SupportNotCovered, _count
from .model import HamiltonianModel

# Calibrated on exact constant and stationary-jump states: their measured
# quadrature noise never exceeds 0.095 per floor unit, so 0.25 leaves a
# 2.5x margin while an expansive jump overshoots by orders of magnitude.
FLOOR_C = 0.25

# Range of the constants k that a sweep tests.
K_RANGE = (-3.0, 3.0)


# ===== Test functions =====

def _bump(xi):
    """exp(1 - 1/(1 - xi**2)) inside (-1, 1), zero outside."""
    xi = np.asarray(xi, dtype=float)
    inside = np.abs(xi) < 1.0
    den = np.where(inside, 1.0 - xi * xi, 1.0)
    return np.where(inside, np.exp(1.0 - 1.0 / den), 0.0)


def _bump_slope(xi):
    """Derivative of the bump; shares its support."""
    xi = np.asarray(xi, dtype=float)
    inside = np.abs(xi) < 1.0
    den = np.where(inside, 1.0 - xi * xi, 1.0)
    return np.where(inside,
                    np.exp(1.0 - 1.0 / den) * (-2.0 * xi / (den * den)),
                    0.0)


# d/dxi log|b'| = 0 gives xi**2 = 1/sqrt(3), where |b'| peaks
_BUMP_SLOPE_MAX = float(-_bump_slope(3.0 ** -0.25))


@dataclass(frozen=True)
class TestFunction:
    """Tensor bump phi(t,x) centered at (t0, x0) with radii (rt, rx).

    Nonnegative, smooth, supported on the open rectangle
    (t0-rt, t0+rt) x (x0-rx, x0+rx), with closed-form derivatives.
    """

    # not a pytest case, despite the (mathematical) name
    __test__ = False

    t0: float
    x0: float
    rt: float
    rx: float

    def __post_init__(self):
        if not (all(map(math.isfinite, (self.t0, self.x0, self.rt, self.rx)))
                and self.rt > 0.0 and self.rx > 0.0):
            raise DomainError(f"{self} needs a finite centre and finite "
                              f"positive radii")

    def value(self, t, x):
        return _bump((np.asarray(t) - self.t0) / self.rt) * \
            _bump((np.asarray(x) - self.x0) / self.rx)

    def dt(self, t, x):
        return _bump_slope((np.asarray(t) - self.t0) / self.rt) / self.rt * \
            _bump((np.asarray(x) - self.x0) / self.rx)

    def dx(self, t, x):
        return _bump((np.asarray(t) - self.t0) / self.rt) * \
            _bump_slope((np.asarray(x) - self.x0) / self.rx) / self.rx

    def c1_norm(self) -> float:
        """Max of |phi|, |phi_t|, |phi_x| over the support."""
        return max(1.0, _BUMP_SLOPE_MAX / self.rt, _BUMP_SLOPE_MAX / self.rx)

    def diameter(self) -> float:
        return math.hypot(2.0 * self.rt, 2.0 * self.rx)


# ===== Gridded solutions =====

def _cell_weights(z: np.ndarray) -> np.ndarray:
    """Lengths of the cells owned by each node (midpoints as fences)."""
    mids = 0.5 * (z[1:] + z[:-1])
    left = np.concatenate([[z[0]], mids])
    right = np.concatenate([mids, [z[-1]]])
    return right - left


@dataclass(frozen=True)
class GriddedSolution:
    """Solution values sampled on a rectangular space-time grid.

    ``values[i, j]`` is u(times[i], xs[j]).  Both axes must be strictly
    increasing; when ``times[0] == 0`` the first row doubles as the
    initial datum for the initial term of the inequality.  What every
    residual reads of the axes alone is computed once, here: the cell
    weights of both axes, g' at the positions and ``spacing``, the
    largest time gap and the largest space gap.
    """

    model: HamiltonianModel
    times: np.ndarray
    xs: np.ndarray
    values: np.ndarray
    spacing: tuple = field(init=False, repr=False, compare=False)
    _wt: np.ndarray = field(init=False, repr=False, compare=False)
    _wx: np.ndarray = field(init=False, repr=False, compare=False)
    _g_prime: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        xs = np.asarray(self.xs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or xs.ndim != 1 or times.size < 2 or xs.size < 2:
            raise DomainError("need 1-D time and space axes with >= 2 nodes")
        gaps = np.diff(times), np.diff(xs)
        if np.any(gaps[0] <= 0.0) or np.any(gaps[1] <= 0.0):
            raise DomainError("grid axes must be strictly increasing")
        if values.shape != (times.size, xs.size):
            raise DomainError(f"values shape {values.shape} does not match "
                              f"axes ({times.size}, {xs.size})")
        for name, axis in (("times", times), ("positions", xs),
                           ("values", values)):
            if not np.isfinite(axis).all():
                raise DomainError(f"gridded {name} must be finite")
        for name, value in (
                ("times", times), ("xs", xs), ("values", values),
                ("spacing", tuple(float(np.max(gap)) for gap in gaps)),
                ("_wt", _cell_weights(times)), ("_wx", _cell_weights(xs)),
                ("_g_prime", self.model.g_prime(xs))):
            object.__setattr__(self, name, value)


def from_snapshots(model: HamiltonianModel, centers,
                   snapshots) -> GriddedSolution:
    """Stack (time, values) pairs from a finite-volume run into a grid."""
    times = np.array([t for t, _ in snapshots], dtype=float)
    values = np.stack([v for _, v in snapshots])
    return GriddedSolution(model, times, np.asarray(centers, dtype=float),
                           values)


def reversed_shock_solution(model: HamiltonianModel, times,
                            xs) -> GriddedSolution:
    """Negative control: the stationary profile with its jump flipped.

    Flipping the sign of the stationary profile still solves the balance
    law away from the origin and keeps the flux continuous across it,
    but the jump at x = 0 now increases, which no entropy solution
    allows.  Residuals for k between the one-sided values come out
    strongly negative.
    """
    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float)
    row = -asymptotic_profile(model, xs)
    return GriddedSolution(model, times, xs,
                           np.tile(row, (times.size, 1)))


# ===== Residual quadrature =====

def entropy_residual(solution: GriddedSolution, phi: TestFunction,
                     k: float) -> float:
    """Quadrature of the entropy inequality's left-hand side.

    Nonnegative up to discretization error for entropy solutions; see
    ``residual_floor`` for the error budget.  The initial term is active
    whenever the grid starts at t = 0.  ``k`` must be finite; a sum that
    overflows raises ``NonFinite``.
    """
    if not math.isfinite(k):
        raise DomainError(f"entropy constant k must be finite, got {k}")
    times, xs, u = solution.times, solution.xs, solution.values
    t_lo = max(phi.t0 - phi.rt, 0.0)
    if (t_lo < times[0] - 1e-12 or phi.t0 + phi.rt > times[-1] + 1e-12
            or phi.x0 - phi.rx < xs[0] - 1e-12
            or phi.x0 + phi.rx > xs[-1] + 1e-12):
        raise SupportNotCovered(
            f"support [{phi.t0 - phi.rt:.4g}, {phi.t0 + phi.rt:.4g}] x "
            f"[{phi.x0 - phi.rx:.4g}, {phi.x0 + phi.rx:.4g}] exceeds the "
            f"sampled rectangle")

    # phi = a(t) b(x) vanishes off the open support, so only the nodes
    # strictly inside it contribute to the space-time integral
    i0 = np.searchsorted(times, phi.t0 - phi.rt, side="right")
    i1 = np.searchsorted(times, phi.t0 + phi.rt, side="left")
    j0 = np.searchsorted(xs, phi.x0 - phi.rx, side="right")
    j1 = np.searchsorted(xs, phi.x0 + phi.rx, side="left")
    wt, wx = solution._wt, solution._wx
    xi_t = (times[i0:i1] - phi.t0) / phi.rt
    xi_x = (xs[j0:j1] - phi.x0) / phi.rx
    wa = wt[i0:i1] * _bump(xi_t)
    wa_t = wt[i0:i1] * _bump_slope(xi_t) / phi.rt
    wb = wx[j0:j1] * _bump(xi_x)
    wb_x = wx[j0:j1] * _bump_slope(xi_x) / phi.rx
    # two support blocks carry the three integrands: ``work`` holds
    # u - k, |u - k|, then u² - k²; ``sign`` holds sgn(u - k), then
    # sgn(u - k) (u² - k²)/2, so the source term reads it first
    u_in = u[i0:i1, j0:j1]
    work = np.subtract(u_in, k)
    sign = np.sign(work)
    flux_t = wa_t @ np.abs(work, out=work) @ wb
    source = wa @ sign @ (wb * solution._g_prime[j0:j1])
    np.subtract(np.multiply(u_in, u_in, out=work), k * k, out=work)
    np.multiply(np.multiply(sign, 0.5, out=sign), work, out=sign)
    total = float((flux_t + wa @ sign @ wb_x) - source)
    if times[0] == 0.0:
        total += float(np.dot(np.abs(u[0] - k) * phi.value(0.0, xs), wx))
    if not math.isfinite(total):
        raise NonFinite(f"entropy residual at k={k} is {total}")
    return total


def residual_floor(solution: GriddedSolution, phi: TestFunction) -> float:
    """Most-negative residual attributable to quadrature error alone."""
    dt_gap, dx_gap = solution.spacing
    return -FLOOR_C * (dt_gap + dx_gap) * phi.c1_norm() * phi.diameter()


# ===== Sweeps =====

@dataclass(frozen=True)
class EntropyReport:
    """Outcome of a randomized residual sweep."""

    k_values: np.ndarray
    residuals: np.ndarray
    floors: np.ndarray
    phis: tuple
    seed: int
    flags: list = field(default_factory=list)

    @property
    def min_residual(self) -> float:
        return float(np.min(self.residuals))

    @property
    def ok(self) -> bool:
        return not self.flags

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": int(self.residuals.size),
            "min_residual": self.min_residual,
            "flagged": list(self.flags),
            "tests": [
                {"t0": p.t0, "x0": p.x0, "rt": p.rt, "rx": p.rx,
                 "k": float(k), "residual": float(r), "floor": float(f)}
                for p, k, r, f in zip(self.phis, self.k_values,
                                      self.residuals, self.floors)
            ],
        }


def entropy_sweep(solution: GriddedSolution, n_tests: int,
                  seed: int = 0) -> EntropyReport:
    """Randomized (phi, k) sweep with a recorded seed.

    Half the k values walk a fixed grid over ``K_RANGE``, half are drawn
    uniformly; test-function centers and radii are drawn so the support
    always sits inside the sampled rectangle (touching t = 0 is allowed
    when the grid starts there, activating the initial term).
    ``n_tests`` must be an integer >= 1 and ``seed`` an integer >= 0.
    """
    _count("n_tests", n_tests, 1)
    _count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    times, xs = solution.times, solution.xs
    span_t = times[-1] - times[0]
    span_x = xs[-1] - xs[0]
    k_grid = np.linspace(K_RANGE[0], K_RANGE[1], max(n_tests // 2, 1))

    phis, ks, residuals, floors, flags = [], [], [], [], []
    for i in range(n_tests):
        rt = rng.uniform(0.1, 0.35) * span_t
        rx = rng.uniform(0.1, 0.35) * span_x
        lo_t = times[0] if times[0] == 0.0 else times[0] + rt
        t0 = rng.uniform(lo_t, times[-1] - rt)
        x0 = rng.uniform(xs[0] + rx, xs[-1] - rx)
        k = float(k_grid[i // 2 % k_grid.size]) if i % 2 == 0 else \
            float(rng.uniform(*K_RANGE))
        phi = TestFunction(t0, x0, rt, rx)
        r = entropy_residual(solution, phi, k)
        f = residual_floor(solution, phi)
        if r < f:
            flags.append(i)
        phis.append(phi)
        ks.append(k)
        residuals.append(r)
        floors.append(f)
    return EntropyReport(np.array(ks), np.array(residuals),
                         np.array(floors), tuple(phis), seed, flags)
