"""First-order finite-volume reference solver.

Godunov flux for the convex half of the flux plus a pointwise source
term for the spatial half, advanced with forward Euler under a CFL
bound.  This route never touches the characteristic machinery, so the
two solvers check each other.

The update splits H(x, u) = u**2/2 + g(x) into a Burgers flux handled by
the exact-Riemann (Godunov) interface value and a source -g'(x_i) added
pointwise; a well-balanced interface scheme would preserve the steady
profile exactly, the split scheme only to O(dx), and the steady-residual
test quantifies precisely that imbalance.

Cell centers on a symmetric domain are built as mirrored pairs so that an
odd datum stays odd to the last bit: the flux formula, the source, and
the boundary ghosts all commute with (x, u) -> (-x, -u) in exact
floating-point arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CflViolation, DomainError, NonFinite, NotFound
from .flow import _budget
from .model import HamiltonianModel

DEFAULT_CFL = 0.45


# ===== Grid and fields =====

@dataclass(frozen=True)
class Grid1D:
    """Uniform cell grid on [x_min, x_max] with n cells."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 4:
            raise DomainError(f"grid needs n >= 4, got {self.n}")
        if not (self.x_max > self.x_min):
            raise DomainError("grid needs x_max > x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    def centers(self) -> np.ndarray:
        """Cell centers x_min + (i + 1/2) dx, mirrored exactly when the
        domain is symmetric so center i and center n-1-i negate bitwise."""
        if self.x_min == -self.x_max and self.n % 2 == 0:
            half = self.x_max * ((2.0 * np.arange(self.n // 2) + 1.0)
                                 / self.n)
            return np.concatenate([-half[::-1], half])
        return self.x_min + (np.arange(self.n) + 0.5) * self.dx


@dataclass
class CellField:
    """Cell averages of u on a grid."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise DomainError("values length must match the cell count")

    def copy(self) -> "CellField":
        return CellField(self.grid, self.values.copy())


def step_datum(grid: Grid1D) -> CellField:
    """The step datum: 2 for x > 0, -2 for x < 0."""
    return CellField(grid, np.where(grid.centers() > 0.0, 2.0, -2.0))


def sample_datum(grid: Grid1D, fn) -> CellField:
    """Cell field sampled from a callable at cell centers."""
    return CellField(grid, np.asarray(fn(grid.centers()), dtype=float))


def l1_distance(field: CellField, other, window=None) -> float:
    """L1 distance between a field and an array (or field) of values."""
    v = other.values if isinstance(other, CellField) else np.asarray(other)
    diff = np.abs(field.values - v)
    if window is not None:
        x = field.grid.centers()
        diff = diff[(x >= window[0]) & (x <= window[1])]
    return float(np.sum(diff) * field.grid.dx)


# ===== Scheme =====

def godunov_flux(u_left, u_right):
    """Exact-Riemann interface flux for the convex flux u**2/2.

    Equals min over [u_left, u_right] of u**2/2 when u_left <= u_right
    and the max over the reversed interval otherwise; the closed form
    below covers both cases including the transonic rarefaction.
    """
    left = np.maximum(u_left, 0.0)
    right = np.minimum(u_right, 0.0)
    return np.maximum(0.5 * left * left, 0.5 * right * right)


def _stable_dt(u, dx: float, cfl: float) -> float:
    return cfl * dx / max(float(np.max(np.abs(u))), 1.0)


def cfl_dt(model: HamiltonianModel, field: CellField,
           cfl: float = DEFAULT_CFL) -> float:
    """Largest stable step: cfl * dx over the max wave speed (>= 1)."""
    return _stable_dt(field.values, field.grid.dx, cfl)


def _update(u, dt: float, dx: float, source):
    """Forward-Euler update with zero-gradient ghosts; source = g'(x_i)."""
    ext = np.concatenate([u[:1], u, u[-1:]])
    flux = godunov_flux(ext[:-1], ext[1:])
    new = u - (dt / dx) * (flux[1:] - flux[:-1]) - dt * source
    if not np.all(np.isfinite(new)):
        raise NonFinite("finite-volume update produced non-finite values")
    return new


def step(model: HamiltonianModel, field: CellField, dt: float,
         cfl: float = DEFAULT_CFL) -> CellField:
    """One forward-Euler step of the split Godunov scheme.

    Zero-gradient ghost cells; raises CflViolation when dt exceeds the
    stated bound and NonFinite if the update blows up.
    """
    u = field.values
    dx = field.grid.dx
    bound = _stable_dt(u, dx, cfl)
    if dt > bound * (1.0 + 1e-12):
        raise CflViolation(f"dt={dt} exceeds cfl*dx/max|u| = {bound}")
    return CellField(field.grid, _update(
        u, dt, dx, model.g_prime(field.grid.centers())))


def _march(model: HamiltonianModel, u0: CellField, t_final: float,
           cfl: float, marks=()):
    """Step u0 toward t_final at the CFL bound, yielding after each step.

    Yields (t, dt, values, mark): steps shorten to land exactly on each
    ascending mark in (0, t_final], and ``mark`` is the one landed on, or
    None.  The grid's source term is evaluated once per march.  Before
    the first step the flow's budget is charged the step count at the
    launch's CFL step, so a march that would run for hours is refused.
    """
    if not np.isfinite(t_final):
        raise DomainError(f"t_final must be finite, got {t_final}")
    if not (0.0 < cfl <= 1.0):
        raise DomainError(f"cfl must be in (0, 1], got {cfl}")
    dx = u0.grid.dx
    _budget(math.ceil(t_final / _stable_dt(u0.values, dx, cfl)), u0.grid.n)
    source = model.g_prime(u0.grid.centers())
    u = u0.values
    t = 0.0
    pending = list(marks)
    while t < t_final - 1e-14:
        horizon = pending[0] if pending else t_final
        dt = min(_stable_dt(u, dx, cfl), horizon - t, t_final - t)
        u = _update(u, dt, dx, source)
        t += dt
        mark = None
        if pending and t >= pending[0] - 1e-14:
            mark = pending.pop(0)
        yield t, dt, u, mark


@dataclass(frozen=True)
class EvolveResult:
    """Final state plus any requested snapshots (time, values) pairs."""

    final: CellField
    snapshots: tuple
    steps: int


def evolve(model: HamiltonianModel, u0: CellField, t_final: float,
           cfl: float = DEFAULT_CFL, snapshot_times=()) -> EvolveResult:
    """March to t_final, shortening steps to hit snapshots exactly."""
    if t_final < 0.0:
        raise DomainError(f"t_final must be >= 0, got {t_final}")
    marks = sorted({float(s) for s in snapshot_times
                    if 0.0 <= s <= t_final})
    values = u0.values.copy()
    snaps = []
    if marks and marks[0] == 0.0:
        snaps.append((0.0, values.copy()))
        marks.pop(0)
    count = 0
    for _, _, values, mark in _march(model, u0, t_final, cfl, marks):
        count += 1
        if mark is not None:
            snaps.append((mark, values.copy()))
    return EvolveResult(final=CellField(u0.grid, values),
                        snapshots=tuple(snaps), steps=count)


# ===== Shock detection =====

def detect_shock_formation(model: HamiltonianModel, u0: CellField,
                           t_max: float, jump_threshold: float = None,
                           cfl: float = DEFAULT_CFL) -> float:
    """First time the cell jump across x = 0 crosses the threshold upward.

    The jump is the difference between the cell left of 0 and the cell
    right of it.  Only an upward crossing counts: a datum that already
    jumps above the threshold (the stationary profile, say) never
    crosses and yields NotFound, as does a run that stays below.
    The returned time linearly interpolates the crossing step.
    """
    grid = u0.grid
    if jump_threshold is None:
        jump_threshold = 10.0 * grid.dx
    x = grid.centers()
    i_right = int(np.searchsorted(x, 0.0))
    i_left = i_right - 1
    if i_left < 0 or i_right >= grid.n:
        raise DomainError("grid must straddle x = 0")

    prev_jump = float(u0.values[i_left] - u0.values[i_right])
    for t, dt, values, _ in _march(model, u0, t_max, cfl):
        jump = float(values[i_left] - values[i_right])
        if prev_jump <= jump_threshold < jump:
            frac = (jump_threshold - prev_jump) / (jump - prev_jump)
            return t - dt + frac * dt
        prev_jump = jump
    raise NotFound(
        f"no upward jump crossing of {jump_threshold} at x=0 by t={t_max}")
