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

from .errors import DomainError, NonFinite, NotFound, _count
from .flow import _budget, _record_budget
from .model import HamiltonianModel

DEFAULT_CFL = 0.45
# steps between two measurements of the cells a march can change
_REWINDOW = 16


# ===== Grid and fields =====

@dataclass(frozen=True)
class Grid1D:
    """Uniform cell grid on [x_min, x_max] with n cells."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        _count("grid n", self.n, 4)
        if not (math.isfinite(self.x_max - self.x_min)
                and self.x_max > self.x_min):
            raise DomainError("grid needs x_max > x_min a finite width apart, "
                              f"got [{self.x_min}, {self.x_max}]")

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


def step_datum(grid: Grid1D) -> CellField:
    """The step datum: 2 for x > 0, -2 for x < 0."""
    return CellField(grid, np.where(grid.centers() > 0.0, 2.0, -2.0))


def l1_distance(field: CellField, values, window) -> float:
    """L1 distance between a field and an array of values over the cells
    whose centers lie in the closed ``window``."""
    x = field.grid.centers()
    inside = (x >= window[0]) & (x <= window[1])
    return float(np.sum(np.abs(field.values - values)[inside]) * field.grid.dx)


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


def _top(u) -> float:
    """max |u|, NaN when u holds a NaN and inf when it holds an inf."""
    return float(max(np.maximum.reduce(u), -np.minimum.reduce(u)))


def _stable_dt(top: float, dx: float, cfl: float) -> float:
    return cfl * dx / max(top, 1.0)


def _operands(ext, work, source) -> tuple:
    """The views one step of ``_update`` reads and writes over the
    ghost-padded window ``ext``: its cells, the states either side of
    each interface, four work rows shaped (4, interfaces) and the
    window's source.  A window keeps them for all of its steps."""
    sides, squares = work[:2], work[2:]
    flux = squares[0]
    return (ext[1:-1], ext[:-1], ext[1:], sides, sides[0], sides[1],
            squares, flux, squares[1], flux[1:], flux[:-1], sides[0, :-1],
            source)


def _update(ext, operands, dt: float, dx: float, half: bool) -> float:
    """One forward-Euler step of the cells ext[1:-1], in place, through
    the window's ``_operands``.

    Zero-gradient ghosts, except that a half march's left ghost is the
    mirror cell -u[0].  Each operation is the one the plain formula
    u - (dt/dx) * (F[1:] - F[:-1]) - dt * source performs, in its order,
    with F = godunov_flux of the padded field, so the result is the same
    to the bit.  Returns max |u| of the new field and raises NonFinite
    when that is not finite.
    """
    (u, left, right, sides, plus, minus, squares, flux, other, above, below,
     change, source) = operands
    ext[0] = -u[0] if half else u[0]
    ext[-1] = u[-1]
    np.maximum(left, 0.0, out=plus)
    np.minimum(right, 0.0, out=minus)
    np.multiply(sides, 0.5, out=squares)
    squares *= sides
    np.maximum(flux, other, out=flux)
    np.subtract(above, below, out=change)
    change *= dt / dx
    u -= change
    np.multiply(source, dt, out=change)
    u -= change
    top = _top(u)
    if not math.isfinite(top):
        raise NonFinite("finite-volume update produced non-finite values")
    return top


def _run(u, inert) -> int:
    """Length of the leading run of cells of u that equal u[0] bit for bit
    and whose source is +0.0 (``inert``): a step leaves every bit of them
    between equal neighbours.  Those give a flux difference of +0.0, and
    u - (+0.0) = u for every u, -0.0 included; a source of -0.0 would turn
    a -0.0 cell into +0.0.  A flux that overflows is no identity."""
    v = float(u[0])
    if not math.isfinite(0.5 * v * v):
        return 0
    same = u.view(np.int64) == u[:1].view(np.int64)
    same &= inert
    k = int(same.argmin())
    return u.size if same[k] else k


def _unfold(right) -> np.ndarray:
    """The whole odd field from its right half.  The left half is
    0.0 - the mirror, so a zero comes out +0.0 on both sides, as the
    full march's cancellations round it."""
    return np.concatenate([0.0 - right[::-1], right])


class _March:
    """One march of u0 toward t_final at the CFL bound, in place.

    Construction checks the inputs, refuses a non-finite datum, and
    charges the flow's budget the step count at the launch's CFL step
    times the cells it marches, so a march that would run for hours is
    refused before its first step.
    The field lives in one ghost-padded buffer; the grid's source term is
    evaluated once.

    A datum that is odd to the bit on a mirrored grid, under an odd
    source, marches only its right half.  The full march would keep such
    a field odd to the bit (the Godunov flux is even under
    (uL, uR) -> (-uR, -uL) and the update commutes with negation), so the
    half march, whose left ghost is -u[0], reproduces it exactly;
    ``values`` and ``cell`` unfold the left half on demand.
    """

    def __init__(self, model: HamiltonianModel, u0: CellField,
                 t_final: float, cfl: float, times=()):
        if not (np.isfinite(t_final) and t_final >= 0.0):
            raise DomainError(
                f"t_final must be finite and >= 0, got {t_final}")
        if not (0.0 < cfl <= 1.0):
            raise DomainError(f"cfl must be in (0, 1], got {cfl}")
        for s in times:
            if not (0.0 <= s <= t_final):
                raise DomainError(
                    f"snapshot times must lie in [0, {t_final}], got {s}")
        grid = u0.grid
        top = _top(u0.values)
        if not math.isfinite(top):
            raise NonFinite(f"datum is not finite (max |u| = {top})")
        source = model.g_prime(grid.centers())
        h = grid.n // 2
        self.half = (grid.x_min == -grid.x_max and grid.n % 2 == 0
                     and np.array_equal(source[::-1], -source)
                     and np.array_equal(_unfold(u0.values[h:]).view(np.int64),
                                        u0.values.view(np.int64)))
        self.offset = h if self.half else 0
        # a cfl far below 1 can underflow the step to 0, or overflow the
        # step count past any integer
        dt = _stable_dt(top, grid.dx, cfl)
        _budget(t_final / dt if dt > 0.0 else math.inf, grid.n - self.offset)
        self.t_final, self.cfl, self.dx, self.top = t_final, cfl, grid.dx, top
        self.marks = sorted({float(s) for s in times})
        self.source = source[self.offset:]
        self.inert = self.source.view(np.int64) == 0
        # a ghost-padded copy of the marched cells, and room for four work
        # rows, one per interface: the two one-sided states and their half
        # squares
        cells = u0.values[self.offset:]
        self.ext = np.empty(cells.size + 2)
        self.ext[1:-1] = cells
        self.work = np.empty(4 * (cells.size + 1))

    def __iter__(self):
        """Step to t_final, yielding (t, dt, mark) after each step.

        Steps shorten to land exactly on each mark in (0, t_final], and
        ``mark`` is the one landed on, or None.  The landing tolerance,
        1e-14, shrinks with a horizon below 1.

        Each step updates only the window of cells that can change
        (``_window``), measured every _REWINDOW steps until it covers the
        grid; every other cell keeps its bits under a full step, so every
        step and its dt are the full march's.  A window's operand views
        are built when it is measured, not per step.
        """
        pending = [m for m in self.marks if m > 0.0]
        t, top = 0.0, self.top
        tol = 1e-14 * min(self.t_final, 1.0)
        n = self.ext.size - 2
        lo, hi, rest, steps = 0, n, 0.0, 0
        while t < self.t_final - tol:
            if steps % _REWINDOW == 0 and (steps == 0 or hi - lo < n):
                lo, hi, rest = self._window()
                ext = self.ext[lo:hi + 2]
                operands = _operands(
                    ext, self.work[:4 * (hi - lo + 1)].reshape(4, -1),
                    self.source[lo:hi])
            horizon = pending[0] if pending else self.t_final
            dt = min(_stable_dt(top, self.dx, self.cfl), horizon - t,
                     self.t_final - t)
            top = rest
            if lo < hi:
                top = max(_update(ext, operands, dt, self.dx, self.half),
                          rest)
            t += dt
            steps += 1
            mark = None
            if pending and t >= pending[0] - tol:
                mark = pending.pop(0)
            yield t, dt, mark

    def _window(self):
        """(lo, hi, rest): the marched cells [lo, hi) that can change within
        the next _REWINDOW steps, and max |u| over the cells outside them.

        A leading or trailing run of cells that a step leaves as they are
        (``_run``) stays put until a change reaches it, and a change moves
        at most one cell per step.  So the window is everything else
        widened by _REWINDOW + 1 cells on each side; the zero-gradient
        ghost an edge of it writes into the next run cell is that cell's
        own value.  A half march keeps lo = 0, its left ghost being -u[0].
        """
        u = self.ext[1:-1]
        n, margin = u.size, _REWINDOW + 1
        lead = 0 if self.half else _run(u, self.inert)
        if lead == n:
            return 0, 0, abs(float(u[0]))
        trail = _run(u[::-1], self.inert[::-1])
        lo, hi = max(lead - margin, 0), min(n - trail + margin, n)
        rest = max(abs(float(u[0])) if lo > 0 else 0.0,
                   abs(float(u[-1])) if hi < n else 0.0)
        return lo, hi, rest

    def values(self) -> np.ndarray:
        """The whole field now, as a fresh array."""
        u = self.ext[1:-1]
        return _unfold(u) if self.half else u.copy()

    def cell(self, i: int) -> float:
        """The value of cell i now."""
        if i >= self.offset:
            return self.ext[1 + i - self.offset]
        return 0.0 - self.ext[self.offset - i]


@dataclass(frozen=True)
class EvolveResult:
    """Final state plus any requested snapshots (time, values) pairs."""

    final: CellField
    snapshots: tuple
    steps: int


def evolve(model: HamiltonianModel, u0: CellField, t_final: float,
           cfl: float = DEFAULT_CFL, snapshot_times=()) -> EvolveResult:
    """March to t_final, shortening steps to hit snapshots exactly.

    Each distinct snapshot time keeps the whole field, so more than
    ``flow._MAX_RECORD`` values over them are refused before the first
    step."""
    march = _March(model, u0, t_final, cfl, snapshot_times)
    _record_budget(len(march.marks), u0.grid.n,
                   f"snapshots at {len(march.marks)} distinct times of "
                   f"{u0.grid.n} cells")
    snaps = []
    if march.marks and march.marks[0] == 0.0:
        snaps.append((0.0, u0.values.copy()))
    count = 0
    for _, _, mark in march:
        count += 1
        if mark is not None:
            snaps.append((mark, march.values()))
    return EvolveResult(final=CellField(u0.grid, march.values()),
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
    march = _March(model, u0, t_max, cfl)
    for t, dt, _ in march:
        jump = float(march.cell(i_left) - march.cell(i_right))
        if prev_jump <= jump_threshold < jump:
            frac = (jump_threshold - prev_jump) / (jump - prev_jump)
            return t - dt + frac * dt
        prev_jump = jump
    raise NotFound(
        f"no upward jump crossing of {jump_threshold} at x=0 by t={t_max}")
