"""Flux models of the form H(x, p) = p**2/2 + g(x).

The potential g encodes all of the spatial dependence.  It is required to
be flat outside a bounded interval [-cutoff, cutoff] so that characteristics
are straight lines far from the origin.  The default model is a quartic
well, g(x) = 1 - (1 - x**2)**4 inside [-1, 1] and g = 1 outside, whose
first and second derivatives are hard-coded closed forms.  Finite
differences are used only as a consistency check, never to drive the
dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError


def _quartic_g(x):
    # 1 - (1-x^2)^4 in the factored form x^2 (2-x^2) (1 + (1-x^2)^2),
    # which keeps full relative precision near x = 0 where the naive
    # difference loses everything to cancellation.
    y = 1.0 - x * x
    if isinstance(x, np.ndarray):
        return np.where(y > 0.0, x * x * (2.0 - x * x) * (1.0 + y * y), 1.0)
    return x * x * (2.0 - x * x) * (1.0 + y * y) if y > 0.0 else 1.0


def _quartic_g_prime(x):
    # d/dx [1 - (1-x^2)^4] = 8 x (1-x^2)^3 on |x| <= 1, zero outside
    y = 1.0 - x * x
    if isinstance(x, np.ndarray):
        return np.where(y > 0.0, 8.0 * x * y * y * y, 0.0)
    return 8.0 * x * y * y * y if y > 0.0 else 0.0


def _quartic_force(x, out):
    # -g'(x) into out as ((-8 x) y) y y: under round-to-nearest
    # (-a) b = -(a b), so each product is the negated one of
    # _quartic_g_prime's, and -0.0 where y > 0 fails (NaN included) is
    # its negated zero
    y = np.multiply(x, x)
    np.subtract(1.0, y, out=y)
    np.multiply(-8.0, x, out=out)
    out *= y
    out *= y
    out *= y
    flat = np.greater(y, 0.0)
    np.logical_not(flat, out=flat)
    np.copyto(out, -0.0, where=flat)


def _quartic_g_second(x):
    # 8 (1-x^2)^3 - 48 x^2 (1-x^2)^2 on |x| <= 1; matches 0 at |x| = 1, so
    # the potential is C^3 across the matching points.
    y = 1.0 - x * x
    if isinstance(x, np.ndarray):
        return np.where(y > 0.0, 8.0 * y * y * y - 48.0 * x * x * y * y, 0.0)
    return 8.0 * y * y * y - 48.0 * x * x * y * y if y > 0.0 else 0.0


def _quartic_chord(d, d_top):
    # With y = 1 - x^2 = d (2 - d) at depth d = 1 - x below the cutoff,
    # g(1 - d_top) - g(1 - d) = y^4 - y_top^4 factors as
    # (d - d_top) (2 - d - d_top) (y + y_top) (y^2 + y_top^2), so the
    # chord slope keeps full relative precision as the two points merge
    # and next to the cutoff, where g itself rounds to 1.
    y = d * (2.0 - d)
    yt = d_top * (2.0 - d_top)
    return (2.0 - d - d_top) * (y + yt) * (y * y + yt * yt)


# Fixed finite probes, over the well and its flat tails, on which a model's
# force must be -g_prime to the bit.
_FORCE_PROBES = np.linspace(-4.0, 4.0, 401)


def _zero(x):
    if isinstance(x, np.ndarray):
        return np.zeros_like(x, dtype=float)
    return 0.0


def _zero_force(x, out):
    out.fill(-0.0)


def _zero_chord(d, d_top):
    return np.zeros(np.broadcast(d, d_top).shape)


@dataclass(frozen=True)
class HamiltonianModel:
    """Potential triple (g, g', g''), the force, its chord slope and the
    flatness radius.

    The callables accept floats or numpy arrays, except ``force(x, out)``,
    which writes -g'(x) for the array x into the float array ``out`` of
    its shape, equal to -g_prime(x) to the bit; the batch RK4 march reads
    it.  Construction raises DomainError where the two differ on a fixed
    grid of probe points, so replacing one means replacing both.
    ``flat_value`` is the constant value of g outside
    [-cutoff, cutoff]; characteristics with momentum p and position x out
    there move in straight lines.
    ``chord_slope(d, d_top)`` is the slope of g between the points at
    depths d >= d_top >= 0 below the cutoff,
    (g(cutoff - d_top) - g(cutoff - d)) / (d - d_top), or g' where the two
    coincide; it must keep full precision as the points merge and next
    to the cutoff, since the arrival-time quadratures rest on it.
    """

    name: str
    g: Callable = field(compare=False)
    g_prime: Callable = field(compare=False)
    force: Callable = field(compare=False)
    g_second: Callable = field(compare=False)
    chord_slope: Callable = field(compare=False)
    cutoff: float
    flat_value: float

    def __post_init__(self):
        # A model copied with a new g_prime alone would keep the old force,
        # and its batch marches would follow the old gradient.
        out = np.empty_like(_FORCE_PROBES)
        self.force(_FORCE_PROBES, out)
        want = -np.asarray(self.g_prime(_FORCE_PROBES), dtype=float)
        bad = out.view(np.int64) != want.view(np.int64)
        if np.any(bad):
            raise DomainError(
                f"model {self.name!r}: force is not -g_prime at "
                f"x={float(_FORCE_PROBES[bad][0])!r}; replace both together")

    def h(self, x, p):
        """Flux value H(x, p) = p**2/2 + g(x)."""
        return 0.5 * p * p + self.g(x)

    def below_flat(self, d):
        """flat - g at depth d >= 0 below the cutoff, exact next to it."""
        return d * self.chord_slope(d, 0.0)

    @property
    def separatrix_momentum(self) -> float:
        """Momentum at x = 0 of the orbit with energy equal to flat_value."""
        return float(np.sqrt(2.0 * self.flat_value))


@lru_cache(maxsize=None)
def quartic_well() -> HamiltonianModel:
    """The default model: quartic potential well, flat at 1 outside [-1, 1]."""
    return HamiltonianModel(
        name="quartic",
        g=_quartic_g,
        g_prime=_quartic_g_prime,
        force=_quartic_force,
        g_second=_quartic_g_second,
        chord_slope=_quartic_chord,
        cutoff=1.0,
        flat_value=1.0,
    )


@lru_cache(maxsize=None)
def homogeneous() -> HamiltonianModel:
    """Sanity-mode model with g identically zero (straight characteristics)."""
    return HamiltonianModel(
        name="homogeneous",
        g=_zero,
        g_prime=_zero,
        force=_zero_force,
        g_second=_zero,
        chord_slope=_zero_chord,
        cutoff=0.0,
        flat_value=0.0,
    )


MODELS = {"quartic": quartic_well, "homogeneous": homogeneous}


# ===== Assumption checks =====

@dataclass
class AssumptionReport:
    """Result of sampling the structural assumptions on a model.

    The checks never abort; every violation is recorded as a human-readable
    string so a caller can decide what to do with a bad model.
    """

    flat_tails: bool
    derivatives_consistent: bool
    violations: list

    @property
    def all_ok(self) -> bool:
        return self.flat_tails and self.derivatives_consistent


def check_assumptions(model: HamiltonianModel, xs=None) -> AssumptionReport:
    """Sample-test flatness and derivative consistency.

    Args:
        model: model to check.
        xs: sample positions; defaults to 1001 points on [-2-cutoff, 2+cutoff].
    """
    # central finite-difference step, and the allowed mismatch between
    # hard-coded and differenced derivatives
    fd_step, fd_tol = 1e-5, 1e-6
    if xs is None:
        half = 2.0 + model.cutoff
        xs = np.linspace(-half, half, 1001)
    xs = np.asarray(xs, dtype=float)
    violations = []

    # flat tails: g constant and g' zero outside the cutoff radius
    tails = xs[np.abs(xs) > model.cutoff + fd_step]
    flat_tails = True
    if tails.size:
        gv = model.g(tails)
        gpv = model.g_prime(tails)
        bad = np.abs(gv - model.flat_value) > 1e-12
        bad_p = np.abs(gpv) > 1e-12
        if np.any(bad) or np.any(bad_p):
            flat_tails = False
            for x in tails[bad | bad_p][:5]:
                violations.append(f"tail not flat at x={x:.6g}")

    # central differences of g against g', and of g' against g''
    fd_prime = (model.g(xs + fd_step) - model.g(xs - fd_step)) / (2.0 * fd_step)
    fd_second = (model.g_prime(xs + fd_step)
                 - model.g_prime(xs - fd_step)) / (2.0 * fd_step)
    err_p = np.abs(fd_prime - model.g_prime(xs))
    err_s = np.abs(fd_second - model.g_second(xs))
    derivatives_consistent = True
    if np.any(err_p > fd_tol) or np.any(err_s > fd_tol):
        derivatives_consistent = False
        for x in xs[err_p > fd_tol][:5]:
            violations.append(f"g' inconsistent with g near x={x:.6g}")
        for x in xs[err_s > fd_tol][:5]:
            violations.append(f"g'' inconsistent with g' near x={x:.6g}")

    return AssumptionReport(
        flat_tails=flat_tails,
        derivatives_consistent=derivatives_consistent,
        violations=violations,
    )
