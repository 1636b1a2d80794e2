"""Flux models of the form H(x, p) = p**2/2 + g(x).

The potential g encodes all of the spatial dependence.  It is required to
be flat outside a bounded interval [-cutoff, cutoff] so that characteristics
are straight lines far from the origin.  The default model is a quartic
well, g(x) = 1 - (1 - x**2)**4 inside [-1, 1] and g = 1 outside, whose
force -g' is a hard-coded closed form; finite differences never drive
the dynamics.
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


def _quartic_force(x, out=None):
    # -g'(x) = -8 x (1-x^2)^3 on |x| <= 1 and -0.0 outside (NaN included),
    # as ((-8 x) y) y y; an array x is written into out when given
    if not isinstance(x, np.ndarray):
        y = 1.0 - x * x
        return -8.0 * x * y * y * y if y > 0.0 else -0.0
    y = np.multiply(x, x)
    np.subtract(1.0, y, out=y)
    out = np.multiply(-8.0, x, out=out)
    out *= y
    out *= y
    out *= y
    np.copyto(out, -0.0, where=~(y > 0.0))
    return out


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
# force must write into out what it returns and its tails be exactly flat.
_FORCE_PROBES = np.linspace(-4.0, 4.0, 401)


def _zero(x):
    if isinstance(x, np.ndarray):
        return np.zeros_like(x, dtype=float)
    return 0.0


def _zero_force(x, out=None):
    if isinstance(x, np.ndarray):
        return np.negative(_zero(x), out=out)
    return -0.0


def _zero_chord(d, d_top):
    return np.zeros(np.broadcast(d, d_top).shape)


@dataclass(frozen=True, eq=False)
class HamiltonianModel:
    """Potential g, the force -g', its chord slope and the flatness
    radius.

    The callables accept floats or numpy arrays.  ``force(x, out=None)``
    returns -g'(x), and writes it into the float array ``out`` of x's
    shape when given, as the batch RK4 march reads it on blocks of two
    rows; :meth:`g_prime`
    negates it.  Construction raises DomainError where ``force(x, out)``
    writes other bits than ``force(x)`` returns on fixed probe points.
    ``flat_value`` is the constant value of g outside
    [-cutoff, cutoff]; characteristics with momentum p and position x out
    there move in straight lines.  Construction raises DomainError where a
    probe past the cutoff has g != flat_value or g' != 0.
    ``chord_slope(d, d_top)`` is the slope of g between the points at
    depths d >= d_top >= 0 below the cutoff,
    (g(cutoff - d_top) - g(cutoff - d)) / (d - d_top), or g' where the two
    coincide; it must keep full precision as the points merge and next
    to the cutoff, since the arrival-time quadratures rest on it.
    Construction raises DomainError where g(-x) != g(x) on a probe.
    ``odd`` tells whether force(-x) == -force(x) on every probe, zeros of
    either sign matching; a batch march mirrors its launches only then.
    A model equals only itself, so caches keyed by it never mix two up.
    """

    name: str
    g: Callable
    force: Callable
    chord_slope: Callable
    cutoff: float
    flat_value: float
    odd: bool = field(init=False, repr=False)

    def __post_init__(self):
        # The batch march reads the force through out, on a block of rows,
        # and the rest its return.
        x = np.stack([_FORCE_PROBES, -_FORCE_PROBES])
        out = np.full_like(x, np.nan)
        self.force(x, out)
        force = np.asarray(self.force(x), dtype=float)
        bad = out.view(np.int64) != force.view(np.int64)
        if np.any(bad):
            raise DomainError(
                f"model {self.name!r}: force(x, out) writes other bits than "
                f"force(x) returns at x={float(x[bad][0])!r}")
        # Free flight moves an orbit past the cutoff in a straight line.
        g = np.asarray(self.g(x), dtype=float)
        bad = ((np.abs(_FORCE_PROBES) > self.cutoff)
               & ((g[0] != self.flat_value) | (force[0] != 0.0)))
        if np.any(bad):
            raise DomainError(
                f"model {self.name!r}: tail is not flat at "
                f"x={float(_FORCE_PROBES[bad][0])!r}; past the cutoff g must "
                f"be flat_value and g' zero")
        # charsol's odd reflection takes g to be even.
        bad = g[1] != g[0]
        if np.any(bad):
            raise DomainError(
                f"model {self.name!r}: g is not even at "
                f"x={float(_FORCE_PROBES[bad][0])!r}; g(-x) must be g(x)")
        object.__setattr__(self, "odd", bool(np.all(force[1] == -force[0])))

    def g_prime(self, x):
        """The gradient g'(x), minus the force."""
        return -self.force(x)

    def h(self, x, p):
        """Flux value H(x, p) = p**2/2 + g(x)."""
        return 0.5 * p * p + self.g(x)

    def flies_free(self, q, v):
        """Whether an orbit at q heading v (elementwise) is at or past the
        cutoff and moving outward, so g' is 0 wherever it goes."""
        return (q >= self.cutoff) & (v >= 0.0)

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
        force=_quartic_force,
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
        force=_zero_force,
        chord_slope=_zero_chord,
        cutoff=0.0,
        flat_value=0.0,
    )


MODELS = {"quartic": quartic_well, "homogeneous": homogeneous}

