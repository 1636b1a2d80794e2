"""Exception types shared across the package, and its one count check."""

import math
from numbers import Integral


class HetclawError(Exception):
    """Base class for all package-specific failures."""


class DomainError(HetclawError, ValueError):
    """An argument lies outside the range an operation is defined on."""


class EnergyDrift(HetclawError):
    """Integrator energy error exceeded the requested tolerance."""


class NonFinite(HetclawError):
    """A computed state stopped being finite."""


class NotFound(HetclawError):
    """An event or root was not located within the search horizon."""


class BracketFailure(HetclawError):
    """A root bracket could not be established."""


class NonMonotoneFeet(HetclawError):
    """Backward-characteristic feet are not nondecreasing."""


class SupportNotCovered(HetclawError):
    """A test function's support sticks out of the sampled grid."""


def _count(name: str, value, lowest: int, highest: float = math.inf) -> None:
    """Refuse, by name, a ``value`` that is not an integer from ``lowest``
    to ``highest``; a bool is not a count."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or not lowest <= value <= highest):
        span = (f">= {lowest}" if highest == math.inf
                else f"from {lowest} to {highest}")
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")
