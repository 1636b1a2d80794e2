"""Exception types shared across the package."""


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
