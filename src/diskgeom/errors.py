"""Exception and warning types shared across the package."""


class DiskGeomError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DiskGeomError):
    """Argument outside the open unit disk, or an invalid parameter domain."""


class UnsupportedError(DiskGeomError):
    """Requested operation is outside the supported contract for this spec."""


class ResourceError(DiskGeomError):
    """A computation would exceed its sample or memory budget."""


class UnivalenceError(DiskGeomError):
    """Operation requires an injective map, but the sampled check failed."""


class NormalizationError(DiskGeomError):
    """Caller-supplied spec does not satisfy the required normalization."""


class GridError(DiskGeomError):
    """Radius grid does not have the spacing structure the check needs."""


class QuadratureError(DiskGeomError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class CriticalPointError(DiskGeomError):
    """Derivative vanishes (to tolerance) where the formula needs it nonzero."""


class OptimizationWarning(UserWarning):
    """Multi-start optimizer restarts disagreed beyond the error estimate."""


class ConditioningWarning(UserWarning):
    """Input is close to degenerate; results may lose digits."""
