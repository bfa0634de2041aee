"""Exception types shared across the package."""


class DislodynError(Exception):
    """Base class for all package-specific errors."""


class NoBoundary(DislodynError):
    """Boundary query on a domain without a boundary (the whole plane)."""


class ParameterOrder(DislodynError, ValueError):
    """Geometric parameters violate their required ordering (e.g. delta >= gamma)."""


class CoincidentPoints(DislodynError, ValueError):
    """Two evaluation points closer than the coincidence tolerance."""


class PointOutside(DislodynError, ValueError):
    """Evaluation point lies outside the domain."""


class PointInsideDisk(PointOutside):
    """Point inside the excluded disk of an exterior-disk domain."""


class PreconditionViolated(DislodynError, ValueError):
    """A documented precondition of a bound or estimate does not hold."""


class UnboundedDomain(DislodynError, ValueError):
    """Operation requires a bounded domain (finite diameter)."""


class SolverDivergence(DislodynError, RuntimeError):
    """Linear solve behind a numeric kernel failed its residual check."""


class TargetTooCloseToBoundary(DislodynError, ValueError):
    """Numeric kernel target violates the resolution-dependent boundary margin."""


class NoConvergence(DislodynError, RuntimeError):
    """Iterative root solve failed to converge."""


class ZeroInitialCondition(DislodynError, ValueError):
    """Oracle initial condition placed exactly on the singular set."""


class Singularity(DislodynError, ValueError):
    """Reduced-ODE right-hand side evaluated at a coincidence singularity."""


class StartTooClose(DislodynError, ValueError):
    """Initial configuration within 2 eps_stop of the event set; no run starts."""


class ScenarioMismatch(DislodynError, ValueError):
    """Trajectory and bound report describe incompatible scenarios."""


class RejectionOverflow(DislodynError, RuntimeError):
    """Rejection sampling acceptance rate fell below the safety floor."""
