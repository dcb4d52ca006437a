"""Exception hierarchy for the deformation toolkit.

Exit-code mapping used by the CLI: validation errors -> 2, solver bound
errors -> 3, internal invariant breaches -> 4.
"""


class NcdefError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(NcdefError):
    """Malformed input data (presentations, specs, reports)."""


class SchemaMismatch(ValidationError):
    """Two reports with incompatible schema versions."""


class UnsupportedIdeal(ValidationError):
    """Left ideal generators outside the supported monomial class."""


class InconsistentRelations(ValidationError):
    """A relation in a quotient forces an idempotent to vanish."""


class SolverBoundError(NcdefError):
    """A degree-bounded linear solve failed at the maximum bound."""


class StepBudgetExceeded(SolverBoundError):
    """Rewriting did not terminate within the configured step budget."""


class NotStabilized(SolverBoundError):
    """A truncated rank did not agree at two consecutive bounds."""


class NotACoboundary(SolverBoundError):
    """No bounded-degree cochain solves the coboundary equation."""


class ProjectionFailed(SolverBoundError):
    """A 2-cocycle could not be expanded over the certified basis."""


class InternalInvariantError(NcdefError):
    """An invariant the engine maintains was found violated."""


class ShapeMismatch(InternalInvariantError):
    """Cochain or matrix shapes incompatible with the resolutions."""


class NotACocycle(InternalInvariantError):
    """A cochain required to be a cocycle is not."""


class FlatnessViolated(InternalInvariantError):
    """A defining system fails the flatness (d*d = 0) condition."""
