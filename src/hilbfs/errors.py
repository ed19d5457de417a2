"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array shapes do not match the operation's contract."""


class HermitianDefectError(ValueError):
    """A matrix fails the hermiticity tolerance; carries worst entry indices."""

    def __init__(self, message, indices=None, defect=None):
        super().__init__(message)
        self.indices = indices
        self.defect = defect


class DefinitenessError(ValueError):
    """Cholesky pivot failure; ``pivot`` is the first failing index."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class ConfigurationError(ValueError):
    """Invalid build parameters (node counts below exactness thresholds, etc.)."""


class VariantError(ValueError):
    """Volume-form variant incompatible with the model's geometry."""


class CurvaturePositivityError(RuntimeError):
    """Computed curvature density is non-positive somewhere; carries worst node."""

    def __init__(self, message, node=None, value=None):
        super().__init__(message)
        self.node = node
        self.value = value


class MassDefectError(RuntimeError):
    """A curvature volume failed the exact-mass cross-check."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class ConvergenceError(RuntimeError):
    """Newton-type iteration did not reach tolerance; carries residual history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class MomentInfeasibleError(ConvergenceError):
    """Moment target lies outside the achievable cone of positive densities."""

    def __init__(self, message, row=None, diagnostics=None, history=None):
        super().__init__(message, history=history)
        self.row = row
        self.diagnostics = diagnostics or {}


class ContinuationError(RuntimeError):
    """Continuation step size underflowed; carries the trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class MarginError(ValueError):
    """Target too close to the boundary of the positive-definite cone."""


class StageError(RuntimeError):
    """Pipeline failure wrapped with the stage name."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


class IllConditionedWarning(UserWarning):
    """Form condition number exceeds 1e8; downstream tolerances degrade."""
