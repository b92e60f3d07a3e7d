"""Exception types shared across the solver."""


class SolverError(Exception):
    """Base class for all stepwell errors."""


class SchemaError(SolverError):
    """Input document failed validation; the message carries the field path."""


class DegenerateEnergyError(SolverError):
    """Energy coincides with an interval height within the degeneracy floor.

    The local frequency vanishes there and the trigonometric basis breaks
    down.  Move the energy (the window or the scan grid) off the height; a
    common shift of all heights and the window moves nothing, because it
    leaves E - H_i unchanged.
    """


class NonFiniteDeterminantError(SolverError):
    """Matching determinant is NaN or infinite at a non-degenerate energy.

    Happens when a boundary value overflows, e.g. cosh(kappa w) for
    kappa w above about 710 behind a tall, wide barrier; the message names
    the energy and the interval.
    """


class RootNotConvergedError(SolverError):
    """Root refinement ran out of iterations before the bracket closed."""


class DegenerateFrequencyError(SolverError):
    """Local frequency below the degeneracy floor; resonant algebra undefined."""


class FrequencyMismatchError(SolverError):
    """Operator offset inconsistent with the trig polynomial's frequency."""


class RealityError(SolverError):
    """A value that must be real came out with a large imaginary residue."""


class NotARootError(SolverError):
    """Coefficient extraction requested at an energy that is not a determinant root."""


class DegeneracyParadoxError(SolverError):
    """Singular matching system: vanishing determinant or non-simple null space."""


class NormalizationObstructionError(SolverError):
    """c(j) + d(j) vanishes for some domain; the order-k rescaling is impossible."""


class TruncationError(SolverError):
    """Power-series basis did not converge at the requested truncation."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SequencingError(SolverError):
    """Perturbation orders must be built consecutively from complete history."""


class PipelineError(SolverError):
    """Failure inside the series pipeline, tagged with the stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
