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
    the energy and the interval.  Also raised when an order-k particular
    solution of the perturbation series overflows at a domain end.
    """


class RootNotConvergedError(SolverError):
    """Root refinement ran out of iterations before the bracket closed."""


class DegenerateFrequencyError(SolverError):
    """Local frequency below the degeneracy floor; resonant algebra undefined."""


class FrequencyMismatchError(SolverError):
    """Operator offset inconsistent with the trig polynomial's frequency."""


class NotARootError(SolverError):
    """Coefficient extraction requested at an energy that is not a determinant root."""


class DegeneracyParadoxError(SolverError):
    """Singular matching system: vanishing determinant or non-simple null space."""


class NormalizationObstructionError(SolverError):
    """Never raised since the series stopped rescaling each domain to
    c(j) + d(j) = 1; kept because the benchmark harness imports it."""


class TruncationError(SolverError):
    """The staircase extrapolation of a polynomial zero order did not
    converge: the spread of its last two extrapolants stayed above
    STAIRCASE_RTOL up to STAIRCASE_CELLS_MAX cells."""


class SequencingError(SolverError):
    """Perturbation orders must be built consecutively from complete history."""


class PipelineError(SolverError):
    """Failure inside the series pipeline, tagged with the stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
