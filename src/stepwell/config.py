"""Numerical floors of the solver and the scan configuration dataclass."""

from __future__ import annotations

from dataclasses import dataclass

BETA_MIN = 1e-8                # degeneracy floor on |beta|
FREQ_MATCH_RTOL = 1e-10        # agreement of V - E with -beta^2 in the operator
REFINE_XTOL = 1e-13            # root refinement tolerance on E
MATCHING_RESIDUAL = 1e-10
CONDITION_LIMIT = 1e12         # order-k system condition number triggering the paradox flag
STAIRCASE_RTOL = 1e-13         # spread of a polynomial zero order's last two extrapolants
STAIRCASE_CELLS_MAX = 8192     # cells of the finest staircase before TruncationError


@dataclass(frozen=True)
class ScanConfig:
    """Grid of the eigenvalue scan.

    find_eigenvalues evaluates the Pruefer angle sum of the Sturm count at
    ``points`` energies uniform in k = sqrt(E - min V).  The count says
    which grid cell brackets each eigenvalue, so the grid sets where
    refinement starts, not which eigenvalues are found.
    """

    points: int = 600

    def __post_init__(self) -> None:
        if self.points < 2:
            raise ValueError("scan resolution must be at least 2 points")


DEFAULT_SCAN = ScanConfig()
