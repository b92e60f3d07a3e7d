"""Numerical floors of the solver and the scan configuration dataclass."""

from __future__ import annotations

from dataclasses import dataclass

BETA_MIN = 1e-8                # degeneracy floor on |beta|
REALITY_RTOL = 1e-8            # imaginary residue allowed, relative to local magnitude
FREQ_MATCH_RTOL = 1e-10        # agreement of V - E with -beta^2 in the operator
ROOT_TOL = 1e-9                # |normalized determinant| accepted as a root
REFINE_XTOL = 1e-13            # root refinement tolerance on E
MATCHING_RESIDUAL = 1e-10
CONDITION_LIMIT = 1e12         # order-k system condition number triggering the paradox flag
SERIES_BOUNDARY_RTOL = 1e-10
SERIES_M_MAX = 600


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
