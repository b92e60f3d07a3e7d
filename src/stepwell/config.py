"""Tolerance and scan configuration dataclasses."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numerical floors and acceptance thresholds used throughout the solver."""

    beta_min: float = 1e-8          # degeneracy floor on |beta|
    reality_rtol: float = 1e-8      # imaginary residue allowed, relative to local magnitude
    freq_match_rtol: float = 1e-10  # agreement of V - E with -beta^2 in the operator
    root_tol: float = 1e-9          # |normalized determinant| accepted as a root
    refine_xtol: float = 1e-13      # root refinement tolerance on E
    matching_residual: float = 1e-10
    condition_limit: float = 1e12   # order-k system condition number triggering the paradox flag
    series_boundary_rtol: float = 1e-10
    series_m_max: int = 600


DEFAULT_TOL = Tolerances()


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
