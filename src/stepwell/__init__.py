"""stepwell: bound states of piecewise-constant 1D potentials by wave-function
matching, with closed-form Rayleigh-Schroedinger-style perturbation series for
polynomial perturbations."""

from .config import DEFAULT_SCAN, ScanConfig
from .errors import (
    DegenerateFrequencyError,
    DegeneracyParadoxError,
    NonFiniteDeterminantError,
    NormalizationObstructionError,
    NotARootError,
    PipelineError,
    RootNotConvergedError,
    SchemaError,
    SolverError,
    TruncationError,
)
from .oracle import (
    exact_perturbed_energy,
    fd_eigenvalues,
    fd_eigenvector,
    rs_first_order,
)
from .perturbation import (
    OrderBasis,
    OrderResult,
    SeriesResult,
    StateSeries,
    build_omega,
    build_order_basis,
    build_tau,
    run_series,
    solve_order,
)
from .potential import (
    PerturbationSpec,
    PotentialSpec,
    load_spec,
    local_frequency,
    parse_spec,
    spec_document,
)
from .trigbasis import (
    BandedOperator,
    TrigPoly,
    apply_hamiltonian,
    mul_polynomial,
    particular_solution,
    reanchor_poly,
)
from .zero_order import (
    DomainBasis,
    EigenvalueScan,
    MatchedState,
    build_domain_basis,
    find_eigenvalues,
    match_coefficients,
    matching_matrix,
    secular_determinant,
    sturm_count,
)

__version__ = "0.1.0"
