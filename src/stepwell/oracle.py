"""Independent brute-force ground truth for tests and the validate command.

Finite-difference diagonalization of the full Hamiltonian (three-point
stencil on a breakpoint-aligned grid, Sturm-sequence bisection for the low
end of the spectrum, Richardson extrapolation across a grid doubling) and
Gauss-Legendre first-order integrals.  Nothing here shares code with the
matching solver; that is the point.  The one exception is
exact_perturbed_energy, the reference for the perturbation series, which
solves the exactly perturbed potential with the solver's independent
power-series backend.

scipy.linalg, the only scipy module used, is imported by the two FD
functions themselves, so importing the package does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import SolverError
from .potential import PerturbationSpec, PotentialSpec
from .zero_order import brentq, secular_determinant

__all__ = [
    "GridHamiltonian",
    "FdEigenvalues",
    "build_grid_hamiltonian",
    "fd_eigenvalues",
    "fd_eigenvector",
    "rs_first_order",
    "exact_perturbed_energy",
]


def _poly_cell_integral(coeffs, a: float, b: float) -> float:
    """Exact integral of a global-coordinate polynomial over [a, b]."""
    anti = npoly.polyint(np.asarray(coeffs, dtype=float))
    return float(npoly.polyval(b, anti) - npoly.polyval(a, anti))


def _cell_average(
    spec: PotentialSpec, pert: PerturbationSpec | None, lam: float, a: float, b: float
) -> float:
    """Exact average of V0 + lam V1 over the cell [a, b].

    Averaging (rather than point sampling) keeps the discretization error
    O(h^2) with breakpoints anywhere relative to the grid; a jump landing on
    a node automatically receives the mean of its two sides.
    """
    acc = 0.0
    for i in range(spec.n_intervals):
        lo = max(a, spec.breakpoints[i])
        hi = min(b, spec.breakpoints[i + 1])
        if hi <= lo:
            continue
        acc += spec.heights[i] * (hi - lo)
        if spec.zero_order_polys is not None:
            acc += _poly_cell_integral(spec.zero_order_polys[i], lo, hi)
        if pert is not None and lam != 0.0:
            acc += lam * _poly_cell_integral(pert.interval_polys[i], lo, hi)
    return acc / (b - a)


@dataclass(frozen=True)
class GridHamiltonian:
    """Symmetric tridiagonal discretization with Dirichlet truncation.

    The grid is uniform within each interval with every breakpoint sitting
    exactly on a node, so that refining each interval by the same factor
    leaves the jump geometry unchanged and the leading O(h^2) eigenvalue
    error extrapolates away cleanly.  Interval i receives cells of width
    h_i close to the nominal h = width / (m + 1); the three-point
    finite-volume stencil with node weights mu_i = (h_left + h_right) / 2
    yields a symmetric-definite generalized problem that reduces to the
    symmetric tridiagonal (diag, offdiag) stored here.  For a single
    interval this is exactly the textbook 2/h^2 + V_i stencil.
    """

    m: int
    h: float
    x: np.ndarray
    diag: np.ndarray
    offdiag: np.ndarray
    weights: np.ndarray
    cells: tuple[int, ...]


def _interval_cells(spec: PotentialSpec, m: int) -> tuple[int, ...]:
    """Cells per interval, proportional to width, at least one each."""
    width = spec.x_max - spec.x_min
    raw = [
        (spec.breakpoints[i + 1] - spec.breakpoints[i]) / width * (m + 1)
        for i in range(spec.n_intervals)
    ]
    cells = [max(1, int(round(r))) for r in raw]
    return tuple(cells)


def build_grid_hamiltonian(
    spec: PotentialSpec,
    pert: PerturbationSpec | None = None,
    lam: float = 0.0,
    m: int = 4000,
    refine: int = 1,
) -> GridHamiltonian:
    """Discretize -d^2/dx^2 + V0 + lam V1 on the breakpoint-aligned grid.

    ``refine`` multiplies every interval's cell count, halving (for
    refine = 2) each spacing exactly; m is the nominal total resolution.
    """
    if m < 3:
        raise ValueError("grid size m must be at least 3")
    cells = tuple(c * refine for c in _interval_cells(spec, m))
    xs: list[float] = []
    spacing_left: list[float] = []
    spacing_right: list[float] = []
    for i, n_i in enumerate(cells):
        a, b = spec.breakpoints[i], spec.breakpoints[i + 1]
        h_i = (b - a) / n_i
        for j in range(1, n_i):
            xs.append(a + j * h_i)
            spacing_left.append(h_i)
            spacing_right.append(h_i)
        if i < len(cells) - 1:
            xs.append(b)
            spacing_left.append(h_i)
            spacing_right.append(
                (spec.breakpoints[i + 2] - b) / (cells[i + 1])
            )
    x = np.asarray(xs)
    h_l = np.asarray(spacing_left)
    h_r = np.asarray(spacing_right)
    mu = 0.5 * (h_l + h_r)
    v = np.array(
        [
            _cell_average(spec, pert, lam, xi - hl / 2, xi + hr / 2)
            for xi, hl, hr in zip(x, h_l, h_r)
        ]
    )
    diag = (1.0 / h_l + 1.0 / h_r) / mu + v
    offdiag = -1.0 / (h_r[:-1] * np.sqrt(mu[:-1] * mu[1:]))
    nominal_h = (spec.x_max - spec.x_min) / (sum(cells))
    return GridHamiltonian(len(x), nominal_h, x, diag, offdiag, mu, cells)


@dataclass(frozen=True)
class FdEigenvalues:
    """Finite-difference spectrum with a grid-doubling error estimate.

    values holds the Richardson-extrapolated eigenvalues
    (4 E_fine - E_coarse) / 3; estimate holds |E_coarse - E_fine| / 3,
    the standard proxy for the fine grid's own O(h^2) error (the
    extrapolated values are better than that).
    """

    values: np.ndarray
    estimate: np.ndarray
    coarse: np.ndarray
    fine: np.ndarray
    m_coarse: int
    m_fine: int
    complete: bool


def fd_eigenvalues(
    spec: PotentialSpec,
    pert: PerturbationSpec | None = None,
    lam: float = 0.0,
    m: int = 4000,
    count: int = 4,
) -> FdEigenvalues:
    """Lowest ``count`` eigenvalues by Sturm-sequence bisection on two grids.

    The fine grid doubles every interval's cell count, halving each spacing
    exactly while reusing the coarse nodes, so the Richardson combination is
    clean.  If count exceeds the available grid dimension the result is
    truncated and flagged incomplete.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    if count < 1:
        raise ValueError("count must be at least 1")
    gh = build_grid_hamiltonian(spec, pert, lam, m)
    complete = True
    if count > gh.m:
        count = gh.m
        complete = False
    lowest = (0, count - 1)
    coarse = eigvalsh_tridiagonal(
        gh.diag, gh.offdiag, select="i", select_range=lowest, lapack_driver="stebz"
    )
    gh2 = build_grid_hamiltonian(spec, pert, lam, m, refine=2)
    fine = eigvalsh_tridiagonal(
        gh2.diag, gh2.offdiag, select="i", select_range=lowest, lapack_driver="stebz"
    )
    richardson = (4.0 * fine - coarse) / 3.0
    estimate = np.abs(coarse - fine) / 3.0
    return FdEigenvalues(richardson, estimate, coarse, fine, gh.m, gh2.m, complete)


def fd_eigenvector(
    spec: PotentialSpec,
    pert: PerturbationSpec | None = None,
    lam: float = 0.0,
    m: int = 20000,
    index: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Grid and L2-normalized eigenfunction samples for one state.

    The tridiagonal eigenvector lives in the volume-weighted variable
    u = sqrt(mu) psi; undoing the weight and normalizing against the
    quadrature sum mu psi^2 = 1 recovers the physical wave function.
    """
    from scipy.linalg import eigh_tridiagonal

    gh = build_grid_hamiltonian(spec, pert, lam, m)
    _, vec = eigh_tridiagonal(
        gh.diag, gh.offdiag, select="i", select_range=(index, index),
        lapack_driver="stebz",
    )
    psi = vec[:, 0] / np.sqrt(gh.weights)
    psi /= np.sqrt(np.sum(gh.weights * psi**2))
    return gh.x, psi


def rs_first_order(state, pert: PerturbationSpec) -> float:
    """Textbook first-order correction <psi|V1|psi> / <psi|psi> by quadrature.

    One Gauss-Legendre rule per interval, to respect the breakpoints; used
    only as a cross-check of the matching route, which never touches an
    integral.  On interval i, psi^2 V1 is a polynomial of V1's degree
    times a trig polynomial of frequency 2 sqrt(E - H_i); the node count
    integrates the first exactly and resolves the phase (or growth) of the
    second, with 16 nodes to spare.  The zero order is assumed piecewise
    constant.
    """
    spec = state.spec
    pieces = state.global_pieces()
    num = 0.0
    den = 0.0
    for i, piece in enumerate(pieces):
        a, b = spec.breakpoints[i], spec.breakpoints[i + 1]
        poly = pert.interval_polys[i]
        beta = math.sqrt(abs(state.energy - spec.heights[i]))
        n = (len(poly) - 1) // 2 + 1 + math.ceil(2 * beta * (b - a)) + 16
        nodes, weights = np.polynomial.legendre.leggauss(n)
        xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        psi2 = 0.5 * (b - a) * weights * piece.eval(xs) ** 2
        num += float(np.dot(psi2, npoly.polyval(xs, poly)))
        den += float(np.sum(psi2))
    return num / den


def exact_perturbed_energy(
    spec: PotentialSpec, pert: PerturbationSpec, lam: float, guess: float
) -> float:
    """E(lam) of V0 + lam V1 solved exactly, the level nearest ``guess``.

    The perturbation is folded into the zero order as interval polynomials
    and solved by the power-series backend (truncation 60).  The bracket
    grows outward from guess +- 0.05 max(1, |guess|), doubling until the
    determinant changes sign, and the root is refined to 1e-14.
    """
    polys = tuple(tuple(lam * c for c in poly) for poly in pert.interval_polys)
    pspec = PotentialSpec(spec.breakpoints, spec.heights, polys)

    def det(e: float) -> float:
        return secular_determinant(pspec, e, series_m=60)

    span = 0.05 * max(1.0, abs(guess))
    lo, hi = guess - span, guess + span
    flo, fhi = det(lo), det(hi)
    while flo * fhi > 0:
        span *= 2
        lo, hi = guess - span, guess + span
        flo, fhi = det(lo), det(hi)
        if span > 1e3:
            raise SolverError("could not bracket the perturbed eigenvalue")
    return brentq(det, lo, hi, xtol=1e-14, rtol=8.9e-16)
