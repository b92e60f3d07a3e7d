"""Independent brute-force ground truth for tests and the validate command.

Finite-difference diagonalization of the full Hamiltonian (three-point
stencil on a breakpoint-aligned grid, Sturm-sequence bisection for the low
end of the spectrum, Richardson extrapolation across a grid doubling) and
Gauss-Legendre first-order integrals.  Nothing here shares code with the
matching solver; that is the point.  The one exception is
exact_perturbed_energy, the reference for the perturbation series, which
solves the exactly perturbed potential with the solver's own
find_eigenvalues, on extrapolated staircases: a route independent of the
series, not of the zero-order solver.

Everything runs on numpy alone: the Sturm counts come from odd-even
elimination of the tridiagonal matrix, the eigenvector from inverse
iteration.  The tests cross-check both against scipy's LAPACK tridiagonal
solvers, which the package itself never imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ScanConfig
from .errors import SolverError
from .potential import PerturbationSpec, PotentialSpec
from .zero_order import find_eigenvalues

__all__ = [
    "GridHamiltonian",
    "FdEigenvalues",
    "build_grid_hamiltonian",
    "fd_eigenvalues",
    "fd_eigenvector",
    "rs_first_order",
    "fd_rs_series",
    "exact_perturbed_energy",
]


def _poly_cell_integral(coeffs, a, b):
    """Exact integral of a global-coordinate polynomial over [a, b],
    elementwise over arrays of ends."""
    npoly = np.polynomial.polynomial
    anti = npoly.polyint(np.asarray(coeffs, dtype=float))
    return npoly.polyval(b, anti) - npoly.polyval(a, anti)


def _cell_average(spec: PotentialSpec, pert: PerturbationSpec | None, lam: float, a, b):
    """Exact average of V0 + lam V1 over the cell [a, b], elementwise over
    arrays of cells.

    Averaging (rather than point sampling) keeps the discretization error
    O(h^2) with breakpoints anywhere relative to the grid; a jump landing on
    a node automatically receives the mean of its two sides.  Each cell sums
    its intervals left to right, the height term before the polynomial ones.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    acc = np.zeros(np.broadcast(a, b).shape)
    for i in range(spec.n_intervals):
        lo = np.maximum(a, spec.breakpoints[i])
        hi = np.minimum(b, spec.breakpoints[i + 1])
        inside = hi > lo
        acc = np.where(inside, acc + spec.heights[i] * (hi - lo), acc)
        if spec.zero_order_polys is not None:
            integral = _poly_cell_integral(spec.zero_order_polys[i], lo, hi)
            acc = np.where(inside, acc + integral, acc)
        if pert is not None and lam != 0.0:
            integral = _poly_cell_integral(pert.interval_polys[i], lo, hi)
            acc = np.where(inside, acc + lam * integral, acc)
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
    bp = spec.breakpoints
    spacing = [(bp[i + 1] - bp[i]) / n_i for i, n_i in enumerate(cells)]
    xs, spacing_left, spacing_right = [], [], []
    for i, n_i in enumerate(cells):
        # the interior nodes of interval i, then its right breakpoint
        xs.append(bp[i] + np.arange(1, n_i) * spacing[i])
        spacing_left.append(np.full(n_i - 1, spacing[i]))
        spacing_right.append(np.full(n_i - 1, spacing[i]))
        if i < len(cells) - 1:
            xs.append([bp[i + 1]])
            spacing_left.append([spacing[i]])
            spacing_right.append([spacing[i + 1]])
    x = np.concatenate(xs)
    h_l = np.concatenate(spacing_left)
    h_r = np.concatenate(spacing_right)
    mu = 0.5 * (h_l + h_r)
    v = _cell_average(spec, pert, lam, x - h_l / 2, x + h_r / 2)
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
    extrapolated values are better than that), but at least the
    bisection's own error in the values, (4 t_fine + t_coarse) / 3 with t
    each grid's bisection tolerance (_bisection_tolerance).
    """

    values: np.ndarray
    estimate: np.ndarray
    coarse: np.ndarray
    fine: np.ndarray
    m_coarse: int
    m_fine: int
    complete: bool


# dstebz's constants: the smallest pivot magnitude is _SAFMIN max(1, max b^2),
# the Gershgorin interval is widened by _FUDGE (n eps ||T|| + pivmin).
_EPS = float(np.finfo(float).eps)
_SAFMIN = float(np.finfo(float).tiny)
_FUDGE = 2.1
# Largest |b^2 / pivot| an elimination may form, relative to a bound on
# ||T||, before that shift is counted again row by row.
_GROWTH = 16.0
# Points of the halving chain that _lowest_eigenvalues counts in one call.
_CHAIN_BLOCK = 8


def _pivmin(off2: np.ndarray) -> float:
    return _SAFMIN * max(1.0, float(np.max(off2, initial=0.0)))


def _row_count(diag: list, off2: list, shift: float, pivmin: float) -> int:
    """dstebz's count for one shift: the pivots of T - shift I row by row
    (off2 carries a leading 0)."""
    count, q = 0, 1.0
    for a, b2 in zip(diag, off2):
        q = a - shift - b2 / q
        if abs(q) < pivmin:
            q = -pivmin
        count += q < 0.0
    return count


def _negative_count(diag: np.ndarray, off2: np.ndarray, shifts) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal T below each shift x.

    T has diagonal ``diag`` and squared off-diagonal ``off2``.  By
    Sylvester's law of inertia the count is the number of negative pivots
    of T - xI, eliminated in any order.  Odd-even elimination takes every
    other row at once: the eliminated pivots are counted, and the kept rows
    form the tridiagonal Schur complement a'_i = a_i - b_{i-1}^2 / a_{i-1}
    - b_i^2 / a_{i+1}, b'^2 = b_i^2 b_{i+1}^2 / a_{i+1}^2 of half the size.
    That is log2 m numpy passes over all rows and shifts.  A pivot with
    |a| < pivmin becomes -pivmin, as in LAPACK's dstebz.

    Unlike the row-by-row count, the elimination is not backward stable
    when a pivot is small next to its off-diagonals: the huge terms
    b^2 / a cancel a level later.  A shift whose terms grow past _GROWTH
    times a bound on ||T|| is therefore counted again row by row.
    """
    shifts = np.asarray(shifts, dtype=float)
    pivmin = _pivmin(off2)
    norm = float(np.max(np.abs(diag))) + 2.0 * math.sqrt(float(np.max(off2, initial=0.0)))
    limit = _GROWTH * norm
    count = np.zeros(len(shifts), dtype=np.int64)
    grown = np.zeros(len(shifts), dtype=bool)
    a, b2 = diag - shifts[:, None], off2
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            e = a[:, 0::2]
            e = np.where(np.abs(e) < pivmin, -pivmin, e)
            count += np.count_nonzero(e < 0.0, axis=1)
            n = a.shape[1]
            if n == 1:
                break
            # b2[i] couples rows i and i + 1, of which the even one goes
            t = b2 / np.repeat(e, 2, axis=1)[:, 1:n]
            grown |= np.max(np.abs(t), axis=1) > limit
            a = a[:, 1::2] - t[:, 0::2]
            a[:, : (n - 1) // 2] -= t[:, 1::2]
            b2 = t[:, 1:-1:2] * t[:, 2::2]
    if grown.any():
        rows, couplings = diag.tolist(), [0.0] + off2.tolist()
        count[grown] = [_row_count(rows, couplings, x, pivmin) for x in shifts[grown].tolist()]
    return count


def _gershgorin(diag: np.ndarray, offdiag: np.ndarray) -> tuple[float, float]:
    """The ends of the Gershgorin interval of a symmetric tridiagonal matrix."""
    radius = np.abs(np.concatenate([offdiag, [0.0]])) + np.abs(np.concatenate([[0.0], offdiag]))
    return float(np.min(diag - radius)), float(np.max(diag + radius))


def _bisection_tolerance(diag: np.ndarray, offdiag: np.ndarray) -> float:
    """dstebz's absolute tolerance max(eps ||T||, pivmin), ||T|| bounded by
    the larger Gershgorin end.  _lowest_eigenvalues bisects every level
    whose |E| is below ||T|| / 2 to an interval narrower than this, so its
    midpoint is within half of it."""
    gl, gu = _gershgorin(diag, offdiag)
    return max(_EPS * max(abs(gl), abs(gu)), _pivmin(offdiag * offdiag))


def _lowest_eigenvalues(diag: np.ndarray, offdiag: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of a symmetric tridiagonal matrix.

    Bisection of Sturm counts, every eigenvalue in lock-step with one
    _negative_count call per step for all unfinished ones, from dstebz's
    widened Gershgorin interval down to dstebz's own tolerance: until the
    interval is narrower than eps max(|Gershgorin end|) (at least pivmin)
    or 2 eps times its ends.  Returns the midpoints.

    Every eigenvalue halves the top down along one chain while its points
    count all ``count`` levels below.  The chain is made first and counted
    from its bottom up, _CHAIN_BLOCK points a call, so that its points in
    the bulk, where the count runs row by row, are never evaluated;
    bisection from its lowest point that counts all levels visits the same
    midpoints as from the Gershgorin top.
    """
    off2 = offdiag * offdiag
    gl, gu = _gershgorin(diag, offdiag)
    tnorm = max(abs(gl), abs(gu))
    pivmin = _pivmin(off2)
    pad = _FUDGE * (tnorm * _EPS * len(diag) + pivmin)
    bottom = gl - pad - _FUDGE * pivmin
    atol = _bisection_tolerance(diag, offdiag)
    chain = [gu + pad]
    while chain[-1] - bottom >= max(atol, 2.0 * _EPS * max(abs(bottom), abs(chain[-1]))):
        chain.append(0.5 * (bottom + chain[-1]))
    top = chain[0]
    for end in range(len(chain), 1, -_CHAIN_BLOCK):
        block = chain[max(1, end - _CHAIN_BLOCK) : end]
        full = np.flatnonzero(_negative_count(diag, off2, block) >= count)
        if len(full):
            top = block[full[-1]]
            break
    lo = np.full(count, bottom)
    hi = np.full(count, top)
    index = np.arange(count)
    while True:
        width = np.maximum(atol, 2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))
        active = np.flatnonzero(hi - lo >= width)
        if not len(active):
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo[active] + hi[active])
        # eigenvalues not yet separated share their trial point
        shifts, lane = np.unique(mid, return_inverse=True)
        above = _negative_count(diag, off2, shifts)[lane] > index[active]
        hi[active[above]] = mid[above]
        lo[active[~above]] = mid[~above]


def _inverse_iteration(diag: np.ndarray, offdiag: np.ndarray, shift: float) -> np.ndarray:
    """Unit eigenvector of the tridiagonal matrix for the eigenvalue
    ``shift`` (to bisection accuracy): two solves with the LDL^T
    factorization of T - shift I, from a fixed pseudo-random start.  A
    pivot below eps ||T|| in magnitude is replaced by eps ||T||.  The sign
    makes the largest component positive, as LAPACK's dstein does."""
    n = len(diag)
    tiny = _EPS * (float(np.max(np.abs(diag))) + 2.0 * float(np.max(np.abs(offdiag), initial=0.0)))
    a, b = (diag - shift).tolist(), offdiag.tolist()
    d, ell = [0.0] * n, [0.0] * (n - 1)
    q = a[0]
    for i in range(n - 1):
        d[i] = q if abs(q) >= tiny else tiny
        ell[i] = b[i] / d[i]
        q = a[i + 1] - ell[i] * b[i]
    d[n - 1] = q if abs(q) >= tiny else tiny
    inv_d = 1.0 / np.array(d)
    y = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    for _ in range(2):
        z = y.tolist()
        for i in range(1, n):
            z[i] -= ell[i - 1] * z[i - 1]
        w = (np.array(z) * inv_d).tolist()
        for i in range(n - 2, -1, -1):
            w[i] -= ell[i] * w[i + 1]
        y = np.array(w)
        y /= np.max(np.abs(y))
    y /= np.linalg.norm(y)
    return y if y[np.argmax(np.abs(y))] > 0 else -y


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
    if count < 1:
        raise ValueError("count must be at least 1")
    gh = build_grid_hamiltonian(spec, pert, lam, m)
    complete = True
    if count > gh.m:
        count = gh.m
        complete = False
    coarse = _lowest_eigenvalues(gh.diag, gh.offdiag, count)
    gh2 = build_grid_hamiltonian(spec, pert, lam, m, refine=2)
    fine = _lowest_eigenvalues(gh2.diag, gh2.offdiag, count)
    richardson = (4.0 * fine - coarse) / 3.0
    t_coarse = _bisection_tolerance(gh.diag, gh.offdiag)
    t_fine = _bisection_tolerance(gh2.diag, gh2.offdiag)
    estimate = np.maximum(np.abs(coarse - fine) / 3.0, (4.0 * t_fine + t_coarse) / 3.0)
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
    gh = build_grid_hamiltonian(spec, pert, lam, m)
    if not 0 <= index < gh.m:
        raise ValueError(f"index must lie in [0, {gh.m}) for this grid")
    energy = _lowest_eigenvalues(gh.diag, gh.offdiag, index + 1)[index]
    psi = _inverse_iteration(gh.diag, gh.offdiag, float(energy)) / np.sqrt(gh.weights)
    psi /= np.sqrt(np.sum(gh.weights * psi**2))
    return gh.x, psi


def rs_first_order(state, pert: PerturbationSpec) -> float:
    """Textbook first-order correction <psi|V1|psi> / <psi|psi> by quadrature.

    One Gauss-Legendre rule per interval, to respect the breakpoints; used
    only as a cross-check of the matching route, which never touches an
    integral.  On interval i, psi^2 V1 is a polynomial of V1's degree
    times a trig polynomial of frequency 2 sqrt(E - H_i); the node count
    integrates the first exactly and resolves the phase (or growth) of the
    second, with 16 nodes to spare.  The state's pieces are read, so a
    spec with zero_order_polys, which has none, raises SchemaError.
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
        num += float(np.dot(psi2, np.polynomial.polynomial.polyval(xs, poly)))
        den += float(np.sum(psi2))
    return num / den


def fd_rs_series(
    spec: PotentialSpec, pert: PerturbationSpec, orders: int, index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Rayleigh-Schroedinger corrections E_0..E_orders of level ``index`` on
    the finite-difference grid: an independent reference for the matching
    series (Dalgarno-Lewis recursion, dense eigendecomposition).

    On each grid psi_k = R (sum_i E_i psi_(k-i) - V_1 psi_(k-1)), with R the
    reduced resolvent of H_0 and V_1 its exact cell averages, so that psi_k
    is orthogonal to psi_0 and E_k = <psi_0|V_1|psi_(k-1)>.  Grids of m, 2m
    and 4m nominal cells (every interval refined by 1, 2 and 4) are
    combined by two Richardson steps, which remove the h^2 and h^4 terms.
    Returns the values and, as their error estimate, their distance from
    the one-step extrapolation of the two finer grids.  H_0 reads the exact
    cell averages of the heights and of zero_order_polys, so a polynomial
    zero order is handled like a piecewise-constant one.  m = 300: dense,
    4m = 1200 takes about 0.3 s, and at m = 700 rounding makes the double
    well's E_28 10x worse.
    """
    m = 300
    flat = PotentialSpec(spec.breakpoints, (0.0,) * spec.n_intervals)
    grids = []
    for refine in (1, 2, 4):
        gh = build_grid_hamiltonian(spec, None, 0.0, m, refine)
        mid = 0.5 * (np.concatenate([[spec.x_min], gh.x]) + np.concatenate([gh.x, [spec.x_max]]))
        v1 = _cell_average(flat, pert, 1.0, mid[:-1], mid[1:])
        h0 = np.diag(gh.diag) + np.diag(gh.offdiag, 1) + np.diag(gh.offdiag, -1)
        levels, vectors = np.linalg.eigh(h0)
        gaps = levels - levels[index]
        gaps[index] = np.inf
        psi, energies = [vectors[:, index]], [levels[index]]
        for k in range(1, orders + 1):
            energies.append(psi[0] @ (v1 * psi[k - 1]))
            rhs = sum(energies[i] * psi[k - i] for i in range(1, k)) - v1 * psi[k - 1]
            psi.append(vectors @ ((vectors.T @ rhs) / gaps))
        grids.append(np.array(energies))
    once = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(grids, grids[1:])]
    values = (16.0 * once[1] - once[0]) / 15.0
    return values, np.abs(values - once[1])


def exact_perturbed_energy(
    spec: PotentialSpec, pert: PerturbationSpec, lam: float, guess: float
) -> float:
    """E(lam) of V0 + lam V1 solved exactly, the level nearest ``guess``.

    The perturbation is folded into the zero order as interval polynomials,
    whose levels find_eigenvalues extrapolates from staircases.  The window
    guess +- 0.05 max(1, |guess|), then doubled up to +- 1e3, is searched
    until find_eigenvalues, on a three-point grid, finds a level in it; it
    brackets each staircase's levels by the Sturm count and refines to 1e-14.
    """
    polys = tuple(tuple(lam * c for c in poly) for poly in pert.interval_polys)
    pspec = PotentialSpec(spec.breakpoints, spec.heights, polys)
    span = 0.05 * max(1.0, abs(guess))
    while span <= max(1e3, 0.05 * abs(guess)):
        levels = find_eigenvalues(
            pspec, guess - span, guess + span, scan=ScanConfig(points=3), xtol=1e-14
        ).energies
        if levels:
            return min(levels, key=lambda e: abs(e - guess))
        span *= 2
    raise SolverError("could not bracket the perturbed eigenvalue")
