"""Perturbation corrections by domain matching, order by order.

For a polynomial perturbation of a piecewise-constant potential every
order-k right-hand side is a trigonometric polynomial on each domain, so
the order-k corrections come out in closed form.  Per domain j the ansatz
is

    psi_k = X_j C_j^(k) + (1 - X_j) S_j^(k) + eps omega_j + xi_j psi_0,

where C^(k)/S^(k) solve the order-k inhomogeneous equation with cosine and
sine-like initial data at the anchor, omega_j solves H omega = psi_0 with
zero initial data (order-independent, built once), eps is the energy
correction, and the psi_0 admixtures xi_j enforce the per-domain rescaling
c_k(j) + d_k(j) = 1.  Both C^(k) and S^(k) carry the same particular
solution P_k, the one with zero initial data at the anchor, so they are
represented as P_k + C_0 and P_k + S_0 with the zero-order pair: only P_k
is built per order, and C^(k) - S^(k) = C_0 - S_0.  Matching values at the
breakpoints plus the two wall conditions close a real 2N-dimensional
linear system in (X_1..X_N, Z_2..Z_N, eps) with Z_{j+1} = xi_{j+1} - xi_j;
the first offset is gauge (xi_1 = 0).  Its matrix holds zero-order values
only and does not depend on k.

A plain box (no interior breakpoint) is handled by splitting it at its
midpoint, which changes nothing physically; there the matched state has
|c + d| = 1 at every level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_SCAN, DEFAULT_TOL, ScanConfig, Tolerances
from .errors import (
    DegeneracyParadoxError,
    NonFiniteDeterminantError,
    PipelineError,
    SchemaError,
    SequencingError,
    SolverError,
)
from .potential import PerturbationSpec, PotentialSpec
from .trigbasis import (
    TrigPoly,
    apply_hamiltonian,
    mul_polynomial,
    particular_solution,
    reanchor_poly,
)
from .zero_order import (
    EigenvalueScan,
    MatchedState,
    find_eigenvalues,
    match_coefficients,
    overlap_gap,
    pieces_on_overlaps,
)

__all__ = [
    "OmegaSet",
    "TauSet",
    "OrderBasis",
    "OrderResult",
    "StateSeries",
    "SeriesResult",
    "build_omega",
    "build_tau",
    "build_order_basis",
    "solve_order",
    "run_series",
]

_SIDES = ("left", "right")


def _with_initial_data(particular: TrigPoly) -> TrigPoly:
    """particular minus the homogeneous combination of its value and slope
    at its anchor, so that both vanish there."""
    p = particular.cos_coeffs
    q = particular.sin_coeffs
    u0 = p[0]
    u1 = (p[1] if len(p) > 1 else 0.0) + particular.freq * q[0]
    new_p = p.copy()
    new_q = q.copy()
    new_p[0] -= u0
    new_q[0] -= u1 / particular.freq
    return TrigPoly(particular.anchor, particular.freq, new_p, new_q)


def _zero_data_solutions(state: MatchedState, rhs_pairs, tol: Tolerances):
    """Per-domain (left, right) solutions of H u = rhs with zero value and
    slope at the anchor, and their values at the domain ends L_{j -/+ 1}.

    Raises NonFiniteDeterminantError when an end value overflows.
    """
    pieces = []
    at_lo = np.empty(state.n_domains)
    at_hi = np.empty(state.n_domains)
    for j, (basis, rhs_pair) in enumerate(zip(state.bases, rhs_pairs)):
        pair = tuple(
            _with_initial_data(particular_solution(rhs, tol=tol)) for rhs in rhs_pair
        )
        pieces.append(pair)
        at_lo[j] = pair[0].eval(basis.x_lo, tol=tol)
        at_hi[j] = pair[1].eval(basis.x_hi, tol=tol)
        if not (math.isfinite(at_lo[j]) and math.isfinite(at_hi[j])):
            raise NonFiniteDeterminantError(
                f"particular solution on domain {j + 1} is not finite at its "
                f"ends ({at_lo[j]}, {at_hi[j]}) at E = {state.energy!r}"
            )
    return tuple(pieces), at_lo, at_hi


@dataclass(frozen=True)
class OmegaSet:
    """Per-domain solutions of H omega = psi_0 with zero initial data at the anchor.

    Order-independent: built once per state and reused by every order.
    Boundary values at L_{j -/+ 1} are cached for the matching system.
    """

    pieces: tuple[tuple[TrigPoly, TrigPoly], ...]
    at_lo: np.ndarray
    at_hi: np.ndarray


@dataclass(frozen=True)
class TauSet:
    """Order-dependent right-hand side, one (left, right) piece pair per domain."""

    k: int
    pieces: tuple[tuple[TrigPoly, TrigPoly], ...]


@dataclass(frozen=True)
class OrderBasis:
    """Order-k particular solutions P_k of H P = tau with zero initial data.

    One (left, right) piece pair per domain, with value and slope zero at
    the anchor; C^(k) = P_k + C_0 and S^(k) = P_k + S_0 with the state's
    zero-order pair.  Boundary values at L_{j -/+ 1} are cached for the
    matching system, as in OmegaSet.
    """

    k: int
    pieces: tuple[tuple[TrigPoly, TrigPoly], ...]
    at_lo: np.ndarray
    at_hi: np.ndarray


@dataclass(frozen=True)
class OrderResult:
    """One perturbation order: energy correction, coefficients, wave pieces.

    x_coeffs[j-1] = c_k(j) with d_k(j) = 1 - c_k(j); z_offsets are the
    determined differences Z_2..Z_N, and xi the accumulated offsets with
    the gauge xi_1 = 0.  domain_pieces holds the per-domain (left, right)
    representations; global_pieces the non-overlapping cover of the box.
    """

    k: int
    energy: float
    x_coeffs: np.ndarray
    z_offsets: np.ndarray
    xi: np.ndarray
    domain_pieces: tuple[tuple[TrigPoly, TrigPoly], ...]
    global_pieces: tuple[TrigPoly, ...]
    condition: float
    boundary_residual: float
    matching_residual: float
    overlap_gap: float


def build_omega(state: MatchedState, *, tol: Tolerances = DEFAULT_TOL) -> OmegaSet:
    """Solve H omega_j = psi_0 on every domain with zero initial data."""
    return OmegaSet(*_zero_data_solutions(state, state.domain_pieces(), tol))


def build_tau(
    k: int,
    state: MatchedState,
    history: list[OrderResult],
    pert: PerturbationSpec,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> TauSet:
    """Order-k right-hand side tau_(k-1) = -V1 psi_(k-1) + sum_i E_i psi_(k-i).

    The sum runs over i = 1..k-1 (standard Rayleigh-Schroedinger
    bookkeeping); it is empty at first order.  Each domain keeps its own
    local frequency, so the result stays inside the resonant algebra.
    """
    if k < 1:
        raise ValueError("tau is defined for orders k >= 1")
    if len(history) < k - 1:
        raise SequencingError(
            f"order {k} needs history through order {k - 1}, have {len(history)}"
        )
    psi0 = state.domain_pieces()
    pieces = []
    for j in range(1, state.n_domains + 1):
        basis = state.bases[j - 1]
        pair = []
        for s, side in enumerate(_SIDES):
            interval = j - 1 if side == "left" else j
            local_poly = reanchor_poly(pert.interval_polys[interval], basis.anchor)
            prev = psi0[j - 1][s] if k == 1 else history[k - 2].domain_pieces[j - 1][s]
            tau = -1.0 * mul_polynomial(prev, local_poly)
            for i in range(1, k):
                # psi_(k-i) with k-i >= 1 throughout the sum
                tau = tau + history[i - 1].energy * history[k - i - 1].domain_pieces[j - 1][s]
            pair.append(tau)
        pieces.append(tuple(pair))
    return TauSet(k, tuple(pieces))


def build_order_basis(
    state: MatchedState, tau: TauSet, *, tol: Tolerances = DEFAULT_TOL
) -> OrderBasis:
    """Order-k particular solutions of H P = tau with zero initial data on
    every domain."""
    return OrderBasis(tau.k, *_zero_data_solutions(state, tau.pieces, tol))


def solve_order(
    state: MatchedState,
    omega: OmegaSet,
    basis: OrderBasis,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> OrderResult:
    """Assemble and solve the 2N matching-plus-boundary system of one order.

    With C = C_0 and S = S_0 the state's zero-order pair and P = P_k:
    Row (j, left), the condition at L_{j-1}:
        X_j (C - S) + eps omega_j(L_{j-1}) - X_{j-1} + Z_j c0(j-1) = -(P + S)
    Row (j, right), the condition at L_{j+1}:
        X_j (C - S) + eps omega_j(L_{j+1}) - X_{j+1} - Z_{j+1} c0(j+1) = -(P + S)
    with boundary terms dropping out at the walls (c0(0) = c0(N+1) = 0,
    X_0 = X_{N+1} = 0).  Unknown ordering (X_1..X_N, Z_2..Z_N, eps); for a
    single domain this is exactly the two-by-two boundary system in
    (X, eps).  Only the right-hand side depends on k, so the condition
    number is the same at every order; beyond the configured limit it is
    flagged as the degeneracy paradox rather than silently regularized.
    The correction on domain j is
        psi_k = P + (X_j + xi_j c(j)) C + (1 - X_j + xi_j d(j)) S + eps omega_j.
    """
    n = state.n_domains
    size = 2 * n
    a = np.zeros((size, size))
    b = np.zeros(size)
    eps_col = size - 1

    def z_col(jj: int) -> int:
        # columns N..2N-2 hold Z_2..Z_N
        return n + jj - 2

    for j in range(1, n + 1):
        zero = state.bases[j - 1]
        row = 2 * (j - 1)
        a[row, j - 1] = zero.c_at_lo - zero.s_at_lo
        a[row, eps_col] = omega.at_lo[j - 1]
        if j >= 2:
            a[row, j - 2] = -1.0
            a[row, z_col(j)] = state.c_value(j - 1)
        b[row] = -(basis.at_lo[j - 1] + zero.s_at_lo)

        a[row + 1, j - 1] = zero.c_at_hi - zero.s_at_hi
        a[row + 1, eps_col] = omega.at_hi[j - 1]
        if j <= n - 1:
            a[row + 1, j] = -1.0
            a[row + 1, z_col(j + 1)] = -state.c_value(j + 1)
        b[row + 1] = -(basis.at_hi[j - 1] + zero.s_at_hi)

    condition = float(np.linalg.cond(a))
    if not np.isfinite(condition) or condition > tol.condition_limit:
        raise DegeneracyParadoxError(
            f"order-{basis.k} system condition {condition:.3e} beyond "
            f"{tol.condition_limit:.1e}; vanishing determinant would signal a "
            "degenerate unperturbed level"
        )
    u = np.linalg.solve(a, b)
    x = u[:n]
    z = u[n : size - 1]
    eps = float(u[eps_col])
    xi = np.zeros(n)
    for j in range(1, n):
        xi[j] = xi[j - 1] + z[j - 1]

    domain_pieces = []
    for j in range(1, n + 1):
        zero = state.bases[j - 1]
        c, d = state.coeffs[j - 1]
        x_j, xi_j = x[j - 1], xi[j - 1]
        domain_pieces.append(tuple(
            basis.pieces[j - 1][s]
            + (x_j + xi_j * c) * zero.piece("c", side)
            + (1.0 - x_j + xi_j * d) * zero.piece("s", side)
            + eps * omega.pieces[j - 1][s]
            for s, side in enumerate(_SIDES)
        ))
    global_pieces = [domain_pieces[0][0]]
    for j in range(1, n + 1):
        global_pieces.append(domain_pieces[j - 1][1])

    spec = state.spec
    boundary_residual = max(
        abs(global_pieces[0].eval(spec.x_min, tol=tol)),
        abs(global_pieces[-1].eval(spec.x_max, tol=tol)),
    )
    matching_residual = 0.0
    for j in range(1, n + 1):
        expected = x[j - 1] + xi[j - 1] * state.c_value(j)
        left_val = global_pieces[j - 1].eval(spec.breakpoints[j], tol=tol)
        right_val = global_pieces[j].eval(spec.breakpoints[j], tol=tol)
        matching_residual = max(
            matching_residual, abs(left_val - expected), abs(right_val - expected)
        )

    return OrderResult(
        basis.k,
        eps,
        x,
        z,
        xi,
        tuple(domain_pieces),
        tuple(global_pieces),
        condition,
        boundary_residual,
        matching_residual,
        overlap_gap(spec, pieces_on_overlaps(domain_pieces, tol=tol)),
    )


def equation_residual(
    state: MatchedState,
    result: OrderResult,
    tau: TauSet,
    *,
    samples: int = 50,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Max residual of the order-k differential equation over all pieces.

    Checks H psi_k - tau - eps psi_0 = 0 pointwise; the algebra is exact,
    so anything beyond rounding indicates a bookkeeping bug.
    """
    spec = state.spec
    psi0 = state.domain_pieces()
    worst = 0.0
    cover = [(1, 0)] + [(j, 1) for j in range(1, state.n_domains + 1)]
    for i, (j, s) in enumerate(cover):
        piece = result.global_pieces[i]
        res_poly = (
            apply_hamiltonian(piece, -piece.freq * piece.freq, tol=tol)
            - tau.pieces[j - 1][s]
            - result.energy * psi0[j - 1][s]
        )
        xs = np.linspace(spec.breakpoints[i], spec.breakpoints[i + 1], samples)
        worst = max(worst, float(np.max(np.abs(res_poly.value(xs)))))
    return worst


@dataclass(frozen=True)
class StateSeries:
    """Series data for a single unperturbed level."""

    matched: MatchedState
    orders: tuple[OrderResult, ...]
    equation_residuals: tuple[float, ...]
    overlaps: tuple[float, ...]

    @property
    def energies(self) -> tuple[float, ...]:
        return (self.matched.energy,) + tuple(o.energy for o in self.orders)

    def energy_at(self, coupling: float) -> float:
        """Partial sum of the series at a concrete coupling value."""
        return float(
            sum(e * coupling**k for k, e in enumerate(self.energies))
        )

    def diagnostics(self) -> dict:
        orders = self.orders
        return {
            "max_equation_residual": max(self.equation_residuals, default=0.0),
            "max_matching_residual": max(
                (o.matching_residual for o in orders), default=0.0
            ),
            "max_boundary_residual": max(
                (o.boundary_residual for o in orders), default=0.0
            ),
            "max_overlap_gap": max((o.overlap_gap for o in orders), default=0.0),
            "max_condition": max((o.condition for o in orders), default=1.0),
            "zero_order_residual": self.matched.residual,
            "zero_order_overlap_gap": self.matched.overlap_gap,
            "overlaps_psi0_psik": list(self.overlaps),
        }


@dataclass(frozen=True)
class SeriesResult:
    """Perturbation series for every requested state in the window."""

    states: tuple[StateSeries, ...]
    scan: EigenvalueScan
    embedded_spec: PotentialSpec | None = None


def quad(pa: TrigPoly, pb: TrigPoly, a: float, b: float) -> float:
    """Integral of pa * pb over [a, b] by one Gauss-Legendre rule.

    The product is a polynomial of degree deg_a + deg_b times a trig
    polynomial of frequency up to 2 beta; the node count covers the
    polynomial exactly and resolves |2 beta| (b - a) of phase or growth,
    with 16 nodes to spare.
    """
    freq = max(abs(pa.freq), abs(pb.freq))
    n = (pa.degree + pb.degree) // 2 + 1 + math.ceil(2 * freq * (b - a)) + 16
    nodes, weights = np.polynomial.legendre.leggauss(n)
    xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.dot(weights, pa.eval(xs) * pb.eval(xs)))


def _piecewise_overlap(spec: PotentialSpec, pieces_a, pieces_b) -> float:
    return sum(
        quad(pieces_a[i], pieces_b[i], spec.breakpoints[i], spec.breakpoints[i + 1])
        for i in range(spec.n_intervals)
    )


def _series_for_state(spec, pert, e0, order_max, tol) -> StateSeries:
    try:
        state = match_coefficients(spec, e0, tol=tol)
    except SolverError as exc:
        raise PipelineError("S2:match", exc) from exc
    try:
        omega = build_omega(state, tol=tol)
    except SolverError as exc:
        raise PipelineError("S3:omega", exc) from exc
    history: list[OrderResult] = []
    taus: list[TauSet] = []
    for k in range(1, order_max + 1):
        try:
            tau = build_tau(k, state, history, pert, tol=tol)
            basis = build_order_basis(state, tau, tol=tol)
        except SolverError as exc:
            raise PipelineError(f"S4:order-{k}", exc) from exc
        try:
            result = solve_order(state, omega, basis, tol=tol)
        except SolverError as exc:
            raise PipelineError(f"S5:order-{k}", exc) from exc
        history.append(result)
        taus.append(tau)
    residuals = tuple(
        equation_residual(state, res, tau, tol=tol)
        for res, tau in zip(history, taus)
    )
    overlaps = tuple(
        _piecewise_overlap(spec, state.global_pieces(), res.global_pieces)
        for res in history
    )
    return StateSeries(state, tuple(history), residuals, overlaps)


def run_series(
    spec: PotentialSpec,
    pert: PerturbationSpec | None,
    e_window: tuple[float, float],
    order_max: int,
    *,
    max_states: int | None = None,
    tol: Tolerances = DEFAULT_TOL,
    scan: ScanConfig = DEFAULT_SCAN,
) -> SeriesResult:
    """Full pipeline: zero-order spectrum plus corrections through order_max.

    Stages: local bases and the eigenvalue scan (S1, S2), the
    order-independent omega functions (S3), then per order the right-hand
    side and its particular solutions (S4), the 2N linear solve (S5),
    iterated in k (S6).  Any stage failure is re-raised as PipelineError
    with the stage label.  order_max = 0 reduces to the zero-order
    pipeline.  A plain box is split at a fictitious breakpoint at its
    midpoint, where a constant box's matched (c, d) is proportional to
    (sin(n pi/2), k cos(n pi/2)), so c + d never vanishes.
    """
    if order_max < 0:
        raise ValueError("order_max must be >= 0")
    if order_max >= 1 and pert is None:
        raise SchemaError("perturbation orders requested but no perturbation given")
    if spec.zero_order_polys is not None and order_max >= 1:
        raise SchemaError(
            "perturbation corrections around piecewise-polynomial zero orders "
            "are not supported; only the zero-order problem handles interval "
            "polynomials"
        )

    try:
        scan_result = find_eigenvalues(
            spec, e_window[0], e_window[1], count=max_states, scan=scan, tol=tol
        )
    except SolverError as exc:
        raise PipelineError("S2:scan", exc) from exc

    embedded: PotentialSpec | None = None
    if spec.n_interior == 0:
        midpoint = spec.x_min + 0.5 * (spec.x_max - spec.x_min)
        embedded = spec.with_fictitious_breakpoint(midpoint)
        pert = pert.split_interval(0) if pert is not None else None
    states = tuple(
        _series_for_state(embedded or spec, pert, e0, order_max, tol)
        for e0 in scan_result.energies
    )
    return SeriesResult(states, scan_result, embedded)
