"""Perturbation corrections by domain matching, order by order.

For a polynomial perturbation of a piecewise-constant potential every
order-k right-hand side is a trigonometric polynomial on each domain, so
the order-k corrections come out in closed form.  Per domain j

    psi_k = P_k + a_j C_0 + b_j S_0 + eps omega_j,

where P_k solves the order-k equation with zero value and slope at the
anchor, C_0/S_0 is the zero-order pair, omega_j solves H omega = psi_0 with
zero initial data (built once per state) and eps is the energy correction.
Matching values at the breakpoints gives the zero-order matching matrix in
(a, b), bordered by the omega column and one gauge row; it holds zero-order
values only and does not depend on k.  The psi_0 share of each solution is
then projected out, so every correction is orthogonal to psi_0.

A plain box (no interior breakpoint) is split at its midpoint, because
matching needs a breakpoint; any split point would do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .config import CONDITION_LIMIT
from .errors import (
    DegeneracyParadoxError,
    NonFiniteDeterminantError,
    PipelineError,
    SchemaError,
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
    _matching_values,
    _stacked_matrices,
    cover,
    find_eigenvalues,
    match_coefficients,
    overlap_gap,
)

__all__ = [
    "OmegaSet",
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
# one (left, right) piece pair per domain
PiecePairs = tuple[tuple[TrigPoly, TrigPoly], ...]


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


def _zero_data_solutions(state: MatchedState, rhs_pairs):
    """Per-domain (left, right) solutions of H u = rhs with zero value and
    slope at the anchor, and their values at the domain ends L_{j -/+ 1}.

    Raises NonFiniteDeterminantError when an end value overflows.
    """
    pieces = []
    at_lo = np.empty(state.n_domains)
    at_hi = np.empty(state.n_domains)
    for j, (basis, rhs_pair) in enumerate(zip(state.bases, rhs_pairs)):
        pair = tuple(_with_initial_data(particular_solution(rhs)) for rhs in rhs_pair)
        pieces.append(pair)
        at_lo[j] = pair[0].eval(basis.x_lo)
        at_hi[j] = pair[1].eval(basis.x_hi)
        if not (math.isfinite(at_lo[j]) and math.isfinite(at_hi[j])):
            raise NonFiniteDeterminantError(
                f"particular solution on domain {j + 1} is not finite at its "
                f"ends ({at_lo[j]}, {at_hi[j]}) at E = {state.energy!r}"
            )
    return tuple(pieces), at_lo, at_hi


@dataclass(frozen=True)
class OmegaSet:
    """Per-domain solutions of H omega = psi_0 with zero initial data at the anchor.

    Order-independent, built once per state, with psi_0's domain pieces,
    <psi_0|psi_0>, the bordered matching matrix and its condition number.
    """

    pieces: PiecePairs
    psi0: PiecePairs
    psi0_norm2: float
    matrix: np.ndarray
    condition: float


@dataclass(frozen=True)
class OrderBasis:
    """Order-k particular solutions P_k of H P = tau with zero initial data.

    One (left, right) piece pair per domain, with value and slope zero at
    the anchor.  Boundary values at L_{j -/+ 1} are cached for the matching
    system's right-hand side.
    """

    pieces: PiecePairs
    at_lo: np.ndarray
    at_hi: np.ndarray


@dataclass(frozen=True)
class OrderResult:
    """One perturbation order: energy correction and wave pieces.

    domain_pieces holds the per-domain (left, right) representations of
    psi_k, orthogonal to psi_0; global_pieces the non-overlapping cover of
    the box.
    """

    energy: float
    domain_pieces: PiecePairs
    global_pieces: tuple[TrigPoly, ...]
    condition: float
    boundary_residual: float
    matching_residual: float
    overlap_gap: float


def build_omega(state: MatchedState) -> OmegaSet:
    """Solve H omega_j = psi_0 on every domain with zero initial data, and
    border the zero-order matching matrix with them.

    psi_k = P + a_j C_0 + b_j S_0 + eps omega_j on domain j has the value
    a_j at its anchor L_j, and its values at L_{j-1} and L_{j+1} must be
    a_{j-1} and a_{j+1} (zero at the walls): the zero-order matching rows
    in (a, b), plus eps omega_j, with right-hand side -P.  Those rows are
    singular along the state's null vector (c, d), which the gauge row
    (a, b).(c, d) = 0 removes.  Unknowns (a_1, b_1, ..., a_N, b_N, eps).
    """
    psi0 = tuple(state.domain_pieces())
    norm2 = _piecewise_overlap(state.spec, cover(psi0), cover(psi0))
    pieces, at_lo, at_hi = _zero_data_solutions(state, psi0)
    n = state.n_domains
    a = np.zeros((2 * n + 1, 2 * n + 1))
    a[:-1, :-1] = _stacked_matrices(*_matching_values(state.spec, np.array([state.energy])))[0]
    a[:-1:2, -1] = at_lo
    a[1:-1:2, -1] = at_hi
    a[-1, :-1] = state.coeffs.ravel()
    return OmegaSet(pieces, psi0, norm2, a, float(np.linalg.cond(a)))


# V1's polynomial on an interval, re-expanded at a domain anchor, is the
# same at every order; callers must not write to the cached arrays.
_local_poly = lru_cache(lambda poly, anchor: reanchor_poly(poly, anchor))


def build_tau(omega: OmegaSet, history: list[OrderResult], pert: PerturbationSpec) -> PiecePairs:
    """Right-hand side tau_(k-1) = -V1 psi_(k-1) + sum_i E_i psi_(k-i) of
    the order k = len(history) + 1 that follows the orders in ``history``,
    as one (left, right) piece pair per domain.

    The sum runs over i = 1..k-1 (standard Rayleigh-Schroedinger
    bookkeeping); it is empty at first order.  Each domain keeps its own
    local frequency, so the result stays inside the resonant algebra.
    """
    k = len(history) + 1
    pieces = []
    for j, pair0 in enumerate(omega.psi0):
        pair = []
        for s in (0, 1):
            # domain j + 1 spans intervals j (left) and j + 1 (right)
            prev = history[-1].domain_pieces[j][s] if history else pair0[s]
            tau = -1.0 * mul_polynomial(prev, _local_poly(pert.interval_polys[j + s], prev.anchor))
            for i in range(1, k):
                # psi_(k-i) with k-i >= 1 throughout the sum
                tau = tau + history[i - 1].energy * history[k - i - 1].domain_pieces[j][s]
            pair.append(tau)
        pieces.append(tuple(pair))
    return tuple(pieces)


def build_order_basis(state: MatchedState, tau: PiecePairs) -> OrderBasis:
    """Order-k particular solutions of H P = tau, build_tau's piece pairs,
    with zero initial data on every domain."""
    return OrderBasis(*_zero_data_solutions(state, tau))


def solve_order(state: MatchedState, omega: OmegaSet, basis: OrderBasis) -> OrderResult:
    """Solve one order on the bordered matching matrix of build_omega.

    Only the right-hand side -P changes from order to order.  A condition
    number beyond CONDITION_LIMIT is flagged as the degeneracy
    paradox rather than silently regularized.  Finally alpha psi_0,
    alpha = <psi_0|psi_k> / <psi_0|psi_0>, is subtracted.
    """
    n = state.n_domains
    # rows alternate the ends L_{j-1}, L_{j+1} of each domain; the gauge row last
    b = np.append(-np.column_stack((basis.at_lo, basis.at_hi)).ravel(), 0.0)
    condition = omega.condition
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise DegeneracyParadoxError(
            f"bordered system condition {condition:.3e} beyond "
            f"{CONDITION_LIMIT:.1e}; vanishing determinant would signal a "
            "degenerate unperturbed level"
        )
    u = np.linalg.solve(omega.matrix, b)
    eps = float(u[-1])
    ab = u[:-1].reshape(n, 2)

    spec = state.spec
    solved = [
        tuple(
            basis.pieces[j][s]
            + ab[j, 0] * state.bases[j].piece("c", side)
            + ab[j, 1] * state.bases[j].piece("s", side)
            + eps * omega.pieces[j][s]
            for s, side in enumerate(_SIDES)
        )
        for j in range(n)
    ]
    alpha = _piecewise_overlap(spec, cover(omega.psi0), cover(solved)) / omega.psi0_norm2
    domain_pieces = tuple(
        tuple(p - alpha * p0 for p, p0 in zip(pair, pair0))
        for pair, pair0 in zip(solved, omega.psi0)
    )
    global_pieces = cover(domain_pieces)

    boundary_residual = max(
        abs(global_pieces[0].eval(spec.x_min)),
        abs(global_pieces[-1].eval(spec.x_max)),
    )
    # psi_k(L_j) is a_j, on interval j - 1 and on interval j alike
    at_anchors = ab[:, 0] - alpha * state.coeffs[:, 0]
    matching_residual = max(
        abs(global_pieces[j + side].eval(x) - value)
        for j, (x, value) in enumerate(zip(spec.breakpoints[1:-1], at_anchors))
        for side in (0, 1)
    )

    return OrderResult(
        eps,
        domain_pieces,
        global_pieces,
        condition,
        boundary_residual,
        matching_residual,
        overlap_gap(spec, domain_pieces),
    )


# points per interval at which equation_residual samples the residual
_RESIDUAL_SAMPLES = 50


def equation_residual(
    spec: PotentialSpec, omega: OmegaSet, result: OrderResult, tau: PiecePairs
) -> float:
    """Max residual of the order-k differential equation over all pieces.

    Checks H psi_k - tau - eps psi_0 = 0 at _RESIDUAL_SAMPLES points per
    interval; the algebra is exact, so anything beyond rounding indicates
    a bookkeeping bug.
    """
    worst = 0.0
    pieces = zip(result.global_pieces, cover(tau), cover(omega.psi0))
    for i, (piece, rhs, psi0) in enumerate(pieces):
        res_poly = apply_hamiltonian(piece) - rhs - result.energy * psi0
        xs = np.linspace(spec.breakpoints[i], spec.breakpoints[i + 1], _RESIDUAL_SAMPLES)
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
    """Perturbation series for every requested state in the window.  A
    plain box is solved on ``embedded_spec``, split at its midpoint, and
    ``pert`` is split along with it; otherwise pert is the one given."""

    states: tuple[StateSeries, ...]
    scan: EigenvalueScan
    embedded_spec: PotentialSpec | None = None
    pert: PerturbationSpec | None = None


# quad's node counts repeat across pieces and orders; the rule is built once
# per count.  Callers must not write to the cached arrays.
_leggauss = cache(lambda n: np.polynomial.legendre.leggauss(n))


def quad(pa: TrigPoly, pb: TrigPoly, a: float, b: float) -> float:
    """Integral of pa * pb over [a, b] by one Gauss-Legendre rule.

    The product is a polynomial of degree deg_a + deg_b times a trig
    polynomial of frequency up to 2 beta; the node count covers the
    polynomial exactly and resolves |2 beta| (b - a) of phase or growth,
    with 16 nodes to spare.
    """
    freq = max(abs(pa.freq), abs(pb.freq))
    n = (pa.degree + pb.degree) // 2 + 1 + math.ceil(2 * freq * (b - a)) + 16
    nodes, weights = _leggauss(n)
    xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.dot(weights, pa.eval(xs) * pb.eval(xs)))


def _piecewise_overlap(spec: PotentialSpec, pieces_a, pieces_b) -> float:
    return sum(
        quad(pieces_a[i], pieces_b[i], spec.breakpoints[i], spec.breakpoints[i + 1])
        for i in range(spec.n_intervals)
    )


def _series_for_state(spec, pert, e0, order_max) -> StateSeries:
    try:
        state = match_coefficients(spec, e0)
    except SolverError as exc:
        raise PipelineError("S2:match", exc) from exc
    try:
        omega = build_omega(state)
    except SolverError as exc:
        raise PipelineError("S3:omega", exc) from exc
    history: list[OrderResult] = []
    taus: list[PiecePairs] = []
    for k in range(1, order_max + 1):
        try:
            tau = build_tau(omega, history, pert)
            basis = build_order_basis(state, tau)
        except SolverError as exc:
            raise PipelineError(f"S4:order-{k}", exc) from exc
        try:
            result = solve_order(state, omega, basis)
        except SolverError as exc:
            raise PipelineError(f"S5:order-{k}", exc) from exc
        history.append(result)
        taus.append(tau)
    residuals = tuple(equation_residual(spec, omega, res, tau) for res, tau in zip(history, taus))
    overlaps = tuple(
        _piecewise_overlap(spec, cover(omega.psi0), res.global_pieces) for res in history
    )
    return StateSeries(state, tuple(history), residuals, overlaps)


def run_series(
    spec: PotentialSpec,
    pert: PerturbationSpec | None,
    e_window: tuple[float, float],
    order_max: int,
    *,
    max_states: int | None = None,
) -> SeriesResult:
    """Full pipeline: zero-order spectrum plus corrections through order_max.

    Stages: local bases and the eigenvalue scan (S1, S2), the
    order-independent omega functions (S3), then per order the right-hand
    side and its particular solutions (S4), the bordered linear solve (S5),
    iterated in k (S6).  Any stage failure is re-raised as PipelineError
    with the stage label.  order_max = 0 reduces to the zero-order
    pipeline.  A plain box is split at a fictitious breakpoint at its
    midpoint.
    """
    if order_max < 0:
        raise ValueError("order_max must be >= 0")
    if order_max >= 1 and pert is None:
        raise SchemaError("perturbation orders requested but no perturbation given")
    if spec.zero_order_polys is not None:
        raise SchemaError(
            "the perturbation series around piecewise-polynomial zero orders "
            "is not supported: they have no closed-form pieces; find_eigenvalues "
            "and match_coefficients handle interval polynomials"
        )

    try:
        scan_result = find_eigenvalues(spec, e_window[0], e_window[1], count=max_states)
    except SolverError as exc:
        raise PipelineError("S2:scan", exc) from exc

    embedded: PotentialSpec | None = None
    if spec.n_interior == 0:
        midpoint = spec.x_min + 0.5 * (spec.x_max - spec.x_min)
        embedded = spec.with_fictitious_breakpoint(midpoint)
        pert = pert.split_interval(0) if pert is not None else None
    states = tuple(
        _series_for_state(embedded or spec, pert, e0, order_max)
        for e0 in scan_result.energies
    )
    return SeriesResult(states, scan_result, embedded, pert)
