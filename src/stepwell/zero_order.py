"""Zero-order bound states by overlapping-domain matching.

Each interior breakpoint L_j anchors a "double interval" (L_{j-1}, L_{j+1})
carrying a cosine-like and a sine-like local solution fixed by the initial
data (value, slope) = (1, 0) and (0, 1) at L_j.  Because neighbouring
double intervals overlap, matching the *values* of the global wave function
at the breakpoints (no derivatives needed) yields a 2N-dimensional
homogeneous system; its determinant vanishes exactly at the bound-state
energies, and its one-dimensional null space carries the matched
coefficients.

N = 0 (a plain box) needs no matrix: the eigencondition degenerates to the
sine-like solution from the left wall vanishing at the right wall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_SCAN, DEFAULT_TOL, ScanConfig, Tolerances
from .errors import (
    DegenerateEnergyError,
    DegeneracyParadoxError,
    NonFiniteDeterminantError,
    NormalizationObstructionError,
    NotARootError,
    RootNotConvergedError,
    SchemaError,
    TruncationError,
)
from .potential import (
    PotentialSpec,
    degenerate_energy_error,
    local_frequencies,
    local_frequency,
)
from .trigbasis import TrigPoly, reanchor_poly, unit_solutions

__all__ = [
    "TaylorPiece",
    "DomainBasis",
    "MatchedState",
    "EigenvalueScan",
    "build_domain_basis",
    "series_local_basis",
    "matching_matrix",
    "secular_determinant",
    "find_eigenvalues",
    "match_coefficients",
    "reference_floor",
    "brentq",
]


@dataclass(frozen=True, eq=False)
class TaylorPiece:
    """Truncated power series sum_n h_n (x - anchor)^n used by the series backend."""

    anchor: float
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "anchor", float(self.anchor))

    def eval(self, x, **_ignored):
        t = np.asarray(x, dtype=float) - self.anchor
        out = np.polynomial.polynomial.polyval(t, self.coeffs)
        return float(out) if np.isscalar(x) else out

    def eval_deriv(self, x, **_ignored):
        t = np.asarray(x, dtype=float) - self.anchor
        d = self.coeffs[1:] * np.arange(1, len(self.coeffs))
        out = np.polynomial.polynomial.polyval(t, d)
        return float(out) if np.isscalar(x) else out

    def __add__(self, other: "TaylorPiece") -> "TaylorPiece":
        if abs(self.anchor - other.anchor) > 1e-12:
            raise ValueError("cannot combine series pieces with different anchors")
        n = max(len(self.coeffs), len(other.coeffs))
        c = np.zeros(n)
        c[: len(self.coeffs)] += self.coeffs
        c[: len(other.coeffs)] += other.coeffs
        return TaylorPiece(self.anchor, c)

    def __mul__(self, scalar: float) -> "TaylorPiece":
        return TaylorPiece(self.anchor, self.coeffs * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class DomainBasis:
    """Local solution pair on the double interval (x_lo, x_hi) anchored at L_j.

    c_* pieces have (value, slope) = (1, 0) at the anchor, s_* pieces (0, 1);
    the left piece lives on (x_lo, anchor), the right piece on (anchor, x_hi),
    and the four boundary values at x_lo and x_hi are cached because the
    matching system consumes nothing else.
    """

    j: int
    anchor: float
    x_lo: float
    x_hi: float
    c_left: object
    s_left: object
    c_right: object
    s_right: object
    c_at_lo: float
    s_at_lo: float
    c_at_hi: float
    s_at_hi: float

    def piece(self, kind: str, side: str):
        return getattr(self, f"{kind}_{side}")


def build_domain_basis(
    spec: PotentialSpec,
    energy: float,
    j: int,
    *,
    tol: Tolerances = DEFAULT_TOL,
    series_m: int | None = None,
) -> DomainBasis:
    """Local basis on domain j (anchored at breakpoint L_j), j = 1..N.

    Closed-form trigonometric pieces for piecewise-constant potentials;
    dispatches to the power-series backend when interval polynomials are
    present.
    """
    if not 1 <= j <= spec.n_interior:
        raise ValueError(f"domain index {j} outside 1..{spec.n_interior}")
    if spec.zero_order_polys is not None:
        return series_local_basis(spec, energy, j, series_m or 80, tol=tol)
    anchor = spec.breakpoints[j]
    x_lo = spec.breakpoints[j - 1]
    x_hi = spec.breakpoints[j + 1]
    beta_l = local_frequency(spec, j - 1, energy, tol=tol)
    beta_r = local_frequency(spec, j, energy, tol=tol)
    c_left = TrigPoly.cosine(anchor, beta_l)
    s_left = TrigPoly.sine_unit_slope(anchor, beta_l)
    c_right = TrigPoly.cosine(anchor, beta_r)
    s_right = TrigPoly.sine_unit_slope(anchor, beta_r)
    return DomainBasis(
        j,
        anchor,
        x_lo,
        x_hi,
        c_left,
        s_left,
        c_right,
        s_right,
        c_at_lo=c_left.eval(x_lo, tol=tol),
        s_at_lo=s_left.eval(x_lo, tol=tol),
        c_at_hi=c_right.eval(x_hi, tol=tol),
        s_at_hi=s_right.eval(x_hi, tol=tol),
    )


def _series_coeffs(v_coeffs: np.ndarray, h0: float, h1: float, m: int) -> np.ndarray:
    """Taylor recurrence for -psi'' + v(t) psi = 0, v polynomial in t = x - anchor.

    (n+2)(n+1) h_{n+2} = sum_l v_l h_{n-l}.
    """
    h = np.zeros(m + 1)
    h[0], h[1] = h0, h1
    deg = len(v_coeffs) - 1
    for n in range(m - 1):
        acc = 0.0
        for l in range(min(n, deg) + 1):
            acc += v_coeffs[l] * h[n - l]
        h[n + 2] = acc / ((n + 2) * (n + 1))
    return h


def series_local_basis(
    spec: PotentialSpec,
    energy: float,
    j: int,
    m: int,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> DomainBasis:
    """Power-series local basis for piecewise-polynomial zero-order potentials.

    Builds the two solutions as degree-(m+10) Taylor series about L_j on
    each side and demands that the cached boundary values move by less than
    series_boundary_rtol (relative) between truncations m and m + 10;
    otherwise raises TruncationError with the residual estimate.

    Args:
        spec: potential with zero_order_polys present (heights still apply).
        energy: trial energy E.
        j: domain index, 1..N.
        m: requested truncation order; must be at least the degree-dependent
            minimum max(8, 4 (d + 1)) for interval polynomial degree d.
    """
    if not 1 <= j <= spec.n_interior:
        raise ValueError(f"domain index {j} outside 1..{spec.n_interior}")
    polys = spec.zero_order_polys or tuple((0.0,) for _ in range(spec.n_intervals))
    max_deg = max(len(p) - 1 for p in polys)
    m_min = max(8, 4 * (max_deg + 1))
    if m < m_min:
        raise TruncationError(f"m = {m} below the minimum {m_min} for degree {max_deg}")
    if m > tol.series_m_max:
        raise TruncationError(f"m = {m} above the configured maximum {tol.series_m_max}")

    anchor = spec.breakpoints[j]
    x_lo = spec.breakpoints[j - 1]
    x_hi = spec.breakpoints[j + 1]
    pieces = {}
    values = {}
    for side, interval, endpoint in (("left", j - 1, x_lo), ("right", j, x_hi)):
        v = np.atleast_1d(np.asarray(reanchor_poly(polys[interval], anchor), dtype=float))
        v = v.copy()
        v[0] += spec.heights[interval] - energy
        for kind, h0, h1 in (("c", 1.0, 0.0), ("s", 0.0, 1.0)):
            coeffs = _series_coeffs(v, h0, h1, m + 10)
            piece = TaylorPiece(anchor, coeffs)
            t = endpoint - anchor
            powers = t ** np.arange(m + 11)
            full = float(coeffs @ powers)
            shorter = float(coeffs[: m + 1] @ powers[: m + 1])
            resid = abs(full - shorter) / max(1.0, abs(full))
            if resid > tol.series_boundary_rtol:
                raise TruncationError(
                    f"series basis not converged at m = {m} on domain {j} ({side}):"
                    f" boundary value moved by {resid:.2e}",
                    residual=resid,
                )
            pieces[f"{kind}_{side}"] = piece
            values[f"{kind}_{side}"] = full
    return DomainBasis(
        j,
        anchor,
        x_lo,
        x_hi,
        pieces["c_left"],
        pieces["s_left"],
        pieces["c_right"],
        pieces["s_right"],
        c_at_lo=values["c_left"],
        s_at_lo=values["s_left"],
        c_at_hi=values["c_right"],
        s_at_hi=values["s_right"],
    )


def _domain_bases(spec, energy, tol, series_m=None) -> list[DomainBasis]:
    return [
        build_domain_basis(spec, energy, j, tol=tol, series_m=series_m)
        for j in range(1, spec.n_interior + 1)
    ]


def _stacked_matrices(c_lo, s_lo, c_hi, s_hi) -> np.ndarray:
    """Assemble 2N x 2N matching matrices from boundary values of shape (M, N).

    Entry [m, j - 1] of each argument is the cached boundary value of domain
    j at the m-th energy.  Unknown ordering (c(1), d(1), ..., c(N), d(N));
    row ordering (domain 1 left, domain 1 right, domain 2 left, ...).  Row
    (j, left) states c(j) C_j(L_{j-1}) + d(j) S_j(L_{j-1}) - c(j-1) = 0 and
    row (j, right) the mirror image at L_{j+1}, with c(0) = c(N+1) = 0.
    """
    m, n = np.shape(c_lo)
    a = np.zeros((m, 2 * n, 2 * n))
    j = 2 * np.arange(n)
    a[:, j, j] = c_lo
    a[:, j, j + 1] = s_lo
    a[:, j + 1, j] = c_hi
    a[:, j + 1, j + 1] = s_hi
    a[:, j[1:], j[1:] - 2] = -1.0
    a[:, j[:-1] + 1, j[:-1] + 2] = -1.0
    return a


def _boundary_values(bases: list[DomainBasis]) -> np.ndarray:
    """(N, 4) array of each domain's c_at_lo, s_at_lo, c_at_hi, s_at_hi."""
    return np.array([[b.c_at_lo, b.s_at_lo, b.c_at_hi, b.s_at_hi] for b in bases])


def _matrix_from_bases(bases: list[DomainBasis]) -> np.ndarray:
    """The matching matrix at one energy, from its domain bases."""
    return _stacked_matrices(*_boundary_values(bases).T[:, None, :])[0]


def _row_normalized(a: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length: the determinant stays in [-1, 1] and
    keeps its zeros."""
    return a / np.linalg.norm(a, axis=-1)[..., None]


def matching_matrix(
    spec: PotentialSpec,
    energy: float,
    *,
    tol: Tolerances = DEFAULT_TOL,
    series_m: int | None = None,
) -> np.ndarray:
    """The homogeneous matching system; singular exactly at eigenvalues."""
    if spec.n_interior < 1:
        raise ValueError("matching matrix needs at least one interior breakpoint")
    return _matrix_from_bases(_domain_bases(spec, energy, tol, series_m))


def _box_sine_value(spec, energy, series_m=None) -> float:
    """Power-series sine-like solution from the left wall, evaluated at the
    right wall (N = 0)."""
    v = np.atleast_1d(
        np.asarray(reanchor_poly(spec.zero_order_polys[0], spec.x_min), dtype=float)
    ).copy()
    v[0] += spec.heights[0] - energy
    m = series_m or 80
    coeffs = _series_coeffs(v, 0.0, 1.0, m + 10)
    piece = TaylorPiece(spec.x_min, coeffs)
    return piece.eval(spec.x_max)


# Largest size of the stacked matching matrices evaluated at once; longer
# energy arrays go through the kernel in blocks.
_BLOCK_BYTES = 8 * 2**20


def _determinant_block(spec, energies, tol, series_m):
    """Determinants at a block of energies, with two (M, N + 1) masks: the
    intervals whose height an energy is degenerate with (its entries are
    meaningless), and the intervals whose boundary values overflow the row
    normalization (inf or NaN once squared)."""
    n = spec.n_interior
    if spec.zero_order_polys is not None:
        degenerate = np.zeros((len(energies), spec.n_intervals), dtype=bool)
        if n == 0:
            dets = np.array([_box_sine_value(spec, e, series_m) for e in energies])
            return dets, degenerate, ~np.isfinite(dets)[:, None]
        values = [_boundary_values(_domain_bases(spec, e, tol, series_m)) for e in energies]
        c_lo, s_lo, c_hi, s_hi = np.moveaxis(np.array(values), -1, 0)
    else:
        beta, degenerate = local_frequencies(spec, energies, tol=tol)
        bp = np.asarray(spec.breakpoints)
        if n == 0:
            dets = unit_solutions(beta, bp[1:] - bp[:-1], tol=tol)[1][:, 0]
            return dets, degenerate, ~np.isfinite(dets)[:, None]
        c_lo, s_lo = unit_solutions(beta[:, :-1], bp[:-2] - bp[1:-1], tol=tol)
        c_hi, s_hi = unit_solutions(beta[:, 1:], bp[2:] - bp[1:-1], tol=tol)
    # interval i holds the lo values of domain i + 1 and the hi values of domain i
    overflow = np.zeros((len(energies), n + 1), dtype=bool)
    overflow[:, :-1] = ~np.isfinite(c_lo * c_lo + s_lo * s_lo)
    overflow[:, 1:] |= ~np.isfinite(c_hi * c_hi + s_hi * s_hi)
    dets = np.linalg.det(_row_normalized(_stacked_matrices(c_lo, s_lo, c_hi, s_hi)))
    return dets, degenerate, overflow


def secular_determinant(
    spec: PotentialSpec,
    energy: float | np.ndarray,
    *,
    tol: Tolerances = DEFAULT_TOL,
    series_m: int | None = None,
) -> float | np.ndarray:
    """Row-normalized determinant of the matching system.

    Continuous in E between height degeneracies; its sign changes bracket
    the eigenvalues.  Row normalization keeps the value in [-1, 1] without
    moving any zero.  For N = 0 the matching degenerates to the boundary
    condition and the sine-like wall-to-wall value is returned instead.

    ``energy`` is a scalar or a 1-D array.  The array form evaluates every
    energy in one vectorised pass (blocked so that the stacked matrices stay
    near 8 MB) and returns an array, NaN at energies degenerate with an
    interval height; a scalar call there raises DegenerateEnergyError.
    Either form raises NonFiniteDeterminantError at a non-degenerate energy
    whose boundary values overflow: the determinant there is NaN, or an
    exact 0 from rows normalized by an infinite norm.
    """
    e = np.asarray(energy, dtype=float)
    if e.ndim > 1:
        raise ValueError("energy must be a scalar or a one-dimensional array")
    energies = np.atleast_1d(e)
    n = spec.n_interior
    step = max(1, _BLOCK_BYTES // (32 * n * n)) if n else max(1, len(energies))
    dets = np.empty(len(energies))
    degenerate = np.zeros((len(energies), spec.n_intervals), dtype=bool)
    for lo in range(0, len(energies), step):
        block = slice(lo, lo + step)
        with np.errstate(over="ignore", invalid="ignore"):
            dets[block], degenerate[block], overflow = _determinant_block(
                spec, energies[block], tol, series_m
            )
        bad = overflow.any(axis=1) | ~np.isfinite(dets[block])
        bad &= ~degenerate[block].any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise NonFiniteDeterminantError(
                f"secular determinant is not finite at E = {float(energies[lo + i])!r}: "
                f"the boundary values on interval {int(np.argmax(overflow[i]))} "
                "overflow (barrier too tall or too wide for double precision)"
            )
    if e.ndim == 0:
        if degenerate[0].any():
            raise degenerate_energy_error(spec, int(np.argmax(degenerate[0])), energy)
        return float(dets[0])
    dets[degenerate.any(axis=1)] = np.nan
    return dets


def reference_floor(spec: PotentialSpec) -> float:
    """Reference potential floor for the momentum variable k = sqrt(E - floor)."""
    if spec.zero_order_polys is None:
        return float(min(spec.heights))
    lo = np.inf
    for i in range(spec.n_intervals):
        xs = np.linspace(spec.breakpoints[i], spec.breakpoints[i + 1], 201)
        vals = spec.heights[i] + np.polynomial.polynomial.polyval(
            xs, spec.zero_order_polys[i]
        )
        lo = min(lo, float(np.min(vals)))
    return lo


@dataclass(frozen=True)
class EigenvalueScan:
    """Result of a determinant-root scan.

    ``spurious`` lists determinant zeros rejected by the overlap-agreement
    check: when E coincides with a Dirichlet eigenvalue of a single
    sub-interval, value matching at two points no longer pins the solution
    on the overlap and the determinant can vanish without a smooth global
    eigenfunction existing.  ``near_degenerate`` lists entries of
    ``energies`` that stand for a root pair split below double-precision
    resolution (the determinant dips to its rounding floor without a
    certifiable sign change); coefficient extraction there reports the
    degeneracy paradox instead of inventing a null vector.
    """

    energies: tuple[float, ...]
    complete: bool
    skipped: tuple[float, ...] = ()
    spurious: tuple[float, ...] = ()
    near_degenerate: tuple[float, ...] = ()


# smallest relative tolerance brentq accepts: four ulps
_RTOL_MIN = 4 * math.ulp(1.0)
_BRENT_MAXITER = 100


def brentq(f, a: float, b: float, xtol: float, rtol: float = _RTOL_MIN) -> float:
    """Root of f in [a, b] by the Brent-Dekker method (Brent 1973, ch. 4).

    The iteration of scipy.optimize.brentq, step for step: inverse
    quadratic (or secant) interpolation when it falls well inside the
    bracket, bisection otherwise, and at least delta = (xtol + rtol |x|) / 2
    per step; the bracket half-width below delta ends it.  Same inputs give
    the same float.  Raises ValueError when f(a) and f(b) share a sign or f
    returns NaN, RootNotConvergedError after 100 steps.
    """
    if xtol <= 0 or rtol < _RTOL_MIN:
        raise ValueError(f"tolerances too small: xtol={xtol!r}, rtol={rtol!r}")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN; the root cannot be refined")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RootNotConvergedError(
        f"root refinement did not converge in {_BRENT_MAXITER} steps; last x = {xcur!r}"
    )


def _brackets(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid cells (i, i + 1) that start at an exact zero or change sign;
    cells touching a skipped (NaN) point are neither."""
    a, b = vals[:-1], vals[1:]
    return (a == 0.0) & ~np.isnan(b), a * b < 0


def _refine_dips(grid, det_of_k, k_lo, k_hi, vals_lo, vals_hi, scan: ScanConfig,
                 depth: int, roots: list, merged: list):
    """Subdivide a magnitude dip looking for paired sign changes.

    ``grid`` evaluates the determinant on an array of k (NaN where skipped),
    ``det_of_k`` at one k for root refinement.  A dip that keeps deepening
    without ever changing sign, down to the determinant's rounding floor,
    is an unresolvable near-double root; its bottom is recorded in
    ``merged``.
    """
    ks = np.linspace(k_lo, k_hi, scan.refine_factor + 1)
    vals = grid(ks)
    zero, change = _brackets(vals)
    for i in np.flatnonzero(zero | change):
        if zero[i]:
            roots.append(ks[i])
        else:
            roots.append(brentq(det_of_k, ks[i], ks[i + 1], xtol=1e-15, rtol=8.9e-16))
    if zero.any() or change.any():
        return
    mags = np.where(np.isnan(vals), np.inf, np.abs(vals))
    i_min = int(np.argmin(mags))
    dipping = mags[i_min] < scan.dip_rel_threshold * min(abs(vals_lo), abs(vals_hi))
    narrow = (k_hi - k_lo) < 1e-12 * max(1.0, abs(k_hi))
    if dipping and depth > 0 and not narrow:
        lo = max(i_min - 1, 0)
        hi = min(i_min + 1, len(ks) - 1)
        _refine_dips(grid, det_of_k, ks[lo], ks[hi], vals[lo], vals[hi], scan,
                     depth - 1, roots, merged)
        return
    if mags[i_min] < scan.merge_floor:
        merged.append(ks[i_min])


def find_eigenvalues(
    spec: PotentialSpec,
    e_lo: float,
    e_hi: float,
    count: int | None = None,
    *,
    scan: ScanConfig = DEFAULT_SCAN,
    tol: Tolerances = DEFAULT_TOL,
    series_m: int | None = None,
) -> EigenvalueScan:
    """Locate determinant roots in (e_lo, e_hi), ascending.

    Scans a uniform grid in k = sqrt(E - floor) (the natural momentum
    variable, which spreads out low-lying roots), brackets sign changes,
    refines each bracket to |dE| ~ 1e-12, and recursively subdivides
    magnitude dips so that quasi-degenerate doublets are not merged.  The
    grid and each refinement level are one array call of
    secular_determinant, each root refinement a run of scalar calls.
    Grid points degenerate with an interval height are skipped and
    reported.  If fewer than ``count`` roots exist in the window the result
    carries complete=False.
    """
    if not e_lo < e_hi:
        raise ValueError("energy window must satisfy e_lo < e_hi")
    if count is not None and count < 1:
        raise ValueError("count must be at least 1")
    floor = reference_floor(spec)
    k_lo = np.sqrt(max(e_lo - floor, 0.0))
    k_hi = np.sqrt(max(e_hi - floor, 0.0))
    if not k_hi > k_lo:
        return EigenvalueScan((), count is None)
    k_lo = max(k_lo, 1e-9 * (k_hi - k_lo) + 1e-300)

    skipped: list[float] = []

    def grid(ks: np.ndarray) -> np.ndarray:
        energies = floor + ks * ks
        vals = secular_determinant(spec, energies, tol=tol, series_m=series_m)
        skipped.extend(energies[np.isnan(vals)])
        return vals

    def det(energy: float) -> float:
        return secular_determinant(spec, energy, tol=tol, series_m=series_m)

    def det_of_k(k: float) -> float:
        return det(floor + k * k)

    ks = np.linspace(k_lo, k_hi, scan.points)
    vals = grid(ks)
    roots_e: list[float] = []
    zero, change = _brackets(vals)
    for i in np.flatnonzero(zero | change):
        if zero[i]:
            roots_e.append(floor + ks[i] ** 2)
        else:
            ea, eb = floor + ks[i] * ks[i], floor + ks[i + 1] * ks[i + 1]
            roots_e.append(brentq(det, ea, eb, xtol=tol.refine_xtol, rtol=8.9e-16))
    if len(vals) and vals[-1] == 0.0:
        roots_e.append(floor + ks[-1] ** 2)

    # Dips without a sign change can hide a quasi-degenerate pair.
    merged_e: list[float] = []
    a, m, b = np.abs(vals[:-2]), np.abs(vals[1:-1]), np.abs(vals[2:])
    same_sign = (vals[:-2] * vals[1:-1] > 0) & (vals[1:-1] * vals[2:] > 0)
    dips = same_sign & (m < a) & (m < b) & (m < scan.dip_rel_threshold * np.minimum(a, b))
    for i in np.flatnonzero(dips) + 1:
        sub_roots: list[float] = []
        sub_merged: list[float] = []
        _refine_dips(grid, det_of_k, ks[i - 1], ks[i + 1], vals[i - 1], vals[i + 1],
                     scan, scan.refine_depth, sub_roots, sub_merged)
        for kr in sub_roots:
            roots_e.append(floor + kr * kr)
        for kr in sub_merged:
            roots_e.append(floor + kr * kr)
            merged_e.append(floor + kr * kr)

    roots_e = sorted(float(r) for r in roots_e)
    dedup: list[float] = []
    for r in roots_e:
        if not dedup or abs(r - dedup[-1]) > 1e-11 * max(1.0, abs(r)):
            dedup.append(r)

    genuine: list[float] = []
    spurious: list[float] = []
    near_degenerate: list[float] = []
    for r in dedup:
        try:
            if _is_spurious_root(spec, r, tol, series_m):
                spurious.append(r)
                continue
        except DegenerateEnergyError:
            skipped.append(r)
            continue
        genuine.append(r)
        if any(abs(r - me) <= 1e-10 * max(1.0, abs(r)) for me in merged_e):
            near_degenerate.append(r)

    if count is not None:
        complete = len(genuine) >= count
        genuine = genuine[:count]
    else:
        complete = True
    return EigenvalueScan(
        tuple(genuine),
        complete,
        tuple(skipped),
        tuple(spurious),
        tuple(near_degenerate),
    )


@dataclass(frozen=True)
class MatchedState:
    """Matched zero-order state: energy, per-domain coefficients, cached bases.

    coeffs[j - 1] = (c(j), d(j)) for domains j = 1..N, normalized to a unit
    Euclidean null vector with the first nonzero component positive.
    c(0) = c(N+1) = 0 are implicit.  residual is the largest row residual
    of the row-normalized matching system; overlap_gap is the worst
    disagreement of adjacent domain representations on their shared
    interval (machine-small for genuine eigenvalues, order one for the
    spurious sub-interval-resonance zeros).
    """

    spec: PotentialSpec
    energy: float
    coeffs: np.ndarray
    bases: tuple[DomainBasis, ...]
    residual: float
    overlap_gap: float = 0.0

    @property
    def n_domains(self) -> int:
        return len(self.bases)

    def c_value(self, j: int) -> float:
        """psi(L_j) = c(j), zero at the walls."""
        if j <= 0 or j >= self.n_domains + 1:
            return 0.0
        return float(self.coeffs[j - 1, 0])

    def domain_piece(self, j: int, side: str):
        """The state's representation c(j) C_j + d(j) S_j on one side of domain j."""
        basis = self.bases[j - 1]
        c, d = self.coeffs[j - 1]
        return c * basis.piece("c", side) + d * basis.piece("s", side)

    def global_pieces(self) -> tuple:
        """Non-overlapping cover: interval i gets domain 1's left piece for
        i = 0 and domain i's right piece for i >= 1."""
        pieces = [self.domain_piece(1, "left")]
        for j in range(1, self.n_domains + 1):
            pieces.append(self.domain_piece(j, "right"))
        return tuple(pieces)

    def eval(self, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        pieces = self.global_pieces()
        out = np.empty_like(xs)
        for n, xv in enumerate(xs):
            i = self.spec.interval_index(xv)
            out[n] = pieces[i].eval(xv)
        return out if np.ndim(x) else float(out[0])


def _extract_null_vector(spec, energy, tol, series_m):
    """Bases, matched coefficients and residual at a determinant root."""
    bases = _domain_bases(spec, energy, tol, series_m)
    an = _row_normalized(_matrix_from_bases(bases))
    det = float(np.linalg.det(an))
    if abs(det) > 10.0 * tol.root_tol:
        raise NotARootError(
            f"|det| = {abs(det):.3e} at E = {energy}; refine the root first"
        )
    _, svals, vt = np.linalg.svd(an)
    if len(svals) >= 2 and svals[-2] < 1e-8 * max(svals[0], 1e-300):
        raise DegeneracyParadoxError(
            "matching system null space is not one-dimensional"
        )
    v = vt[-1]
    residual = float(np.max(np.abs(an @ v)))
    if residual > tol.matching_residual:
        raise NotARootError(
            f"matching residual {residual:.3e} above {tol.matching_residual:.1e} "
            f"at E = {energy}"
        )
    nz = np.nonzero(np.abs(v) > 1e-10)[0]
    if len(nz) and v[nz[0]] < 0:
        v = -v
    coeffs = v.reshape(-1, 2).copy()
    coeffs.setflags(write=False)
    return bases, coeffs, residual


def _overlap_mismatch(spec, bases, coeffs) -> tuple[np.ndarray, float]:
    """Sampled disagreement of adjacent domain representations, plus scale.

    Domains j and j+1 both represent the state on (L_j, L_{j+1}); for a
    genuine eigenvalue the two representations coincide there.
    """
    n = len(bases)
    samples: list[float] = []
    scale = 1.0
    for j in range(1, n):
        right = coeffs[j - 1, 0] * bases[j - 1].piece("c", "right") + coeffs[
            j - 1, 1
        ] * bases[j - 1].piece("s", "right")
        left = coeffs[j, 0] * bases[j].piece("c", "left") + coeffs[j, 1] * bases[
            j
        ].piece("s", "left")
        lo = spec.breakpoints[j]
        hi = spec.breakpoints[j + 1]
        xs = np.linspace(lo + 0.07 * (hi - lo), hi - 0.07 * (hi - lo), 9)
        rv = right.eval(xs)
        lv = left.eval(xs)
        scale = max(scale, float(np.max(np.abs(rv))), float(np.max(np.abs(lv))))
        samples.extend(rv - lv)
    return np.asarray(samples), scale


def _overlap_gap(spec, bases, coeffs) -> float:
    """Worst relative disagreement of adjacent domain representations."""
    samples, scale = _overlap_mismatch(spec, bases, coeffs)
    if samples.size == 0:
        return 0.0
    return float(np.max(np.abs(samples))) / scale


def _resonant_overlap_intervals(spec, energy, tol, series_m) -> list[int]:
    """Overlap intervals whose own Dirichlet mode vanishes at both ends.

    Only intervals bounded by two interior breakpoints are overlaps of
    adjacent domains; a wall-adjacent interval's resonance imposes a real
    constraint instead of a redundancy and cannot fake a determinant zero.
    """
    out = []
    for j in range(1, spec.n_interior):
        width = spec.breakpoints[j + 1] - spec.breakpoints[j]
        if spec.zero_order_polys is not None:
            v = np.atleast_1d(
                np.asarray(
                    reanchor_poly(spec.zero_order_polys[j], spec.breakpoints[j]),
                    dtype=float,
                )
            ).copy()
            v[0] += spec.heights[j] - energy
            coeffs = _series_coeffs(v, 0.0, 1.0, (series_m or 80) + 10)
            val = abs(float(np.polynomial.polynomial.polyval(width, coeffs)))
            if val < 1e-6 * max(width, 1.0):
                out.append(j)
            continue
        beta = local_frequency(spec, j, energy, tol=tol)
        if abs(np.sin(beta * width)) < 1e-6:
            out.append(j)
    return out


def _is_spurious_root(spec, energy, tol, series_m) -> bool:
    """Determinant zero without a smooth global eigenfunction behind it.

    Spurious zeros originate exclusively from sub-interval Dirichlet
    resonances on overlap intervals, which make the two-point value match
    redundant there.  Away from any such resonance every determinant zero
    is genuine and is kept without further scrutiny (important for deep
    symmetric barriers, where the huge hyperbolic dynamic range makes
    direct gluing uncertifiable in floats).  At a resonance the candidate
    survives only if *some* combination of the small-singular-value
    directions glues smoothly across every overlap, a linear least-squares
    question on the sampled mismatches; this keeps a genuine eigenvalue
    that happens to sit next to a resonance while rejecting the bare
    resonance zeros, including simultaneous ones from several equal-width
    intervals.
    """
    if spec.n_interior < 2:
        return False
    if not _resonant_overlap_intervals(spec, energy, tol, series_m):
        return False
    bases = _domain_bases(spec, energy, tol, series_m)
    an = _row_normalized(_matrix_from_bases(bases))
    svals, vt = np.linalg.svd(an)[1:]
    small = [i for i, s in enumerate(svals) if s < 1e-6]
    if not small:
        return False
    cols = []
    scale = 1.0
    for i in small:
        mismatch, sc = _overlap_mismatch(spec, bases, vt[i].reshape(-1, 2))
        cols.append(mismatch)
        scale = max(scale, sc)
    fit = float(np.linalg.svd(np.column_stack(cols), compute_uv=False)[-1])
    return fit / scale > 1e-6


def match_coefficients(
    spec: PotentialSpec,
    energy: float,
    *,
    tol: Tolerances = DEFAULT_TOL,
    series_m: int | None = None,
) -> MatchedState:
    """Extract the matched coefficients at a determinant root.

    The null vector of the (row-normalized) matching system, with the
    Sturm-Liouville guarantee that it is one-dimensional.  Raises
    NotARootError when the energy is not a root to within root_tol,
    DegeneracyParadoxError when the null space is not simple, and
    NormalizationObstructionError when some c(j) + d(j) vanishes, which
    would block the order-k rescaling downstream.  The overlap_gap
    diagnostic records whether adjacent representations actually agree;
    find_eigenvalues uses the same check to reject spurious zeros.
    """
    if spec.n_interior == 0:
        raise SchemaError(
            "a plain box has no matching coefficients; insert a fictitious "
            "breakpoint (see PotentialSpec.with_fictitious_breakpoint)"
        )
    bases, coeffs, residual = _extract_null_vector(spec, energy, tol, series_m)
    gap = _overlap_gap(spec, bases, coeffs)
    for jj, (c, d) in enumerate(coeffs, start=1):
        if abs(c + d) <= tol.coeff_sum_floor:
            raise NormalizationObstructionError(
                f"c({jj}) + d({jj}) = {c + d:.3e} vanishes; the order-k "
                "rescaling is impossible for this state"
            )
    return MatchedState(spec, float(energy), coeffs, tuple(bases), residual, gap)
