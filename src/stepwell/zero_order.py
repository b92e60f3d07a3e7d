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
from functools import cache, cached_property, lru_cache

import numpy as np

from .config import (
    BETA_MIN,
    DEFAULT_SCAN,
    MATCHING_RESIDUAL,
    REFINE_XTOL,
    SERIES_BOUNDARY_RTOL,
    SERIES_M_MAX,
    ScanConfig,
)
from .errors import (
    DegeneracyParadoxError,
    NonFiniteDeterminantError,
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
    "sturm_count",
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

    def eval(self, x):
        t = np.asarray(x, dtype=float) - self.anchor
        out = np.polynomial.polynomial.polyval(t, self.coeffs)
        return float(out) if np.isscalar(x) else out

    def eval_deriv(self, x):
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
    and the four boundary values at x_lo and x_hi are cached.  For
    closed-form specs the matching kernel takes those values from
    unit_solutions itself and no basis is built to find or match a level;
    a MatchedState builds its bases on first access, for the perturbation
    series.  The power-series backend builds one basis per domain and
    energy and feeds the kernel its boundary values.
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
        return series_local_basis(spec, energy, j, series_m or 80)
    anchor = spec.breakpoints[j]
    x_lo = spec.breakpoints[j - 1]
    x_hi = spec.breakpoints[j + 1]
    beta_l = local_frequency(spec, j - 1, energy)
    beta_r = local_frequency(spec, j, energy)
    c_ends, s_ends = unit_solutions(
        np.array([beta_l, beta_r]), np.array([x_lo - anchor, x_hi - anchor])
    )
    return DomainBasis(
        j,
        anchor,
        x_lo,
        x_hi,
        TrigPoly.cosine(anchor, beta_l),
        TrigPoly.sine_unit_slope(anchor, beta_l),
        TrigPoly.cosine(anchor, beta_r),
        TrigPoly.sine_unit_slope(anchor, beta_r),
        c_at_lo=float(c_ends[0]),
        s_at_lo=float(s_ends[0]),
        c_at_hi=float(c_ends[1]),
        s_at_hi=float(s_ends[1]),
    )


def _reanchored(spec, interval, anchor) -> list[float]:
    """The zero-order polynomial of ``interval`` in powers of x - anchor."""
    polys = spec.zero_order_polys or ((0.0,),) * spec.n_intervals
    return reanchor_poly(polys[interval], anchor).tolist()


def _local_series(v, height, energy, m) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients h_0..h_m about an anchor of the cosine-like and
    sine-like solutions on an interval ((value, slope) = (1, 0) and (0, 1)
    there): (n+2)(n+1) h_{n+2} = sum_l v_l h_{n-l} for -psi'' + v(t) psi = 0,
    with v = V - E in powers of t = x - anchor.  ``v`` is the interval's
    polynomial in those powers (_reanchored) and ``height`` its height.

    ``energy`` is a scalar, giving two arrays of shape (m + 1,), or a 1-D
    array of M energies, giving shape (M, m + 1).
    """
    pairs = []
    for e in np.atleast_1d(energy).tolist():
        ve = [v[0] + (height - e)] + v[1:]
        pair = ([1.0, 0.0], [0.0, 1.0])
        for n in range(m - 1):
            for h in pair:
                acc = 0.0
                for l in range(min(n, len(ve) - 1) + 1):
                    acc += ve[l] * h[n - l]
                h.append(acc / ((n + 2) * (n + 1)))
        pairs.append(pair)
    c, s = np.moveaxis(np.array(pairs).reshape(-1, 2, m + 1), 1, 0)
    return (c, s) if np.ndim(energy) else (c[0], s[0])


def _check_truncation(coeffs, t, full, where: str) -> None:
    """TruncationError unless the power series with Taylor coefficients
    ``coeffs`` (last axis; any leading axes hold more series), summed at t to
    ``full``, moves by at most SERIES_BOUNDARY_RTOL, relative to its sum
    (at least 1), when its last ten terms are dropped."""
    shorter = coeffs[..., :-10] @ t ** np.arange(np.shape(coeffs)[-1] - 10)
    resid = float(np.max(np.abs(full - shorter) / np.maximum(1.0, np.abs(full))))
    if resid > SERIES_BOUNDARY_RTOL:
        raise TruncationError(
            f"power series not converged {where}: the sum moved by {resid:.2e}"
            " without its last ten terms",
            residual=resid,
        )


def series_local_basis(
    spec: PotentialSpec,
    energy: float,
    j: int,
    m: int,
) -> DomainBasis:
    """Power-series local basis for piecewise-polynomial zero-order potentials.

    Builds the two solutions as degree-(m+10) Taylor series about L_j on
    each side and demands that the cached boundary values move by less than
    SERIES_BOUNDARY_RTOL (relative) between truncations m and m + 10;
    otherwise raises TruncationError with the residual estimate
    (_check_truncation).

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
    if m > SERIES_M_MAX:
        raise TruncationError(f"m = {m} above the maximum {SERIES_M_MAX}")

    anchor = spec.breakpoints[j]
    x_lo = spec.breakpoints[j - 1]
    x_hi = spec.breakpoints[j + 1]
    pieces = {}
    values = {}
    for side, interval, endpoint in (("left", j - 1, x_lo), ("right", j, x_hi)):
        v = _reanchored(spec, interval, anchor)
        for kind, coeffs in zip("cs", _local_series(v, spec.heights[interval], energy, m + 10)):
            t = endpoint - anchor
            full = float(coeffs @ t ** np.arange(m + 11))
            _check_truncation(coeffs, t, full, f"at m = {m} on domain {j} ({side})")
            pieces[f"{kind}_{side}"] = TaylorPiece(anchor, coeffs)
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


def _domain_bases(spec, energy, series_m=None) -> list[DomainBasis]:
    return [
        build_domain_basis(spec, energy, j, series_m=series_m)
        for j in range(1, spec.n_interior + 1)
    ]


def _boundary_values(bases_per_energy) -> tuple[np.ndarray, np.ndarray]:
    """_stacked_matrices' C and S values from M lists of N bases."""
    c = [[b.c_at_lo for b in bases] + [b.c_at_hi for b in bases] for bases in bases_per_energy]
    s = [[b.s_at_lo for b in bases] + [b.s_at_hi for b in bases] for bases in bases_per_energy]
    return np.array(c), np.array(s)


@cache
def _assembly(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the N-domain matching matrices, which depend on N
    alone: the interval at each domain end (lo ends, then hi ends), where
    those ends' C and S values sit in a flattened matrix, and the flattened
    matrix holding only its -1 entries."""
    # in the flattened matrix entry (2j + r, 2j + c) sits at 2j (2N + 1) + 2N r + c
    step = 4 * n + 2
    diag = np.arange(n) * step
    template = np.zeros(4 * n * n)
    template[4 * n :: step] = -1.0  # (2j, 2j - 2), j = 1..N-1
    template[2 * n + 2 :: step] = -1.0  # (2j + 1, 2j + 2), j = 0..N-2
    at_c = np.concatenate([diag, diag + 2 * n])
    ends = np.concatenate([np.arange(n), np.arange(1, n + 1)])
    arrays = ends, at_c, at_c + 1, template
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def _end_offsets(breakpoints: tuple[float, ...]) -> np.ndarray:
    """x - L_j at the lo ends of domains j = 1..N, then at their hi ends."""
    bp = np.asarray(breakpoints)
    offsets = np.concatenate([bp[:-2] - bp[1:-1], bp[2:] - bp[1:-1]])
    offsets.setflags(write=False)
    return offsets


def _stacked_matrices(c, s) -> np.ndarray:
    """Assemble 2N x 2N matching matrices from boundary values of shape (M, 2N).

    Entries [m, j - 1] and [m, N + j - 1] of ``c`` are C_j at L_{j-1} and
    at L_{j+1} at the m-th energy, and likewise S_j in ``s``.  Unknown
    ordering (c(1), d(1), ..., c(N), d(N)); row ordering (domain 1 left,
    domain 1 right, domain 2 left, ...).  Row (j, left) states c(j)
    C_j(L_{j-1}) + d(j) S_j(L_{j-1}) - c(j-1) = 0 and row (j, right) the
    mirror image at L_{j+1}, with c(0) = c(N+1) = 0.
    """
    m, n = len(c), np.shape(c)[1] // 2
    _, at_c, at_s, template = _assembly(n)
    a = np.empty((m, 4 * n * n))
    a[:] = template
    a[:, at_c] = c
    a[:, at_s] = s
    return a.reshape(m, 2 * n, 2 * n)


def matching_matrix(
    spec: PotentialSpec,
    energy: float,
    *,
    series_m: int | None = None,
) -> np.ndarray:
    """The homogeneous matching system with rows scaled to unit length;
    singular exactly at eigenvalues.  DegenerateEnergyError at an energy
    degenerate with an interval height, NonFiniteDeterminantError where the
    boundary values overflow."""
    if spec.n_interior < 1:
        raise ValueError("matching matrix needs at least one interior breakpoint")
    with np.errstate(over="ignore", invalid="ignore"):
        matrices, degenerate, overflow = _matching_block(spec, np.array([float(energy)]), series_m)
    if degenerate[0].any():
        raise degenerate_energy_error(spec, int(np.argmax(degenerate[0])), energy)
    if overflow[0].any():
        raise _non_finite_error(energy, overflow[0])
    return matrices[0]


def _box_sine_value(spec, energy, series_m=None) -> float:
    """Power-series sine-like solution from the left wall, evaluated at the
    right wall (N = 0), its truncation checked as in series_local_basis."""
    m = series_m or 80
    v = _reanchored(spec, 0, spec.x_min)
    coeffs = _local_series(v, spec.heights[0], energy, m + 10)[1]
    value = TaylorPiece(spec.x_min, coeffs).eval(spec.x_max)
    _check_truncation(coeffs, spec.x_max - spec.x_min, value, f"at m = {m} across the box")
    return value


# Largest size of the stacked matching matrices evaluated at once; longer
# energy arrays go through the kernel in blocks.
_BLOCK_BYTES = 8 * 2**20


def _matching_block(spec, energies, series_m):
    """The matching kernel: row-normalized matching matrices at a block of
    energies (N >= 1), the one place such a matrix is built.

    Returns the (M, 2N, 2N) matrices and two (M, N + 1) masks: the
    intervals whose height an energy is degenerate with (its entries are
    meaningless) and the intervals whose boundary values overflow the row
    normalization (an inf or NaN row norm).  Rows are scaled to unit
    length, so the determinant stays in [-1, 1] and keeps its zeros.
    Closed-form specs take the boundary values from the local frequencies,
    the power-series backend from each energy's domain bases.
    """
    n = spec.n_interior
    if spec.zero_order_polys is not None:
        degenerate = np.zeros((len(energies), spec.n_intervals), dtype=bool)
        c, s = _boundary_values([_domain_bases(spec, e, series_m) for e in energies])
    else:
        beta, degenerate = local_frequencies(spec, energies)
        c, s = unit_solutions(beta[:, _assembly(n)[0]], _end_offsets(spec.breakpoints))
    a = _stacked_matrices(c, s)
    # the row norms, summed as np.linalg.norm sums them
    norms = np.sqrt(np.add.reduce(a * a, axis=-1))
    # row 2j - 2 holds domain j's values on interval j - 1, row 2j - 1 on interval j
    bad = ~np.isfinite(norms)
    overflow = np.zeros((len(energies), n + 1), dtype=bool)
    overflow[:, :-1] = bad[:, 0::2]
    overflow[:, 1:] |= bad[:, 1::2]
    return a / norms[..., None], degenerate, overflow


def _non_finite_error(energy, overflow) -> NonFiniteDeterminantError:
    """The error for an energy whose boundary values overflow, naming the
    first overflowing interval of its ``overflow`` mask row."""
    return NonFiniteDeterminantError(
        f"secular determinant is not finite at E = {float(energy)!r}: "
        f"the boundary values on interval {int(np.argmax(overflow))} "
        "overflow (barrier too tall or too wide for double precision)"
    )


def _determinants(spec, energies, series_m):
    """secular_determinant's values at a 1-D array of energies, with the
    kernel's two masks, one row per energy: the intervals whose height the
    energy is degenerate with, and the intervals whose boundary values
    overflow.  A degenerate energy's overflow row is all False; any other
    energy whose determinant is not finite has one marked (interval 0 if
    none overflows).  For N >= 1 the energies go through the kernel in
    blocks that keep the stacked matrices near 8 MB."""
    n = spec.n_interior
    degenerate = np.zeros((len(energies), spec.n_intervals), dtype=bool)
    overflow = np.zeros_like(degenerate)
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 0 and spec.zero_order_polys is not None:
            dets = np.array([_box_sine_value(spec, e, series_m) for e in energies])
        elif n == 0:
            beta, degenerate = local_frequencies(spec, energies)
            dets = unit_solutions(beta[:, 0], spec.x_max - spec.x_min)[1]
        else:
            step = max(1, _BLOCK_BYTES // (32 * n * n))
            dets = np.empty(len(energies))
            for lo in range(0, len(energies), step):
                block = slice(lo, lo + step)
                matrices, degenerate[block], overflow[block] = _matching_block(
                    spec, energies[block], series_m
                )
                dets[block] = np.linalg.det(matrices)
    overflow[:, 0] |= ~np.isfinite(dets) & ~overflow.any(axis=1)
    overflow[degenerate.any(axis=1)] = False
    return dets, degenerate, overflow


def secular_determinant(
    spec: PotentialSpec,
    energy: float | np.ndarray,
    *,
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
    dets, degenerate, overflow = _determinants(spec, energies, series_m)
    bad = overflow.any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise _non_finite_error(energies[i], overflow[i])
    if e.ndim == 0:
        if degenerate[0].any():
            raise degenerate_energy_error(spec, int(np.argmax(degenerate[0])), energy)
        return float(dets[0])
    dets[degenerate.any(axis=1)] = np.nan
    return dets


def reference_floor(spec: PotentialSpec) -> float:
    """Reference potential floor for the momentum variable k = sqrt(E - floor)."""
    return min(lo for lo, _ in spec.value_ranges)


def _shots(spec: PotentialSpec, c: int) -> tuple[list, list]:
    """Paths from the left and the right wall to the matching point, the
    middle of interval c, as (interval, x_from, x_to) in order.  The angle
    sum is smooth at a level where its state is large at the matching
    point; a state that decays toward it through a barrier kappa w makes
    the sum step by pi over a range of order exp(-2 kappa w), which
    refinement can only bisect.  The lowest interval is the default, and
    find_eigenvalues moves a level whose sum steps to another interval."""
    bp = spec.breakpoints
    mid = 0.5 * (bp[c] + bp[c + 1])
    left = [(i, bp[i], bp[i + 1]) for i in range(c)] + [(c, bp[c], mid)]
    right = [(i, bp[i + 1], bp[i]) for i in range(spec.n_intervals - 1, c, -1)]
    return left, right + [(c, bp[c + 1], mid)]


# height of a zero-width leg that pads the shorter shot in front: below any
# energy, so the leg is oscillatory and keeps theta = 0 exactly
_PAD_HEIGHT = -1e300


def _trig_legs(spec, c) -> tuple[np.ndarray, np.ndarray]:
    """_trig_angle's heights and widths of both shots to matching point c,
    each of shape (legs, 2, 1), the shorter shot padded in front."""
    paths = _shots(spec, c)
    n = max(len(path) for path in paths)
    heights = np.full((n, 2, 1), _PAD_HEIGHT)
    widths = np.zeros((n, 2, 1))
    for row, path in enumerate(paths):
        for j, (i, x0, x1) in enumerate(path, start=n - len(path)):
            heights[j, row], widths[j, row] = spec.heights[i], abs(x1 - x0)
    return heights, widths


def _lane_legs(each) -> tuple[np.ndarray, np.ndarray]:
    """Legs of shape (legs, 2, lanes) from each lane's _trig_legs, the
    shorter ones padded in front like the shorter shot."""
    n = max(len(heights) for heights, _ in each)
    heights = np.full((n, 2, len(each)), _PAD_HEIGHT)
    widths = np.zeros((n, 2, len(each)))
    for k, (h, w) in enumerate(each):
        heights[n - len(h) :, :, k] = h[:, :, 0]
        widths[n - len(w) :, :, k] = w[:, :, 0]
    return heights, widths


def _trig_angle(energies, legs) -> np.ndarray:
    """Modified Pruefer angles at the matching point, one row per shot of
    ``legs`` (_trig_legs: row 0 from the left wall, row 1 from the right;
    last axis 1, or one lane per energy as _lane_legs stacks them), the
    shots swept together leg by leg.

    tan(theta) = S psi / psi', psi' taken along the path, with the scale
    S = sqrt|E - H_i| on interval i (1 where E is within BETA_MIN^2 of
    H_i, the rule of local_frequency); theta = 0 at the wall and passes each
    multiple of pi upward at a zero of psi.  Each interval has a closed form
    that cannot overflow: an oscillatory one advances theta by beta w, an
    evanescent one shrinks tan(theta - pi/4) (mod pi) by exp(-2 kappa w)
    toward the growing solution, and a flat one adds w to tan(theta).
    What does not depend on theta is computed for every leg at once.
    """
    heights, widths = legs
    q = energies - heights
    size = np.abs(q)
    flat = size <= BETA_MIN**2
    s = np.sqrt(size)
    some_flat = flat.any(axis=(1, 2)).tolist()
    if any(some_flat):
        s[flat] = 1.0
    sw = s * widths
    below = q < 0
    some_below = below.any(axis=(1, 2)).tolist()
    theta = np.zeros(q.shape[1:])
    for leg in range(len(q)):
        if leg:
            # a change of scale keeps every multiple of pi / 2 in place
            k = np.floor(theta / np.pi) * np.pi
            r = theta - k
            theta = k + np.arctan2(s[leg] * np.sin(r), s[leg - 1] * np.cos(r))
        advanced = theta + sw[leg]
        if some_below[leg]:
            at = below[leg]
            t = theta[at]
            k = np.floor(t / np.pi + 0.25) * np.pi + np.pi / 4
            r = t - k
            advanced[at] = k + np.arctan2(np.sin(r) * np.exp(-2 * sw[leg][at]), np.cos(r))
        if some_flat[leg]:
            k = np.floor(theta / np.pi + 0.5) * np.pi
            r = theta - k
            linear = k + np.arctan2(np.sin(r) + widths[leg] * np.cos(r), np.cos(r))
            advanced = np.where(flat[leg], linear, advanced)
        theta = advanced
    return theta


def _series_angle(energies, legs, m) -> np.ndarray:
    """Pruefer angle tan(theta) = psi / psi' at the end of a path for the
    power-series backend, shot from a wall.  ``legs`` holds _angle_sum's
    (width, potential range, _reanchored polynomial, height) of each leg.

    One series per interval, expanded where the path enters it, is sampled
    at steps of length h with h sqrt(A) <= 2, A the largest |E - V| on the
    interval.  That is shorter than pi / sqrt(max(E - V)), so by Sturm
    comparison no step holds two zeros of psi, and each sign change between
    samples is exactly one zero.  psi' is taken along the path.  Each energy
    is stepped on its own, so that a grid and a refinement step read the
    same float at it; each leg's series are checked at its far end, for all
    energies at once, as series_local_basis checks its boundary values.
    """
    n = np.arange(m + 1)
    series = [_local_series(v, height, energies, m) for _, _, v, height in legs]
    for (width, _, _, _), pair in zip(legs, series):
        both = np.stack(pair)
        _check_truncation(both, width, both @ width ** n, f"at m = {m} on a leg of the angle sum")
    angles = []
    for k, e in enumerate(energies.tolist()):
        psi, slope, sign, zeros = 0.0, 1.0, 1.0, 0
        for (width, (v_lo, v_hi), _, _), (c, s) in zip(legs, series):
            steps = max(1, math.ceil(abs(width) * math.sqrt(max(e - v_lo, v_hi - e)) / 2))
            powers = np.linspace(0.0, width, steps + 1)[1:, None] ** n
            weights = n[1:] * width ** n[:-1]
            direction = math.copysign(1.0, width)
            psi0, dpsi0 = psi, direction * slope  # where the path enters
            values = psi0 * (powers @ c[k]) + dpsi0 * (powers @ s[k])
            signs = np.where(values < 0, -1.0, 1.0)
            zeros += int(np.sum(signs * np.append(sign, signs[:-1]) < 0))
            sign, psi = signs[-1], values[-1]
            slope = direction * (psi0 * (c[k, 1:] @ weights) + dpsi0 * (s[k, 1:] @ weights))
            norm = math.hypot(psi, slope)
            psi, slope = psi / norm, slope / norm
        angles.append(zeros * math.pi + math.atan2(sign * psi, sign * slope))
    return np.array(angles)


def _angle_sum(spec, series_m):
    """The function half_turns(energies, c) that gives (theta_L + theta_R)
    / pi at a 1-D array of energies, matched in the middle of interval c:
    the lowest by default, or an int for every energy, or an int array of
    one matching point per energy.  That is the angle sum that sturm_count
    floors and find_eigenvalues refines.  Nothing but the angles depends on
    the energy: each matching point's legs are built on its first use (and
    the trig backend's stack of per-energy legs once per array of matching
    points), and for the power-series backend each interval's re-expanded
    polynomials once, shared by every matching point; the potential ranges
    are the spec's.  The trig backend sweeps every energy at once, its
    shorter legs padded; the power-series backend groups the energies by
    matching point and sweeps each energy once per matching point, so a
    finished bracket that brentq repeats in lock-step costs no sweep."""
    if spec.zero_order_polys is None:
        legs = cache(lambda c: _trig_legs(spec, c))
        lanes = cache(lambda cs: _lane_legs([legs(c) for c in cs]))

        def angles(energies, c):
            theta = _trig_angle(energies, legs(c) if np.ndim(c) == 0 else lanes(tuple(c.tolist())))
            return theta[0] + theta[1]
    else:
        reanchored = cache(lambda i, x0: _reanchored(spec, i, x0))
        legs = cache(lambda c: [
            [(x1 - x0, spec.value_ranges[i], reanchored(i, x0), spec.heights[i]) for i, x0, x1 in path]
            for path in _shots(spec, c)
        ])
        m = series_m or 80
        known = {}  # (matching point, energy): angle sum

        def matched(energies, c):
            new = [e for e in dict.fromkeys(energies.tolist()) if (c, e) not in known]
            if new:
                swept = sum(_series_angle(np.array(new), path, m) for path in legs(c))
                known.update({(c, e): a for e, a in zip(new, swept.tolist())})
            return np.array([known[c, e] for e in energies.tolist()])

        def angles(energies, c):
            if np.ndim(c) == 0:
                return matched(energies, c)
            out = np.empty(len(energies))
            for point in sorted(set(c.tolist())):
                at = c == point
                out[at] = matched(energies[at], point)
            return out

    lowest = int(np.argmin(spec.heights))
    return lambda energies, c=lowest: angles(energies, c) / np.pi


def sturm_count(
    spec: PotentialSpec,
    energies: float | np.ndarray,
    *,
    series_m: int | None = None,
) -> int | np.ndarray:
    """Number of eigenvalues below each energy, by the oscillation theorem.

    Pruefer angles are shot from both walls to the middle of the lowest
    interval (theta_R in the mirrored problem).  Their sum passes
    (n + 1) pi exactly once, upward, at level n, so N(E) =
    floor((theta_L + theta_R) / pi); between multiples of pi it need not be
    monotone.  This is SLEDGE's count for piecewise-constant problems
    (Pruess & Fulton, ACM TOMS 19 (1993) 360); find_eigenvalues refines the
    crossings of the same angle sum, each at a matching point of its own.
    Any matching point gives the same count in exact arithmetic, and every
    one crosses (n + 1) pi at level n itself (see _shots).  A pair split
    below double precision steps by one twice, rounding apart.
    ``energies`` is a scalar or a 1-D array; the result is an int or an int
    array.
    """
    e = np.asarray(energies, dtype=float)
    if e.ndim > 1:
        raise ValueError("energies must be a scalar or a one-dimensional array")
    counts = np.floor(_angle_sum(spec, series_m)(np.atleast_1d(e))).astype(int)
    return int(counts[0]) if e.ndim == 0 else counts


@dataclass(frozen=True)
class EigenvalueScan:
    """Result of find_eigenvalues.

    ``energies`` are the eigenvalues in the window, each where the angle
    sum of sturm_count crosses its multiple of pi.  ``spurious`` lists the
    overlap resonances in the window, the Dirichlet levels of each interval
    (L_j, L_{j+1}) that two domains share: there value matching at two
    points no longer pins the solution, and the secular determinant
    vanishes without an eigenfunction behind it.  A resonance that a level
    was refined onto is that level and is not listed.  ``near_degenerate``
    lists entries of ``energies`` that stand for two crossings refined to
    the same energy (a pair split below double-precision resolution);
    coefficient extraction there reports the degeneracy paradox instead of
    inventing a null vector.  ``skipped`` is always empty, since the angle
    is defined at every energy, an interval height included.
    ``angle_evaluations`` counts the levels' calls of the angle sum, each
    at an array of energies: the grid, one call of the other matching
    points at the ends of steep cells, and the brentq steps.
    """

    energies: tuple[float, ...]
    complete: bool
    skipped: tuple[float, ...] = ()
    spurious: tuple[float, ...] = ()
    near_degenerate: tuple[float, ...] = ()
    angle_evaluations: int = 0


# smallest relative tolerance brentq accepts: four ulps
_RTOL_MIN = 4 * math.ulp(1.0)
_BRENT_MAXITER = 100


def brentq(f, a, b, xtol: float, rtol: float = _RTOL_MIN, target=0.0, f_ends=None):
    """Root of f(x) = target in [a, b] by the Brent-Dekker method (Brent
    1973, ch. 4).

    The iteration of scipy.optimize.brentq on f - target, step for step:
    inverse quadratic (or secant) interpolation when it falls well inside
    the bracket, bisection otherwise, and at least delta = (xtol + rtol |x|)
    / 2 per step; the bracket half-width below delta ends it.  Same inputs
    give the same float, and with target 0 the float scipy gives.  Raises
    ValueError when f - target has one sign at a and b or f returns NaN,
    RootNotConvergedError after 100 steps.

    ``a`` and ``b`` are scalars, or 1-D arrays of brackets refined in
    lock-step: f is called once per step with an array of one trial point
    per bracket, a finished bracket repeating its root, so that f may pair
    each entry with data of its bracket.  Each bracket takes the same steps,
    and returns the same float, as it would alone.  ``target`` is then a
    scalar or one value per bracket.  A NaN at an unfinished bracket is
    evaluated again as a scalar, so that f raises there what its scalar
    form raises.

    ``f_ends = (f(a), f(b))``, values already known (of f, not f - target,
    shaped like ``a`` and ``b``), take the place of the first two calls;
    the steps and the root are those that evaluating them would give.
    Otherwise f is evaluated at the ends first, then once a step.
    """
    if xtol <= 0 or rtol < _RTOL_MIN:
        raise ValueError(f"tolerances too small: xtol={xtol!r}, rtol={rtol!r}")
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    lo = np.atleast_1d(np.asarray(a, dtype=float))
    hi = np.atleast_1d(np.asarray(b, dtype=float))
    if lo.ndim > 1 or lo.shape != hi.shape:
        raise ValueError("brackets must be two scalars or two 1-D arrays of one length")
    goal = np.broadcast_to(np.asarray(target, dtype=float), lo.shape).tolist()
    ends = () if f_ends is None else f_ends
    known = [np.broadcast_to(np.asarray(v, dtype=float), lo.shape).tolist() for v in ends]
    lanes = [_brent(x, y, xtol, rtol) for x, y in zip(lo.tolist(), hi.tolist())]
    # each lane's trial point while it runs, its root once it has finished
    xs = [next(lane) for lane in lanes]
    running = range(len(lanes))
    while running:
        if known:
            # every lane asks for f(a), then f(b), before its first step
            fxs = known.pop(0)
        else:
            fxs = [f(xs[0])] if scalar else np.asarray(f(np.array(xs)), dtype=float).tolist()
        still = []
        for i in running:
            fx = float(fxs[i])
            if math.isnan(fx) and not scalar:
                fx = float(f(xs[i]))
            if math.isnan(fx):
                raise ValueError(f"f({xs[i]!r}) is NaN; the root cannot be refined")
            try:
                xs[i] = lanes[i].send(fx - goal[i])
                still.append(i)
            except StopIteration as done:
                xs[i] = done.value
        running = still
    return xs[0] if scalar else np.array(xs)


def _brent(xpre: float, xcur: float, xtol: float, rtol: float):
    """One bracket's Brent-Dekker iteration, as a generator: it yields each
    point where f is wanted, is sent f there, and returns the root."""
    fpre = yield xpre
    fcur = yield xcur
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
        fcur = yield xcur
    raise RootNotConvergedError(
        f"root refinement did not converge in {_BRENT_MAXITER} steps; last x = {xcur!r}"
    )


# brentq's relative tolerance for a level
_REFINE_RTOL = 8.9e-16


# a level whose angle sum rises by more than this across its grid cell is
# matched elsewhere if another interval's sum rises by under a quarter of it
_STEEP_RISE = 0.5


def _refined_crossings(spec, grid, xtol, series_m) -> tuple[np.ndarray, int]:
    """Every level n in (grid[0], grid[-1]], ascending: where the angle sum
    crosses n + 1 (in units of pi), and the number of angle evaluations.

    The first cell whose upper end counts past n brackets level n, because
    the count can only rise.  Any matching point crosses n + 1 at the level
    itself, so a level whose sum rises steeply across its cell, a state
    small at the lowest interval, takes the interval where the sum rises
    least, if that is under a quarter of the default's rise and brackets
    n + 1 too; one call evaluates each other interval below the top of some
    such cell at both ends of every such cell.  One brentq call refines
    every level in lock-step, each at its own matching point, from the
    values at the ends of its cell, with per-lane targets n + 1."""
    half_turns = _angle_sum(spec, series_m)
    sums = half_turns(grid)
    evaluations = 1
    counts = np.floor(sums).astype(int)
    n = np.arange(counts[0], counts[-1])
    target = n + 1.0
    hi = np.searchsorted(np.maximum.accumulate(counts), n, side="right")
    e_lo, e_hi, f_lo, f_hi = grid[hi - 1], grid[hi], sums[hi - 1], sums[hi]
    lowest = int(np.argmin(spec.heights))
    match = np.full(len(n), lowest)
    steep = np.flatnonzero(f_hi - f_lo > _STEEP_RISE)
    # a state is large where it oscillates, not inside a barrier
    top = e_hi[steep].max(initial=-math.inf)
    others = [c for c in range(spec.n_intervals) if c != lowest and spec.heights[c] < top]
    if others:
        ends = np.concatenate([e_lo[steep], e_hi[steep]])
        values = half_turns(np.tile(ends, len(others)), np.repeat(others, len(ends)))
        evaluations += 1
        least, crossed = 0.25 * (f_hi - f_lo)[steep], target[steep]
        for c, (a, b) in zip(others, values.reshape(len(others), 2, len(steep))):
            better = (b - a < least) & (a < crossed) & (b > crossed)
            least = np.where(better, b - a, least)
            moved = steep[better]
            match[moved], f_lo[moved], f_hi[moved] = c, a[better], b[better]

    def f(energies):
        nonlocal evaluations
        evaluations += 1
        return half_turns(energies, match)

    roots = brentq(
        f, e_lo, e_hi, xtol=xtol, rtol=_REFINE_RTOL, target=target, f_ends=(f_lo, f_hi)
    )
    return np.sort(roots), evaluations


def _overlap_resonances(spec, grid, xtol, series_m) -> list[float]:
    """The Dirichlet levels in (grid[0], grid[-1]] of each interval
    (L_j, L_{j+1}), j = 1..N-1, that domains j and j + 1 share: H_j +
    (m pi / w_j)^2 for closed-form specs, the levels of the one-interval
    problem on (L_j, L_{j+1}) for the power-series backend."""
    bp, out = spec.breakpoints, []
    for j in range(1, spec.n_interior):
        if spec.zero_order_polys is not None:
            interval = PotentialSpec(bp[j : j + 2], (spec.heights[j],), (spec.zero_order_polys[j],))
            out += _refined_crossings(interval, grid, xtol, series_m)[0].tolist()
            continue
        h, width = spec.heights[j], bp[j + 1] - bp[j]
        m = np.arange(1, width * math.sqrt(max(grid[-1] - h, 0.0)) / math.pi + 1)
        e = h + (m * math.pi / width) ** 2
        out += e[(e > grid[0]) & (e <= grid[-1])].tolist()
    return out


def _is_spurious_root(resonance: float, levels: np.ndarray, xtol: float) -> bool:
    """An overlap resonance is a spurious determinant zero unless a level
    was refined onto it: within brentq's last bracket width of it."""
    resolution = xtol + _REFINE_RTOL * abs(resonance)
    return bool(np.all(np.abs(levels - resonance) > resolution))


def find_eigenvalues(
    spec: PotentialSpec,
    e_lo: float,
    e_hi: float,
    count: int | None = None,
    *,
    scan: ScanConfig = DEFAULT_SCAN,
    xtol: float = REFINE_XTOL,
    series_m: int | None = None,
) -> EigenvalueScan:
    """Eigenvalues in (e_lo, e_hi), ascending, from the Pruefer angle alone.

    The angle sum of sturm_count is evaluated on scan.points energies
    uniform in k = sqrt(E - floor), which spreads out low-lying levels, and
    each of its crossings of a multiple of pi in the window is refined by
    brentq to |dE| ~ xtol (REFINE_XTOL, 1e-13, by default), from the
    grid's values at the ends of its cell.
    A level whose sum steps across its cell is matched in the interval
    where the sum is smoothest (see _refined_crossings); all levels are
    refined in lock-step, each at its own matching point, one angle
    evaluation a step.
    Two crossings refined to the same energy within that tolerance are one
    entry, listed as near-degenerate: a pair split below double precision.
    The secular determinant is not evaluated; its other zeros, the overlap
    resonances, are listed as spurious.  If fewer than ``count`` levels
    exist in the window, complete=False.
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

    ks = np.linspace(k_lo, k_hi, scan.points)
    grid = floor + ks * ks
    roots, evaluations = _refined_crossings(spec, grid, xtol, series_m)
    levels: list[float] = []
    merged = set()
    for root in roots.tolist():
        # two crossings at one energy end up to two last brackets apart
        if levels and root - levels[-1] <= 2 * (xtol + _REFINE_RTOL * abs(root)):
            merged.add(levels[-1])
        else:
            levels.append(root)
    resonances = _overlap_resonances(spec, grid, xtol, series_m)
    spurious = sorted({e for e in resonances if _is_spurious_root(e, roots, xtol)})
    complete = count is None or len(levels) >= count
    if count is not None:
        levels = levels[:count]
    return EigenvalueScan(
        tuple(levels),
        complete,
        spurious=tuple(spurious),
        near_degenerate=tuple(e for e in levels if e in merged),
        angle_evaluations=evaluations,
    )


@dataclass(frozen=True, eq=False)
class MatchedState:
    """Matched zero-order state: energy, per-domain coefficients, residual.

    coeffs[j - 1] = (c(j), d(j)) for domains j = 1..N, normalized to a unit
    Euclidean null vector with the first nonzero component positive.
    c(0) = c(N+1) = 0 are implicit.  residual is the largest row residual
    of the row-normalized matching system, and series_m the truncation of
    the power-series backend that match_coefficients was given.  The
    domain bases and the overlap gap are built from these on first read.
    Two states are equal, and hash alike, only if they are the same object.
    """

    spec: PotentialSpec
    energy: float
    coeffs: np.ndarray
    residual: float
    series_m: int | None = None

    @cached_property
    def bases(self) -> tuple[DomainBasis, ...]:
        """Each domain's DomainBasis at the state's energy, built on first
        read: only the perturbation series, the Wronskian check and the
        state's pieces read them."""
        return tuple(_domain_bases(self.spec, self.energy, self.series_m))

    @cached_property
    def overlap_gap(self) -> float:
        """Worst disagreement of adjacent domain representations on their
        shared interval (the module's overlap_gap): machine-small for genuine
        eigenvalues, order one for the spurious sub-interval-resonance
        zeros.  Computed on first read."""
        return overlap_gap(self.spec, self.domain_pieces())

    @property
    def n_domains(self) -> int:
        return len(self.coeffs)

    def domain_piece(self, j: int, side: str):
        """The state's representation c(j) C_j + d(j) S_j on one side of domain j."""
        basis = self.bases[j - 1]
        c, d = self.coeffs[j - 1]
        return c * basis.piece("c", side) + d * basis.piece("s", side)

    def domain_pieces(self) -> list[tuple]:
        """Each domain's (left, right) representation, domains 1..N."""
        return [(self.domain_piece(j, "left"), self.domain_piece(j, "right"))
                for j in range(1, self.n_domains + 1)]

    def global_pieces(self) -> tuple:
        """The non-overlapping cover of domain_pieces."""
        return cover(self.domain_pieces())

    def eval(self, x) -> np.ndarray:
        return eval_pieces(self.spec, self.global_pieces(), x)


def cover(domain_pieces) -> tuple:
    """Non-overlapping cover from per-domain (left, right) pieces: interval
    0 gets domain 1's left piece, interval i >= 1 domain i's right piece."""
    return (domain_pieces[0][0],) + tuple(pair[1] for pair in domain_pieces)


def eval_pieces(spec: PotentialSpec, pieces, x):
    """Values at x of the function that is pieces[i] on interval i of spec.

    Each piece is evaluated once, on all of its points; breakpoints go to
    the right interval, as in PotentialSpec.interval_index.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    index = spec.interval_index(xs)
    out = np.empty_like(xs)
    for i in sorted(set(index.tolist())):
        at = index == i
        out[at] = pieces[i].eval(xs[at])
    return out if np.ndim(x) else float(out[0])


def overlap_gap(spec: PotentialSpec, domain_pieces) -> float:
    """Worst disagreement of adjacent domain representations of a state.

    Domains j and j + 1 both represent the state on (L_j, L_{j+1}): domain
    j's right piece and domain j + 1's left piece of ``domain_pieces``, each
    domain's (left, right) pair.  They are compared at nine interior points
    of each such overlap, relative to the largest value sampled (at least
    1).  Machine-small for a genuine solution.
    """
    bp = np.asarray(spec.breakpoints)
    lo, hi = bp[1:-2], bp[2:-1]
    xs = np.linspace(lo + 0.07 * (hi - lo), hi - 0.07 * (hi - lo), 9, axis=1)
    right = np.array([pair[1].eval(x) for pair, x in zip(domain_pieces, xs)])
    left = np.array([pair[0].eval(x) for pair, x in zip(domain_pieces[1:], xs)])
    gap = np.max(np.abs(right - left), initial=0.0)
    scale = max(1.0, np.max(np.abs(right), initial=0.0), np.max(np.abs(left), initial=0.0))
    return float(gap / scale)


def match_coefficients(
    spec: PotentialSpec,
    energy: float,
    *,
    series_m: int | None = None,
) -> MatchedState:
    """Extract the matched coefficients at a determinant root.

    The null vector of the (row-normalized) matching system, with the
    Sturm-Liouville guarantee that it is one-dimensional.  Raises
    DegeneracyParadoxError when the null space is not simple and
    NotARootError when the null vector's residual exceeds
    MATCHING_RESIDUAL.  No determinant is tested: the 2N rows have unit
    length, so |det| <= sqrt(e) sigma_min <= sqrt(e) sqrt(2N) residual.
    The state's domain bases and its overlap_gap diagnostic, whether
    adjacent representations actually agree, are built on first read,
    not here.
    """
    if spec.n_interior == 0:
        raise SchemaError(
            "a plain box has no matching coefficients; insert a fictitious "
            "breakpoint (see PotentialSpec.with_fictitious_breakpoint)"
        )
    an = matching_matrix(spec, energy, series_m=series_m)
    _, svals, vt = np.linalg.svd(an)
    if len(svals) >= 2 and svals[-2] < 1e-8 * max(svals[0], 1e-300):
        raise DegeneracyParadoxError(
            "matching system null space is not one-dimensional"
        )
    v = vt[-1]
    residual = float(np.max(np.abs(an @ v)))
    if residual > MATCHING_RESIDUAL:
        raise NotARootError(
            f"matching residual {residual:.3e} above {MATCHING_RESIDUAL:.1e} "
            f"at E = {energy}"
        )
    nz = np.nonzero(np.abs(v) > 1e-10)[0]
    if len(nz) and v[nz[0]] < 0:
        v = -v
    coeffs = v.reshape(-1, 2).copy()
    coeffs.setflags(write=False)
    return MatchedState(spec, float(energy), coeffs, residual, series_m)
