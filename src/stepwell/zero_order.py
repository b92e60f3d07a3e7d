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

A spec with zero_order_polys is the limit of piecewise-constant
staircases, which the same closed forms solve exactly: its levels and
boundary values are Richardson-extrapolated in h^2 from staircases of
n, 2n, 4n and 8n cells per interval (Pruess, SIAM J. Numer. Anal. 10
(1973) 55; Pruess & Fulton, ACM TOMS 19 (1993) 360).
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
    STAIRCASE_CELLS_MAX,
    STAIRCASE_RTOL,
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
from .potential import PotentialSpec, local_frequencies, local_frequency
from .trigbasis import TrigPoly, unit_solutions

__all__ = [
    "DomainBasis",
    "MatchedState",
    "EigenvalueScan",
    "build_domain_basis",
    "matching_matrix",
    "secular_determinant",
    "sturm_count",
    "find_eigenvalues",
    "match_coefficients",
    "reference_floor",
    "brentq",
]


@dataclass(frozen=True)
class DomainBasis:
    """Local solution pair on the double interval (x_lo, x_hi) anchored at L_j.

    c_* pieces have (value, slope) = (1, 0) at the anchor, s_* pieces (0, 1);
    the left piece lives on (x_lo, anchor), the right piece on (anchor,
    x_hi).  The matching values at x_lo and x_hi come from _matching_values
    alone, and no basis is built to find or match a level; a MatchedState
    builds its bases on first access, for the perturbation series.
    """

    j: int
    anchor: float
    x_lo: float
    x_hi: float
    c_left: TrigPoly
    s_left: TrigPoly
    c_right: TrigPoly
    s_right: TrigPoly

    def piece(self, kind: str, side: str):
        return getattr(self, f"{kind}_{side}")


def build_domain_basis(spec: PotentialSpec, energy: float, j: int) -> DomainBasis:
    """Local basis on domain j (anchored at breakpoint L_j), j = 1..N:
    closed-form trigonometric pieces.  A spec with zero_order_polys has
    none, and raises SchemaError: its levels and matching values are
    extrapolated from staircases, whose own pieces are closed-form.
    """
    if not 1 <= j <= spec.n_interior:
        raise ValueError(f"domain index {j} outside 1..{spec.n_interior}")
    if spec.zero_order_polys is not None:
        raise SchemaError(
            "a polynomial zero order has no closed-form domain pieces; "
            "only its levels and matching values are extrapolated from staircases"
        )
    anchor = spec.breakpoints[j]
    x_lo = spec.breakpoints[j - 1]
    x_hi = spec.breakpoints[j + 1]
    beta_l = local_frequency(spec, j - 1, energy)
    beta_r = local_frequency(spec, j, energy)
    return DomainBasis(
        j,
        anchor,
        x_lo,
        x_hi,
        TrigPoly.cosine(anchor, beta_l),
        TrigPoly.sine_unit_slope(anchor, beta_l),
        TrigPoly.cosine(anchor, beta_r),
        TrigPoly.sine_unit_slope(anchor, beta_r),
    )


def _domain_bases(spec, energy) -> list[DomainBasis]:
    return [build_domain_basis(spec, energy, j) for j in range(1, spec.n_interior + 1)]


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


def matching_matrix(spec: PotentialSpec, energy: float) -> np.ndarray:
    """The homogeneous matching system with rows scaled to unit length;
    singular exactly at eigenvalues.  NonFiniteDeterminantError where the
    boundary values overflow."""
    if spec.n_interior < 1:
        raise ValueError("matching matrix needs at least one interior breakpoint")
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = _matching_block(spec, np.array([float(energy)]))[0]
    if not np.isfinite(matrix).all():
        raise _non_finite_error(spec, energy)
    return matrix


# Largest size of the stacked matching matrices evaluated at once; longer
# energy arrays go through the kernel in blocks.  A polynomial zero order's
# transfer products take up to STAIRCASE_CELLS_MAX cells per energy, so its
# blocks hold _STAIRCASE_BLOCK energies.
_BLOCK_BYTES = 8 * 2**20
_STAIRCASE_BLOCK = 16


def _matching_values(spec, energies) -> tuple[np.ndarray, np.ndarray]:
    """The matching values at a 1-D array of energies (N >= 1), the one
    place they are computed: C_j and S_j at L_{j-1} and at L_{j+1}, as the
    (M, 2N) arrays c and s that _stacked_matrices takes.  Closed-form specs
    take them from the local frequencies (unit_solutions, defined at every
    energy, a height included); a spec with zero_order_polys extrapolates
    them from staircases (_staircase_values)."""
    if spec.zero_order_polys is not None:
        return _staircase_values(spec, energies)
    beta = local_frequencies(spec, energies)
    return unit_solutions(beta[:, _assembly(spec.n_interior)[0]], _end_offsets(spec.breakpoints))


def _matching_block(spec, energies) -> np.ndarray:
    """The matching kernel: the (M, 2N, 2N) row-normalized matching
    matrices at a block of energies (N >= 1), the one place such a matrix
    is built.  Rows are scaled to unit length, so the determinant stays in
    [-1, 1] and keeps its zeros.  A row whose values overflow the
    normalization (an inf or NaN norm) is NaN, and so are its matrix's
    determinant and null vector.
    """
    a = _stacked_matrices(*_matching_values(spec, energies))
    # the row norms, summed as np.linalg.norm sums them
    norms = np.sqrt(np.add.reduce(a * a, axis=-1))
    norms[~np.isfinite(norms)] = np.nan
    return a / norms[..., None]


def _non_finite_error(spec, energy) -> NonFiniteDeterminantError:
    """The error for an energy whose determinant is not finite, naming the
    first interval whose boundary values overflow: the kernel's first NaN
    row there, row r on interval (r + 1) // 2 (row 2j - 2 holds domain j's
    values on interval j - 1, row 2j - 1 on interval j); interval 0 if no
    row is NaN."""
    interval = 0
    if spec.n_interior:
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.isnan(_matching_block(spec, np.array([float(energy)]))[0]).any(axis=1)
        interval = (int(np.argmax(rows)) + 1) // 2
    return NonFiniteDeterminantError(
        f"secular determinant is not finite at E = {float(energy)!r}: "
        f"the boundary values on interval {interval} "
        "overflow (barrier too tall or too wide for double precision)"
    )


def _determinants(spec, energies) -> np.ndarray:
    """secular_determinant's values at a 1-D array of energies, not
    finite where the boundary values overflow.  For N >= 1, and
    for a polynomial zero order, the energies go through the kernel in
    blocks that keep the stacked matrices near 8 MB, or the transfer
    products near 20 MB; a value does not depend on the block it falls
    in."""
    n = spec.n_interior
    polynomial = spec.zero_order_polys is not None
    # np.linalg.det warns on a NaN matrix
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 0 and not polynomial:
            beta = local_frequencies(spec, energies)
            return unit_solutions(beta[:, 0], spec.x_max - spec.x_min)[1]
        step = _STAIRCASE_BLOCK if polynomial else max(1, _BLOCK_BYTES // (32 * n * n))
        dets = np.empty(len(energies))
        for lo in range(0, len(energies), step):
            block = slice(lo, lo + step)
            if n == 0:
                dets[block] = _staircase_values(spec, energies[block])
            else:
                dets[block] = np.linalg.det(_matching_block(spec, energies[block]))
    return dets


def secular_determinant(
    spec: PotentialSpec,
    energy: float | np.ndarray,
    *,
    series_m: int | None = None,
) -> float | np.ndarray:
    """Row-normalized determinant of the matching system.

    Continuous in E, an interval height included (unit_solutions); its
    sign changes bracket the eigenvalues.  Row normalization keeps the
    value in [-1, 1] without moving any zero.  For N = 0 the matching
    degenerates to the boundary condition and the sine-like wall-to-wall
    value is returned instead.  A spec with zero_order_polys builds the
    same matrix from extrapolated boundary values (_staircase_values).
    ``series_m`` is accepted and ignored; it is kept only for callers
    written for an earlier backend.

    ``energy`` is a scalar or a 1-D array.  The array form evaluates every
    energy in one vectorised pass (blocked so that the stacked matrices stay
    near 8 MB) and returns an array.  Either form raises
    NonFiniteDeterminantError at the first energy whose determinant is not
    finite: where boundary values overflow, the kernel's row is NaN, and so
    is the determinant, never an exact 0.
    """
    e = np.asarray(energy, dtype=float)
    if e.ndim > 1:
        raise ValueError("energy must be a scalar or a one-dimensional array")
    energies = np.atleast_1d(e)
    dets = _determinants(spec, energies)
    bad = ~np.isfinite(dets)
    if bad.any():
        raise _non_finite_error(spec, energies[np.argmax(bad)])
    return float(dets[0]) if e.ndim == 0 else dets


def reference_floor(spec: PotentialSpec) -> float:
    """Reference potential floor for the momentum variable k = sqrt(E - floor)."""
    return min(lo for lo, _ in spec.value_ranges)


# coarsest staircase: this many cells per unit of sqrt(max V - min V) on an
# interval, and at least _CELLS_MIN where the polynomial varies
_CELLS_PER_ROOT_VARIATION = 4.0
_CELLS_MIN = 8


def _base_cells(spec: PotentialSpec) -> np.ndarray:
    """Cells per interval of the coarsest staircase of a spec with
    zero_order_polys, from each polynomial's variation on its interval: a
    flat interval needs one cell, and the level error of a staircase grows
    with the variation each cell leaves out.  Below _CELLS_MIN cells the
    errors need not fall as h^2 yet: small tilts took six or seven
    staircases from one cell per interval, and take four from eight."""
    return np.array([
        max(_CELLS_MIN, math.ceil(_CELLS_PER_ROOT_VARIATION * math.sqrt(hi - lo))) if hi > lo else 1
        for lo, hi in spec.value_ranges
    ])


def _staircase(spec: PotentialSpec, cells) -> PotentialSpec:
    """The piecewise-constant spec that cuts interval i of ``spec`` into
    cells[i] equal cells, each at H_i + p_i(its midpoint); the breakpoints
    of ``spec`` stay cell edges."""
    bp, heights = [spec.x_min], []
    polyval = np.polynomial.polynomial.polyval
    for i, n in enumerate(np.asarray(cells).tolist()):
        edges = np.linspace(spec.breakpoints[i], spec.breakpoints[i + 1], n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        heights += (spec.heights[i] + polyval(mids, spec.zero_order_polys[i])).tolist()
        bp += edges[1:].tolist()
    return PotentialSpec(tuple(bp), tuple(heights))


def _height_error(spec: PotentialSpec, cells) -> float:
    """A bound on |V - V_staircase| over the intervals: a cell times the
    largest |p_i'| sampled at 201 points, twice the half cell that bounds
    it, for the samples' sake.  By min-max, every level of the staircase
    lies within it of the same level of ``spec``."""
    bound = 0.0
    npoly = np.polynomial.polynomial
    for i, n in enumerate(np.asarray(cells).tolist()):
        a, b = spec.breakpoints[i], spec.breakpoints[i + 1]
        slope = npoly.polyval(np.linspace(a, b, 201), npoly.polyder(spec.zero_order_polys[i]))
        bound = max(bound, (b - a) / n * float(np.max(np.abs(slope))))
    return bound


def _richardson(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Three Richardson steps in h^2 over values on staircases of n, 2n, 4n
    and 8n cells per interval (the leading axis): the extrapolant, and the
    spread of the last two extrapolants, |final - the two-step extrapolant
    of the three finer staircases|, its error estimate."""
    for factor in (4.0, 16.0, 64.0):
        last, values = values, (factor * values[1:] - values[:-1]) / (factor - 1.0)
    return values[0], np.abs(values[0] - last[1])


def _extrapolated(spec: PotentialSpec, evaluate, scale=np.abs):
    """Richardson extrapolation, key by key, of ``evaluate(cells, wanted)``:
    a dict from keys to values (arrays of one shape) on the staircase of
    ``cells`` cells per interval.  The first four staircases, _base_cells
    times 1, 2, 4 and 8, are evaluated with ``wanted`` None; the keys all
    four hold are extrapolated (_richardson), and a key converges once each
    finite extrapolant spreads by at most STAIRCASE_RTOL max(1, scale),
    ``scale`` of the extrapolants (their magnitude by default).  The cells
    double, one new staircase a round, for the keys that have not, passed
    as ``wanted``; so each key's extrapolant depends on its own values
    alone.  A key the newest staircase lacks is dropped.  Past
    STAIRCASE_CELLS_MAX cells, TruncationError.  Returns the extrapolants,
    the finest cells and the finest staircase's values, by key."""
    base, factor, runs, wanted, done = _base_cells(spec), 1, [], None, {}
    while True:
        if base.sum() * factor > STAIRCASE_CELLS_MAX:
            raise TruncationError(
                f"staircase extrapolation did not converge within {STAIRCASE_CELLS_MAX} "
                f"cells (coarsest cells per interval {base.tolist()})"
            )
        runs = runs[-3:] + [evaluate(base * factor, wanted)]
        if len(runs) == 4:
            held = set(runs[-1]).intersection(*runs[:-1])
            keys = sorted(held if wanted is None else held & wanted)
            wanted = set()
            if keys:
                value, spread = _richardson(np.array([[run[k] for k in keys] for run in runs]))
                tolerance = STAIRCASE_RTOL * np.maximum(1.0, scale(value))
                ok = (spread <= tolerance) | ~np.isfinite(value)
                for k, v, good in zip(keys, value, ok.reshape(len(keys), -1).all(axis=1)):
                    if good:
                        done[k] = v
                    else:
                        wanted.add(k)
            if not wanted:
                return done, base * factor, runs[-1]
        factor *= 2


def _transfer_product(heights, widths, energies) -> np.ndarray:
    """The product M_last ... M_first of the cells' transfer matrices at
    each energy, shape (M, 2, 2).  Cell k maps (psi, psi') across its
    signed width t: [[C, S], [(H - E) S, C]] with C = cos(beta t) and
    S = sin(beta t) / beta (unit_solutions, which gives C = 1, S = t on the
    cell's height H).  The product is taken in pairs, so in log2(cells)
    array steps."""
    q = energies[:, None] - heights
    c, s = unit_solutions(np.sqrt(q.astype(complex)), widths)
    m = np.stack([np.stack([c, s], axis=-1), np.stack([-q * s, c], axis=-1)], axis=-2)
    while m.shape[1] > 1:
        if m.shape[1] % 2:
            m = np.concatenate([m, np.broadcast_to(np.eye(2), (len(m), 1, 2, 2))], axis=1)
        m = m[:, 1::2] @ m[:, 0::2]
    return m[:, 0]


def _staircase_values(spec: PotentialSpec, energies):
    """The matching values of a spec with zero_order_polys at a 1-D array
    of energies, extrapolated from staircases (_extrapolated) energy by
    energy: for N >= 1, C_j and S_j at L_{j-1} and at L_{j+1}, as the
    (M, 2N) arrays c and s that _stacked_matrices takes, each the first row
    of the transfer product across the half-domain, from L_j; for N = 0,
    the sine-like value from the left wall at the right wall, shape (M,).

    C and S at one end are converged relative to the larger of the two,
    the norm that the matching row is scaled by: near a level S across a
    box is a difference of large terms, and no staircase holds it to a
    fraction of itself."""
    n = spec.n_interior

    def values(cells, wanted):
        at = range(len(energies)) if wanted is None else sorted(wanted)
        e = energies[at]
        stair = _staircase(spec, cells)
        heights, widths = np.array(stair.heights), np.diff(stair.breakpoints)
        bounds = np.concatenate([[0], np.cumsum(cells)])
        cells_of = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        if n == 0:
            ends = [_transfer_product(heights, widths, e)]
        else:
            # interval j - 1 leftward from L_j, then interval j rightward
            ends = [_transfer_product(heights[i][::-1], -widths[i][::-1], e) for i in cells_of[:-1]]
            ends += [_transfer_product(heights[i], widths[i], e) for i in cells_of[1:]]
        rows = np.stack(ends, axis=-1)[:, 0]  # (M, 2, ends): C then S
        return dict(zip(at, rows))

    def row_size(values):
        return np.max(np.abs(values), axis=1, keepdims=True)

    done = _extrapolated(spec, values, row_size)[0]
    rows = np.array([done[i] for i in range(len(energies))]).reshape(len(energies), 2, -1)
    return rows[:, 1, 0] if n == 0 else (rows[:, 0], rows[:, 1])


def _polynomial_levels(spec, e_lo, e_hi, scan, xtol):
    """The levels in (e_lo, e_hi) of a spec with zero_order_polys,
    ascending, the angle evaluations, the finest staircase and its levels
    with the same Sturm indices.

    Each staircase is scanned as a piecewise-constant spec, on the grid of
    find_eigenvalues over the window widened by its _height_error, so that
    it holds every level of the window.  Its levels are numbered by their
    Sturm index and extrapolated (_extrapolated), each on as many
    staircases as it needs.  A level whose angle sum steps across its cell
    may be matched in the lowest cell of any interval of ``spec``, not in
    every cell."""
    floor = reference_floor(spec)
    evaluations = 0

    def levels(cells, wanted):
        nonlocal evaluations
        stair = _staircase(spec, cells)
        margin = _height_error(spec, cells)
        k_lo, k_hi = np.sqrt(np.maximum([e_lo - margin - floor, e_hi + margin - floor], 0.0))
        ks = np.linspace(k_lo, k_hi, scan.points)
        starts = np.concatenate([[0], np.cumsum(cells)])
        points = [lo + int(np.argmin(stair.heights[lo:hi])) for lo, hi in zip(starts, starts[1:])]
        roots, used, first = _refined_crossings(stair, floor + ks * ks, xtol, points)
        evaluations += used
        return dict(enumerate(roots.tolist(), start=first))

    done, cells, finest = _extrapolated(spec, levels)
    # the finest staircase puts a level it lacks outside the window, and
    # a pair split below the extrapolation's error may come out swapped
    keys = [k for k in sorted(done) if e_lo < done[k] < e_hi and k in finest]
    roots = np.sort([done[k] for k in keys])
    return roots, evaluations, _staircase(spec, cells), tuple(finest[k] for k in keys)


def _legs(spec: PotentialSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Heights and widths (n, 2, 1) and half widths to the middle (n, 2) of the legs: leg j
    of row 0 crosses interval j from the left wall, leg j of row 1 interval n - 1 - j."""
    lo, hi = np.array(spec.breakpoints[:-1]), np.array(spec.breakpoints[1:])
    mid = 0.5 * (lo + hi)
    legs = np.empty((3, len(lo), 2))
    legs[:, :, 0] = spec.heights, hi - lo, mid - lo
    legs[:, ::-1, 1] = spec.heights, hi - lo, hi - mid
    return legs[0, :, :, None], legs[1, :, :, None], legs[2]


def _advance(theta, sw, below, flat, some_below, some_flat) -> np.ndarray:
    """``theta`` across an interval by its closed form, sw = S w: oscillatory, evanescent
    where ``below``, flat where ``flat`` (S = 1); ``some_*``: does the mask hold anywhere."""
    advanced = theta + sw
    if some_below:
        t = theta[below]
        k = np.floor(t / np.pi + 0.25) * np.pi + np.pi / 4
        r = t - k
        advanced[below] = k + np.arctan2(np.sin(r) * np.exp(-2 * sw[below]), np.cos(r))
    if some_flat:
        t = theta[flat]
        k = np.floor(t / np.pi + 0.5) * np.pi
        r = t - k
        advanced[flat] = k + np.arctan2(np.sin(r) + sw[flat] * np.cos(r), np.cos(r))
    return advanced


def _trig_angle(energies, legs, c, n) -> np.ndarray:
    """theta_L + theta_R at the middle of interval c (an int, or ints whose
    last axis runs along the energies): modified Pruefer angles,
    tan(theta) = S psi / psi', psi' taken along the path, with the scale
    S = sqrt|E - H_i| on interval i (1 where E is within BETA_MIN^2 of
    H_i, a choice of scale); theta = 0 at the wall and passes each
    multiple of pi upward at a zero of psi.  Each interval has a closed form
    that cannot overflow (_advance): an oscillatory one advances theta by
    beta w, an evanescent one shrinks tan(theta - pi/4) (mod pi) by
    exp(-2 kappa w) toward the growing solution, and a flat one adds w to
    tan(theta).  Both walls are swept across the first n ``legs`` (_legs),
    keeping the angle where each leg starts; c reads theta_L at leg c and
    theta_R at leg N - 1 - c of N, and crosses half that leg: the float of a
    shot to the middle.  What does not depend on theta is computed at once.
    """
    heights, widths, halves = legs
    ends = (c, len(heights) - 1 - c)
    q = energies - heights[:n]
    below = q < 0
    s = np.abs(q, out=q)
    flat = s <= BETA_MIN**2
    np.sqrt(s, out=s)
    some_flat = flat.any(axis=2).tolist()
    if any(map(any, some_flat)):
        s[flat] = 1.0
    if isinstance(c, int):  # past its read a row's angle is not needed: skip the evanescent forms
        below[c + 1 :, 0] = below[ends[1] + 1 :, 1] = False
    some_below = below.any(axis=2).tolist()
    sw = s[:-1] * widths[: n - 1]
    starts = [np.zeros(s.shape[1:])]
    for leg in range(n - 1):
        theta = _advance(
            starts[-1], sw[leg], below[leg], flat[leg], any(some_below[leg]), any(some_flat[leg])
        )
        # a change of scale keeps every multiple of pi / 2 in place
        k = np.floor(theta / np.pi) * np.pi
        r = theta - k
        starts.append(k + np.arctan2(s[leg + 1] * np.sin(r), s[leg] * np.cos(r)))
    if isinstance(c, int):
        return np.add(*(
            _advance(starts[j][row], s[j, row] * halves[j, row], below[j, row], flat[j, row],
                     some_below[j][row], some_flat[j][row])
            for row, j in enumerate(ends)
        ))
    # flat indices of the reads into the (legs, 2, energies) arrays
    pairs = np.array((2 * ends[0], 2 * ends[1] + 1))
    at = pairs * len(energies) + np.arange(len(energies))
    theta, below, flat = np.array(starts).take(at), below.take(at), flat.take(at)
    sw = s.take(at) * halves.take(pairs)
    del starts, s  # the reads take as much room again as the sweep
    theta = _advance(theta, sw, below, flat, below.any(), flat.any())
    return theta[0] + theta[1]


# legs, or matching points, times energies that one sweep takes at most
_SWEEP_SIZE = 2**20


def _angle_sum(spec):
    """The function half_turns(energies, c) that gives (theta_L + theta_R)
    / pi at a 1-D array of M energies, matched in the middle of interval c:
    the lowest by default, or an int for every energy, an int array of one
    matching point per energy, or a (K, M) or (K, 1) int array of K
    matching points at each energy, the result (K, M).  That is the angle
    sum that sturm_count floors and find_eigenvalues refines.  It is smooth
    at a level where its state is large at the matching point; a state
    that decays toward it through a barrier kappa w makes the sum step by
    pi over a range of order exp(-2 kappa w), which refinement can only
    bisect, so find_eigenvalues moves such a level to another interval.
    Blocks of _SWEEP_SIZE legs, or points, times energies are swept once
    from each wall (_trig_angle)."""
    legs = _legs(spec)
    last = spec.n_intervals - 1
    lowest = int(np.argmin(spec.heights))

    def half_turns(energies, c=lowest):
        if isinstance(c, int):
            n, k, lanes = max(c, last - c) + 1, 1, False
        else:
            c = np.asarray(c)
            n, k = max(c.max(), last - c.min()) + 1, (len(c) if c.ndim > 1 else 1)
            lanes = c.shape[-1] > 1
        step = max(1, _SWEEP_SIZE // max(n, k))
        parts = [
            _trig_angle(energies[lo : lo + step], legs, c[..., lo : lo + step] if lanes else c, n)
            for lo in range(0, max(len(energies), 1), step)
        ]
        return (parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)) / np.pi

    return half_turns


def sturm_count(spec: PotentialSpec, energies: float | np.ndarray) -> int | np.ndarray:
    """Number of eigenvalues below each energy, by the oscillation theorem.

    Pruefer angles are shot from both walls to the middle of the lowest
    interval (theta_R in the mirrored problem).  Their sum passes
    (n + 1) pi exactly once, upward, at level n, so N(E) =
    floor((theta_L + theta_R) / pi); between multiples of pi it need not be
    monotone.  This is SLEDGE's count for piecewise-constant problems
    (Pruess & Fulton, ACM TOMS 19 (1993) 360); find_eigenvalues refines the
    crossings of the same angle sum, each at a matching point of its own.
    Any matching point gives the same count in exact arithmetic, and every
    one crosses (n + 1) pi at level n itself (see _angle_sum).  A pair split
    below double precision steps by one twice, rounding apart.
    ``energies`` is a scalar or a 1-D array; the result is an int or an int
    array.

    A spec with zero_order_polys is counted on its finest staircase of
    the first round, 8 _base_cells per interval.  That count is exact for
    the staircase, whose levels lie within _height_error of the spec's and
    closer in practice (the h^2 error the extrapolation removes); within
    that distance of a level the count may be off by one.
    """
    e = np.asarray(energies, dtype=float)
    if e.ndim > 1:
        raise ValueError("energies must be a scalar or a one-dimensional array")
    if spec.zero_order_polys is not None:
        spec = _staircase(spec, 8 * _base_cells(spec))
    counts = np.floor(_angle_sum(spec)(np.atleast_1d(e))).astype(int)
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
    points at the ends of steep cells, off one sweep per end, and the brentq
    steps (summed over the staircases of a spec with zero_order_polys).
    ``staircase`` is,
    for such a spec, the finest staircase its levels were extrapolated
    from, and None otherwise; ``staircase_energies`` are that staircase's
    levels with the Sturm indices of those in the window, ascending in
    index (empty otherwise).
    """

    energies: tuple[float, ...]
    complete: bool
    skipped: tuple[float, ...] = ()
    spurious: tuple[float, ...] = ()
    near_degenerate: tuple[float, ...] = ()
    angle_evaluations: int = 0
    staircase: PotentialSpec | None = None
    staircase_energies: tuple[float, ...] = ()


# smallest relative tolerance brentq accepts: four ulps
_RTOL_MIN = 4 * math.ulp(1.0)
_BRENT_MAXITER = 100


def brentq(f, a, b, xtol: float, rtol: float = _RTOL_MIN, f_ends=None):
    """Root of f in [a, b] by the Brent-Dekker method (Brent 1973, ch. 4).

    The iteration of scipy.optimize.brentq, step for step: inverse
    quadratic (or secant) interpolation when it falls well inside the
    bracket, bisection otherwise, and at least delta = (xtol + rtol |x|) / 2
    per step; the bracket half-width below delta ends it.  Same inputs give
    the float scipy gives.  Raises ValueError when f has one sign at a and
    b or returns NaN, RootNotConvergedError after 100 steps.

    ``a`` and ``b`` are scalars, or 1-D arrays of brackets refined in
    lock-step: f(x, lanes) is then called once per step with the trial
    points x of the brackets still running and their indices ``lanes``, an
    int array, so that f may read per-bracket data through them; a finished
    bracket is not evaluated again.  Each bracket takes the same steps, and
    returns the same float, as it would alone.

    ``f_ends = (f(a), f(b))``, values already known (shaped like ``a`` and
    ``b``), take the place of the first two calls; the steps and the root
    are those that evaluating them would give.  Otherwise f is evaluated at
    the ends first, then once a step.
    """
    if xtol <= 0 or rtol < _RTOL_MIN:
        raise ValueError(f"tolerances too small: xtol={xtol!r}, rtol={rtol!r}")
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    lo = np.atleast_1d(np.asarray(a, dtype=float))
    hi = np.atleast_1d(np.asarray(b, dtype=float))
    if lo.ndim > 1 or lo.shape != hi.shape:
        raise ValueError("brackets must be two scalars or two 1-D arrays of one length")
    ends = () if f_ends is None else f_ends
    known = [np.broadcast_to(np.asarray(v, dtype=float), lo.shape).tolist() for v in ends]
    lanes = [_brent(x, y, xtol, rtol) for x, y in zip(lo.tolist(), hi.tolist())]
    # each lane's trial point while it runs, its root once it has finished
    xs = [next(lane) for lane in lanes]
    running = list(range(len(lanes)))
    while running:
        if known:
            # every lane asks for f(a), then f(b), before its first step
            fxs = known.pop(0)
        elif scalar:
            fxs = [f(xs[0])]
        else:
            at = np.array(running)
            fxs = np.asarray(f(np.array(xs)[at], at), dtype=float).tolist()
        still = []
        for i, fx in zip(running, fxs):
            fx = float(fx)
            if math.isnan(fx):
                raise ValueError(f"f({xs[i]!r}) is NaN; the root cannot be refined")
            try:
                xs[i] = lanes[i].send(fx)
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


def _refined_crossings(spec, grid, xtol, points=None) -> tuple[np.ndarray, int, int]:
    """Every level n in (grid[0], grid[-1]], ascending: where the angle sum
    crosses n + 1 (in units of pi), the number of angle evaluations, and
    the index of the first level.

    The first cell whose upper end counts past n brackets level n, because
    the count can only rise.  Any matching point crosses n + 1 at the level
    itself, so a level whose sum rises steeply across its cell, a state
    small at the lowest interval, takes the interval where the sum rises
    least, if that is under a quarter of the default's rise and brackets
    n + 1 too; one call reads each other interval below the top of some
    such cell off one sweep per end of every such cell; ``points`` narrows
    the intervals tried to those listed.  One brentq call refines every
    level in lock-step, each at its own matching point, on the sum minus
    n + 1, starting from the values at the ends of its cell."""
    half_turns = _angle_sum(spec)
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
    tried = range(spec.n_intervals) if points is None else points
    others = [c for c in tried if c != lowest and spec.heights[c] < top]
    if others:
        ends = np.concatenate([e_lo[steep], e_hi[steep]])
        values = half_turns(ends, np.array(others)[:, None])
        evaluations += 1
        least, crossed = 0.25 * (f_hi - f_lo)[steep], target[steep]
        for c, (a, b) in zip(others, values.reshape(len(others), 2, len(steep))):
            better = (b - a < least) & (a < crossed) & (b > crossed)
            least = np.where(better, b - a, least)
            moved = steep[better]
            match[moved], f_lo[moved], f_hi[moved] = c, a[better], b[better]

    # one int matching point is read by slicing, an array by gathering
    gather = (match != lowest).any()

    def f(energies, lanes):
        nonlocal evaluations
        evaluations += 1
        return half_turns(energies, match[lanes] if gather else lowest) - target[lanes]

    ends = (f_lo - target, f_hi - target)
    roots = brentq(f, e_lo, e_hi, xtol=xtol, rtol=_REFINE_RTOL, f_ends=ends)
    return np.sort(roots), evaluations, int(counts[0])


def _overlap_resonances(spec, e_lo, e_hi, scan, xtol) -> list[float]:
    """The Dirichlet levels in (e_lo, e_hi] of each interval (L_j, L_{j+1}),
    j = 1..N-1, that domains j and j + 1 share: H_j + (m pi / w_j)^2 for
    closed-form specs; for a spec with zero_order_polys, the levels in
    (e_lo, e_hi) of the one-interval problem on (L_j, L_{j+1}), found by
    the same staircases as its levels.  A staircase's own cells add no
    resonance."""
    bp, out = spec.breakpoints, []
    for j in range(1, spec.n_interior):
        if spec.zero_order_polys is not None:
            interval = PotentialSpec(bp[j : j + 2], (spec.heights[j],), (spec.zero_order_polys[j],))
            out += find_eigenvalues(interval, e_lo, e_hi, scan=scan, xtol=xtol).energies
            continue
        h, width = spec.heights[j], bp[j + 1] - bp[j]
        m = np.arange(1, width * math.sqrt(max(e_hi - h, 0.0)) / math.pi + 1)
        e = h + (m * math.pi / width) ** 2
        out += e[(e > e_lo) & (e <= e_hi)].tolist()
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
    exist in the window, complete=False.  A window that is not finite, or
    not e_lo < e_hi, raises ValueError.

    A spec with zero_order_polys scans its staircases this way instead
    and returns their extrapolated levels (_polynomial_levels); its
    spurious entries are those of its own overlap intervals.
    """
    if not (math.isfinite(e_lo) and math.isfinite(e_hi)):
        raise ValueError("energy window must be finite")
    if not e_lo < e_hi:
        raise ValueError("energy window must satisfy e_lo < e_hi")
    if count is not None and count < 1:
        raise ValueError("count must be at least 1")
    floor = reference_floor(spec)
    k_lo = np.sqrt(max(e_lo - floor, 0.0))
    k_hi = np.sqrt(max(e_hi - floor, 0.0))
    if not k_hi > k_lo:
        return EigenvalueScan((), count is None)

    staircase, staircase_energies = None, ()
    if spec.zero_order_polys is not None:
        roots, evaluations, staircase, staircase_energies = _polynomial_levels(
            spec, e_lo, e_hi, scan, xtol
        )
        resonances = _overlap_resonances(spec, e_lo, e_hi, scan, xtol)
    else:
        ks = np.linspace(k_lo, k_hi, scan.points)
        grid = floor + ks * ks
        roots, evaluations, _ = _refined_crossings(spec, grid, xtol)
        resonances = _overlap_resonances(spec, grid[0], grid[-1], scan, xtol)
    levels: list[float] = []
    merged = set()
    for root in roots.tolist():
        # two crossings at one energy end up to two last brackets apart
        if levels and root - levels[-1] <= 2 * (xtol + _REFINE_RTOL * abs(root)):
            merged.add(levels[-1])
        else:
            levels.append(root)
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
        staircase=staircase,
        staircase_energies=staircase_energies,
    )


@dataclass(frozen=True, eq=False)
class MatchedState:
    """Matched zero-order state: energy, per-domain coefficients, residual.

    coeffs[j - 1] = (c(j), d(j)) for domains j = 1..N, normalized to a unit
    Euclidean null vector with the first nonzero component positive.
    c(0) = c(N+1) = 0 are implicit.  residual is the largest row residual
    of the row-normalized matching system.  The domain bases and the
    overlap gap are built from these on first read; a spec with
    zero_order_polys has no closed-form pieces, and reading them raises
    SchemaError (build_domain_basis).  Two states are equal, and hash
    alike, only if they are the same object.
    """

    spec: PotentialSpec
    energy: float
    coeffs: np.ndarray
    residual: float

    @cached_property
    def bases(self) -> tuple[DomainBasis, ...]:
        """Each domain's DomainBasis at the state's energy, built on first
        read: only the perturbation series, the Wronskian check and the
        state's pieces read them."""
        return tuple(_domain_bases(self.spec, self.energy))

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


def match_coefficients(spec: PotentialSpec, energy: float) -> MatchedState:
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
    an = matching_matrix(spec, energy)
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
    return MatchedState(spec, float(energy), coeffs, residual)
