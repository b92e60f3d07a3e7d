"""Seeded problem generators, problem runners and the correctness gate.

Every problem is rebuilt from (workload, seed, index) alone, so a run can
replay the exact problems of an earlier pass (the traced run does) and the
same seed always gives the same inputs.  Runners call the solver through
module attributes (``zero_order.find_eigenvalues`` and so on), which is
where the tracer installs its wrappers; the gate uses references bound at
import time, so it is never traced and never timed.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

import numpy as np

import stepwell.perturbation as perturbation
import stepwell.zero_order as zero_order
from stepwell import (
    DegeneracyParadoxError,
    NormalizationObstructionError,
    PerturbationSpec,
    PipelineError,
    PotentialSpec,
    TruncationError,
)
from stepwell.config import DEFAULT_SCAN
from stepwell.oracle import fd_eigenvalues, rs_first_order
from stepwell.zero_order import reference_floor, secular_determinant

# FD oracle resolution; the validate command uses the same grid, where the
# Richardson residual stays well under its own estimate.
FD_M = 3000
FD_RTOL = 1e-7
SERIES_COUPLING = 1e-2
E1_RTOL = 1e-8
# |E_exact - partial sum| allowed at SERIES_COUPLING, relative to max(1, |E|);
# the truncated remainder there is far smaller, so this is the precision of
# the power-series reference itself.
PARTIAL_SUM_RTOL = 1e-9
# Orders above this one drift (rounding grows about sixfold per order); a
# partial sum that is right through this order and wrong beyond it is that
# known defect.
TRUSTED_ORDER = 10
MATCH_WARNINGS = (DegeneracyParadoxError, NormalizationObstructionError)


@dataclass(frozen=True)
class Problem:
    """One unit of work: a potential, its window and what to compute on it."""

    kind: str
    spec: PotentialSpec
    e_lo: float
    e_hi: float
    count: int | None = None
    pert: PerturbationSpec | None = None
    orders: int = 0


@dataclass
class Outcome:
    """What a runner returns: the program's results or the exception it raised."""

    value: object = None
    error: BaseException | None = None
    warnings: int = 0


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _spec(widths, heights) -> PotentialSpec:
    bp = [0.0]
    for w in widths:
        bp.append(bp[-1] + w)
    return PotentialSpec(tuple(bp), tuple(heights))


def _window(spec: PotentialSpec, span: float) -> tuple[float, float]:
    """(floor + 1e-4, floor + span), which is the CLI's default for span 50."""
    floor = reference_floor(spec)
    return floor + 1e-4, floor + span


# -- spectrum_wells -----------------------------------------------------

# Fixed cycle, so that every seed sees the same mix.  Cost grows with N; with
# N = 3 four times (equal_overlaps included) and N = 4 twice, the median of a
# run falls inside the N = 3 cluster and its tail (about p93) inside the
# N = 4 cluster, rather than in the gaps between clusters.
WELL_KINDS = ("n2", "near_symmetric", "n3", "equal_overlaps", "n4", "n1", "n3", "n4")


# Each kind comes STRATA times a round; its k-th occurrence draws its mean
# width from the k-th third of the range, so every round holds short, middle
# and long wells of every kind and its cost barely depends on the seed.
STRATA = 3


def well_problem(seed: int, index: int) -> Problem:
    """Wells with N = 1-4 interior steps, heights 0-50, widths 0.3-2.

    Widths are drawn from 0.3-2 and scaled to the stratum's mean width.
    near_symmetric: a double well whose two sides differ by under 0.1 %,
    so the doublet falls inside one scan cell (dip refinement).
    equal_overlaps: N = 3 with both intervals between interior breakpoints
    of equal width, so their Dirichlet resonances coincide (spurious zeros).
    """
    rng = _rng("spectrum_wells", seed, index)
    kind = WELL_KINDS[index % len(WELL_KINDS)]
    stratum = (index // len(WELL_KINDS)) % STRATA
    lo, hi = (0.6, 2.0) if kind == "near_symmetric" else (0.3, 2.0)
    mean_width = lo + (hi - lo) * (stratum + rng.random()) / STRATA
    if kind == "near_symmetric":
        floor = rng.uniform(0.0, 5.0)
        widths = (mean_width, rng.uniform(0.3, 1.2), mean_width * (1.0 + rng.uniform(-1e-3, 1e-3)))
        heights = (floor, rng.uniform(25.0, 50.0), floor + rng.uniform(0.0, 1e-3))
    else:
        if kind == "equal_overlaps":
            w = rng.uniform(0.3, 2.0)
            raw = (rng.uniform(0.3, 2.0), w, w, rng.uniform(0.3, 2.0))
        else:
            raw = tuple(rng.uniform(0.3, 2.0) for _ in range(int(kind[1]) + 1))
        widths = tuple(x * mean_width * len(raw) / sum(raw) for x in raw)
        heights = tuple(rng.uniform(0.0, 50.0) for _ in raw)
    spec = _spec(widths, heights)
    floor = reference_floor(spec)
    return Problem(kind, spec, floor, floor + 40.0)


# -- spectrum_staircase ---------------------------------------------------

# One problem of each size a round.  The full 600-point scan runs whatever
# the count, so a problem's cost is set by N alone; index -1, the untimed
# warm-up, is the N = 16 one.
STAIRCASE_SIZES = (32, 64, 16)


def staircase_problem(seed: int, index: int) -> Problem:
    """Rising staircases, N = 16-64, the CLI's default window, count = 4.

    Steps are 0.05-0.25 wide, so the box stays a few units long and the
    600-point scan, not the refinement of a hundred roots, sets the cost.
    """
    rng = _rng("spectrum_staircase", seed, index)
    n = STAIRCASE_SIZES[index % len(STAIRCASE_SIZES)]
    widths = tuple(rng.uniform(0.05, 0.25) for _ in range(n + 1))
    heights = [0.0]
    for _ in range(n):
        heights.append(heights[-1] + rng.uniform(0.0, 100.0 / n))
    spec = _spec(widths, heights)
    return Problem(f"n{n}", spec, *_window(spec, 50.0), count=4)


# -- series_orders --------------------------------------------------------

SERIES_KINDS = ("n1", "n0", "n2", "n3")


def series_problem(seed: int, index: int) -> Problem:
    """Wells with N = 0-3 (N = 0 is the plain box), a linear or quadratic
    perturbation c x^p with c of either sign, order K = 8-16, two states."""
    rng = _rng("series_orders", seed, index)
    kind = SERIES_KINDS[index % len(SERIES_KINDS)]
    n = int(kind[1])
    if n == 0:
        spec = PotentialSpec((0.0, rng.uniform(1.5, 4.0)), (rng.uniform(0.0, 50.0),))
    else:
        widths = tuple(rng.uniform(0.3, 2.0) for _ in range(n + 1))
        spec = _spec(widths, [rng.uniform(0.0, 50.0) for _ in range(n + 1)])
    power = rng.choice((1, 2))
    coeff = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0)
    poly = (0.0,) * power + (coeff,)
    pert = PerturbationSpec(tuple(poly for _ in range(spec.n_intervals)))
    kind = f"{kind}_p{power}"
    return Problem(
        kind, spec, *_window(spec, 50.0), count=2, pert=pert, orders=rng.randint(8, 16)
    )


# Problems a run attempts: the round its timed loop repeats, and checks once.
ROUND_SIZE = {"spectrum_wells": len(WELL_KINDS) * STRATA, "spectrum_staircase": 3, "series_orders": 8}

GENERATORS = {
    "spectrum_wells": well_problem,
    "spectrum_staircase": staircase_problem,
    "series_orders": series_problem,
}


# -- runners ---------------------------------------------------------------


def run_spectrum(p: Problem) -> Outcome:
    """find_eigenvalues over the window, then match_coefficients on each root."""
    out = Outcome()
    try:
        scan = zero_order.find_eigenvalues(p.spec, p.e_lo, p.e_hi, count=p.count)
        coeffs = []
        for e in scan.energies:
            try:
                coeffs.append(zero_order.match_coefficients(p.spec, e).coeffs)
            except MATCH_WARNINGS:
                coeffs.append(None)
                out.warnings += 1
        out.value = (scan, coeffs)
    except Exception as exc:  # a failed problem is counted, the loop goes on
        out.error = exc
    return out


def run_series_problem(p: Problem) -> Outcome:
    """run_series to the problem's order; a state whose match raised one of
    the per-state warnings of the spectrum command stops the series there."""
    try:
        result = perturbation.run_series(
            p.spec, p.pert, (p.e_lo, p.e_hi), p.orders, max_states=p.count
        )
    except Exception as exc:  # a failed problem is counted, the loop goes on
        warned = isinstance(exc, PipelineError) and isinstance(exc.cause, MATCH_WARNINGS)
        return Outcome(error=exc, warnings=int(warned))
    return Outcome(value=result)


RUNNERS = {
    "spectrum_wells": run_spectrum,
    "spectrum_staircase": run_spectrum,
    "series_orders": run_series_problem,
}


# -- fingerprints ------------------------------------------------------------


def _g17(x) -> str:
    return "null" if x is None else format(float(x), ".17g")


def serialize(p: Problem, out: Outcome) -> str:
    """Results at 17 significant digits: eigenvalues, coefficients, series energies."""
    if out.error is not None:
        return f"error {type(out.error).__name__}: {out.error}"
    if p.orders == 0:
        scan, coeffs = out.value
        parts = ["E " + " ".join(_g17(e) for e in scan.energies)]
        for c in coeffs:
            parts.append("c " + ("null" if c is None else " ".join(_g17(v) for v in np.ravel(c))))
        return "\n".join(parts)
    return "\n".join(
        "S " + " ".join(_g17(e) for e in st.energies) for st in out.value.states
    )


def fingerprint(p: Problem, out: Outcome) -> str:
    return hashlib.sha256(serialize(p, out).encode()).hexdigest()


# -- correctness gate --------------------------------------------------------


@dataclass(frozen=True)
class Miss:
    """One failed check.  known=True marks a documented defect of the program."""

    what: str
    known: bool = False


def _fd_levels(spec: PotentialSpec, count: int, fd) -> tuple[np.ndarray, np.ndarray]:
    res = fd(spec, None, 0.0, m=FD_M, count=count)
    return np.asarray(res.values), np.asarray(res.estimate)


def _fd_tolerance(values: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """The Richardson estimate, floored at FD_RTOL relative: the estimate
    vanishes by accident where the O(h^2) error changes sign."""
    return np.maximum(estimate, FD_RTOL * np.maximum(1.0, np.abs(values)))


def _overlap_resonances(spec: PotentialSpec, e_hi: float) -> list[float]:
    """Dirichlet energies H_j + (n pi / w_j)^2 of every interval between two
    interior breakpoints: where the determinant has its spurious zeros."""
    out = []
    for j in range(1, spec.n_interior):
        width = spec.breakpoints[j + 1] - spec.breakpoints[j]
        n = 1
        while spec.heights[j] + (n * math.pi / width) ** 2 <= e_hi:
            out.append(spec.heights[j] + (n * math.pi / width) ** 2)
            n += 1
    return out


def check_spectrum(p: Problem, out: Outcome, fd=fd_eigenvalues) -> list[Miss]:
    """Level count and every level against the FD oracle within its estimate.

    An entry flagged near_degenerate stands for a pair and counts twice.  A
    level the scan missed is the known defect when another determinant zero
    (a second level, or an overlap interval's Dirichlet resonance) sits in
    the same scan cell: the two sign changes cancel, and the dip test does
    not always catch it.
    """
    if out.error is not None:
        return [Miss(f"raised {type(out.error).__name__}: {out.error}")]
    scan, _ = out.value
    levels = sorted(
        list(scan.energies)
        + [e for e in scan.near_degenerate if e in scan.energies]
    )
    want = (p.count if p.count is not None else len(levels)) + 2
    while True:
        values, estimate = _fd_levels(p.spec, want, fd)
        if p.count is not None or values[-1] > p.e_hi:
            break
        want *= 2
    tol = _fd_tolerance(values, estimate)
    ref = [(v, t) for v, t in zip(values, tol) if v < p.e_hi + t]
    floor = reference_floor(p.spec)
    k_lo = math.sqrt(max(p.e_lo - floor, 0.0))
    dk = (math.sqrt(p.e_hi - floor) - k_lo) / (DEFAULT_SCAN.points - 1)
    zeros = _overlap_resonances(p.spec, p.e_hi) + [v for v, _ in ref]
    misses = []
    i = j = 0
    while i < len(levels) or j < len(ref):
        e = levels[i] if i < len(levels) else math.inf
        v, t = ref[j] if j < len(ref) else (math.inf, 0.0)
        if abs(e - v) <= t:
            i, j = i + 1, j + 1
        elif e < v:
            misses.append(Miss(f"level {e!r} has no FD counterpart"))
            i += 1
        else:
            # an edge level may fall either side; with count, levels past the
            # count are only there to match what a lower miss pushed up
            if not abs(v - p.e_hi) <= t and (p.count is None or j < p.count):
                kv = math.sqrt(max(v - floor, 0.0))
                cancelled = any(
                    0 < abs(math.sqrt(max(z - floor, 0.0)) - kv) <= dk for z in zeros
                )
                misses.append(Miss(f"missed level {float(v)!r}", known=cancelled))
            j += 1
    return misses


def exact_energy(spec: PotentialSpec, pert: PerturbationSpec, lam: float, guess: float) -> float:
    """E(lam) of the exactly perturbed potential from the power-series backend,
    as the validate command computes it; the truncation grows until converged."""
    from scipy.optimize import brentq

    pspec = PotentialSpec(
        spec.breakpoints,
        spec.heights,
        tuple(tuple(lam * c for c in poly) for poly in pert.interval_polys),
    )
    for m in (60, 120, 240, 480):
        try:
            def det(e: float) -> float:
                return secular_determinant(pspec, e, series_m=m)

            span = 0.05 * max(1.0, abs(guess))
            lo, hi = guess - span, guess + span
            while det(lo) * det(hi) > 0:
                span *= 2
                lo, hi = guess - span, guess + span
                if span > 1e3:
                    raise ValueError("could not bracket the perturbed eigenvalue")
            return brentq(det, lo, hi, xtol=1e-14, rtol=8.9e-16)
        except TruncationError:
            continue
    raise ValueError("power-series reference did not converge")


def check_series(p: Problem, out: Outcome, fd=fd_eigenvalues) -> list[Miss]:
    """E0 against FD, E1 against <V1>, the partial sum at coupling 1e-2
    against the exactly perturbed energy.  Known defects: an order-k solve
    rejected as a degeneracy paradox, and a partial sum spoiled only by the
    orders above TRUSTED_ORDER."""
    if out.warnings:
        return []
    if out.error is not None:
        exc = out.error
        known = (
            isinstance(exc, PipelineError)
            and exc.stage.startswith("S5")
            and isinstance(exc.cause, DegeneracyParadoxError)
        )
        return [Miss(f"raised {type(exc).__name__}: {exc}", known=known)]
    result = out.value
    if not result.states:
        return [Miss("no states in the window")]
    values, estimate = _fd_levels(p.spec, len(result.states), fd)
    tol_fd = _fd_tolerance(values, estimate)
    pert = p.pert if result.embedded_spec is None else p.pert.split_interval(0)
    misses = []
    for i, st in enumerate(result.states):
        e = st.energies
        if not abs(e[0] - values[i]) <= tol_fd[i]:
            misses.append(Miss(f"E0 {e[0]!r} vs FD {values[i]!r}"))
        e1 = rs_first_order(st.matched, pert)
        if not abs(e[1] - e1) <= E1_RTOL * abs(e1):
            misses.append(Miss(f"E1 {e[1]!r} vs <V1> {e1!r}"))
        partial = st.energy_at(SERIES_COUPLING)
        exact = exact_energy(p.spec, p.pert, SERIES_COUPLING, partial)
        tol = PARTIAL_SUM_RTOL * max(1.0, abs(exact))
        if not abs(partial - exact) <= tol:
            low = sum(c * SERIES_COUPLING**k for k, c in enumerate(e[: TRUSTED_ORDER + 1]))
            misses.append(
                Miss(f"partial sum {partial!r} vs exact {exact!r}", known=abs(low - exact) <= tol)
            )
    return misses


CHECKS = {
    "spectrum_wells": check_spectrum,
    "spectrum_staircase": check_spectrum,
    "series_orders": check_series,
}


def series_diagnostics(outs: list[Outcome]) -> dict:
    """Per order k: the largest equation residual and |<psi0|psi_k>| seen."""
    resid: dict[int, float] = {}
    overlap: dict[int, float] = {}
    for out in outs:
        if out.error is not None:
            continue
        for st in out.value.states:
            for k, (r, o) in enumerate(zip(st.equation_residuals, st.overlaps), start=1):
                resid[k] = max(resid.get(k, 0.0), float(r))
                overlap[k] = max(overlap.get(k, 0.0), abs(float(o)))
    return {
        "max_equation_residual": {str(k): resid[k] for k in sorted(resid)},
        "max_abs_overlap_psi0_psik": {str(k): overlap[k] for k in sorted(overlap)},
    }
