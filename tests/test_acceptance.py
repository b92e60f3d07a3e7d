"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

from stepwell import (
    BandedOperator,
    PerturbationSpec,
    PotentialSpec,
    TrigPoly,
    apply_hamiltonian,
    exact_perturbed_energy,
    fd_eigenvalues,
    find_eigenvalues,
    rs_first_order,
    run_series,
)

import golden_formulas as golden

PI = math.pi


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}", flush=True)


def test_criterion_1_exact_constant_shift():
    """Box + constant: first order exact, higher orders vanish."""
    t0 = time.perf_counter()
    box = PotentialSpec((0.0, PI), (0.0,))
    worst_first = 0.0
    worst_higher = 0.0
    for om in (0.3, -1.2, 7.0):
        pert = PerturbationSpec(((om,),))
        series = run_series(box, pert, (0.2, 2.0), 3, max_states=1).states[0]
        e = series.energies
        worst_first = max(worst_first, abs(e[1] - om))
        worst_higher = max(worst_higher, abs(e[2]), abs(e[3]))
    elapsed = time.perf_counter() - t0
    ok = worst_first < 1e-10 and worst_higher < 1e-8 and elapsed < 1.0
    report(
        1,
        ok,
        f"|E1 - Omega| <= {worst_first:.2e} (tol 1e-10), higher orders "
        f"<= {worst_higher:.2e} (tol 1e-8), {elapsed:.2f}s (< 1 s)",
    )
    assert worst_first < 1e-10
    assert worst_higher < 1e-8
    assert elapsed < 1.0


def _identity_pairs(b):
    """Known operator images of the degree <= 3 monomial combinations."""
    return [
        (TrigPoly(0.0, b, [0, 1], [0]), TrigPoly(0.0, b, [0], [2 * b])),
        (
            TrigPoly(0.0, b, [0, 0, b], [0, -1]),
            TrigPoly(0.0, b, [0], [0, 4 * b * b]),
        ),
        (
            TrigPoly(0.0, b, [0, -3, 0, 2 * b * b], [0, 0, -3 * b]),
            TrigPoly(0.0, b, [0], [0, 0, 12 * b**3]),
        ),
        (
            TrigPoly(0.0, b, [0, 0, -3 * b, 0, b**3], [0, 3, 0, -2 * b * b]),
            TrigPoly(0.0, b, [0], [0, 0, 0, 8 * b**4]),
        ),
        (TrigPoly(0.0, b, [0], [0, 1]), TrigPoly(0.0, b, [-2 * b], [0])),
        (
            TrigPoly(0.0, b, [0, 1], [0, 0, b]),
            TrigPoly(0.0, b, [0, -4 * b * b], [0]),
        ),
        (
            TrigPoly(0.0, b, [0, 0, 3 * b], [0, -3, 0, 2 * b * b]),
            TrigPoly(0.0, b, [0, 0, -12 * b**3], [0]),
        ),
        (
            TrigPoly(0.0, b, [0, 3, 0, -2 * b * b], [0, 0, 3 * b, 0, -(b**3)]),
            TrigPoly(0.0, b, [0, 0, 0, 8 * b**4], [0]),
        ),
    ]


def test_criterion_2_operator_identity_suite():
    """Closed-form operator images through degree 3, random frequencies."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    betas = [float(v) for v in rng.uniform(0.5, 3.0, 10)]
    betas += [1j * float(v) for v in rng.uniform(0.5, 3.0, 10)]
    xs = np.linspace(-1.2, 1.7, 100)
    worst = 0.0
    for b in betas:
        for f, expected in _identity_pairs(b):
            hf = apply_hamiltonian(f)
            ev = expected.value(xs)
            scale = max(1.0, float(np.max(np.abs(ev))))
            worst = max(worst, float(np.max(np.abs(hf.value(xs) - ev))) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(
        2,
        ok,
        f"20 frequencies x 8 identities, worst pointwise rel err {worst:.2e} "
        f"(tol 1e-12), {elapsed:.2f}s (< 1 s)",
    )
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_3_left_inverse_identity():
    """Assembled closed-form left inverse times the operator matrix.

    Checked in the graded normalization (weights k!/(2 beta)^k), which keeps
    every entry of both factors O(1); the raw product at small |beta| loses
    digits to factorially large intermediates without changing the identity.
    """
    worst = 0.0
    rng = np.random.default_rng(43)
    betas = [float(v) for v in rng.uniform(0.5, 3.0, 5)]
    betas += [1j * float(v) for v in rng.uniform(0.5, 3.0, 5)]
    for b in betas:
        op = BandedOperator(b, 20)
        q, ql = op.matrix(), op.left_inverse()
        d = np.repeat(
            [float(math.factorial(k)) / (2 * b) ** k for k in range(21)], 2
        )
        prod = ((d[:, None] * ql) / d[None, :]) @ ((d[:, None] * q) / d[None, :])
        err = np.abs(prod - np.eye(42))
        worst = max(worst, float(np.max(err[:, 2:])))
    ok = worst < 1e-12
    report(3, ok, f"truncation 20, max entry error {worst:.2e} (tol 1e-12)")
    assert worst < 1e-12


def _decoupled_level(w, h):
    """Lowest level of a well of width w between a hard wall and a step h."""
    lo, hi = (PI / (2 * w)) ** 2, min((PI / w) ** 2, h)
    return brentq(golden.half_open_step, lo, hi, args=(w, h), xtol=1e-14)


def test_criterion_4_double_well_doublets():
    """Asymmetric double well: tunnelling is suppressed as the barrier rises.

    The wells (widths 1 and pi - 2) are unequal, so the lowest two levels
    tend to two different decoupled-well levels, each the lowest root of a
    well between its hard wall and a semi-infinite step of the barrier's
    height; their gap is delta.  The raw splitting Delta = E2 - E1 therefore
    grows toward delta (Landau & Lifshitz's "splitting falls as the barrier
    rises" holds only for symmetric wells).  In the two-level picture
    Delta^2 = delta^2 + 4 t^2, and the tunnelling amplitude
    t = sqrt(Delta^2 - delta^2) / 2 must be positive at every height and
    fall strictly as the barrier rises.  The decoupled-well formula is
    first checked against the finite-difference oracle on a wide barrier.
    """
    for h1 in (10.0, 25.0):
        fd = fd_eigenvalues(PotentialSpec((0.0, 1.0, 9.0), (0.0, h1)), count=1)
        level = _decoupled_level(1.0, h1)
        assert abs(level - fd.values[0]) <= fd.estimate[0], (
            f"half-open-step level {level} disagrees with the oracle's "
            f"{fd.values[0]} (estimate {fd.estimate[0]:.1e}) at h1={h1}"
        )

    t0 = time.perf_counter()
    rows = []
    doublets_ok = True
    for h1 in (10.0, 15.0, 20.0, 25.0):
        spec = PotentialSpec((0.0, 1.0, 2.0, PI), (0.0, h1, 0.0))
        scan = find_eigenvalues(spec, 0.05, 30.0, count=3)
        e1, e2, e3 = scan.energies
        doublets_ok = doublets_ok and (e2 - e1 < e3 - e2)
        split = e2 - e1
        gap = abs(_decoupled_level(1.0, h1) - _decoupled_level(PI - 2.0, h1))
        amp = 0.5 * math.sqrt(max(split * split - gap * gap, 0.0))
        rows.append((h1, split, gap, amp))
    above_gap = all(split > gap for _, split, gap, _ in rows)
    amps = [amp for *_, amp in rows]
    falling = all(b < a for a, b in zip(amps, amps[1:]))
    elapsed = time.perf_counter() - t0
    ok = doublets_ok and above_gap and falling and elapsed < 5.0
    table = ", ".join(
        f"h1={h1:g}: Delta={split:.4f} delta={gap:.4f} t={amp:.4f}"
        for h1, split, gap, amp in rows
    )
    report(
        4,
        ok,
        f"doublet found for all barriers: {doublets_ok}; {table}; "
        f"Delta > delta: {above_gap}; t strictly decreasing: {falling}; "
        f"{elapsed:.2f}s (< 5 s)",
    )
    assert doublets_ok
    assert elapsed < 5.0
    assert above_gap, (
        "doublet splitting Delta does not exceed the decoupled-well gap delta "
        f"at every barrier height, so no tunnelling part remains: {rows}"
    )
    assert falling, (
        "tunnelling amplitude t = sqrt(Delta^2 - delta^2) / 2 does not fall "
        f"strictly as the barrier rises: {rows}"
    )


def test_criterion_5_golden_formula_crosschecks():
    """Closed-form secular expressions vanish at every generic-matching root."""
    worst = 0.0
    checked = 0

    spec1 = PotentialSpec((0.0, 1.0, 2.0), (0.0, 5.0))
    for e in find_eigenvalues(spec1, 0.05, 40.0).energies:
        worst = max(worst, golden.n1_step(e, 1.0, 2.0, 5.0))
        checked += 1

    for h1 in (10.0, 25.0):
        spec2 = PotentialSpec((0.0, 1.0, 2.0, PI), (0.0, h1, 0.0))
        for e in find_eigenvalues(spec2, 0.05, 30.0).energies:
            worst = max(worst, golden.n2_double_well(e, 1.0, 2.0, PI, h1, 0.0))
            checked += 1

    p4 = (1.0, 1.7, 2.9, 3.6, 5.1)
    h4 = 12.0
    spec4 = PotentialSpec((0.0, *p4), (0.0, h4, 0.0, h4, 0.0))
    for e in find_eigenvalues(spec4, 0.05, h4 - 0.4).energies:
        worst = max(worst, golden.n4_double_tunneling(e, *p4, h4))
        checked += 1

    p6 = (1.0, 1.6, 2.6, 3.2, 4.2, 4.8, 6.0)
    h6 = 15.0
    spec6 = PotentialSpec((0.0, *p6), (0.0, h6, 0.0, h6, 0.0, h6, 0.0))
    for e in find_eigenvalues(spec6, 0.05, h6 - 0.4).energies:
        worst = max(worst, golden.n6_triple_barrier(e, *p6, h6))
        checked += 1

    ok = worst < 1e-8 and checked >= 12
    report(
        5,
        ok,
        f"{checked} roots across the four closed-form geometries, worst "
        f"scaled residual {worst:.2e} (tol 1e-8)",
    )
    assert checked >= 12
    assert worst < 1e-8


def test_criterion_6_oracle_equivalence_zero_order():
    """Randomized specs: every eigenvalue within the oracle's own estimate."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst_ratio = 0.0
    worst_estimate = 0.0
    total = 0
    for _ in range(5):
        n = int(rng.integers(1, 5))
        widths = rng.uniform(0.4, 1.6, n + 1)
        bps = np.concatenate([[0.0], np.cumsum(widths)])
        hs = rng.uniform(0.0, 18.0, n + 1)
        hs[int(rng.integers(0, n + 1))] = 0.0
        spec = PotentialSpec(tuple(bps), tuple(hs))
        e_cap = float(min(35.0, max(hs) + 20.0))
        scan = find_eigenvalues(spec, min(hs) + 1e-3, e_cap)
        fd = fd_eigenvalues(spec, m=2500, count=max(len(scan.energies), 1))
        for i, e in enumerate(scan.energies):
            worst_ratio = max(
                worst_ratio, abs(e - fd.values[i]) / max(fd.estimate[i], 1e-300)
            )
            worst_estimate = max(worst_estimate, fd.estimate[i])
            total += 1
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 1.0 and worst_estimate <= 1e-4 and elapsed < 30.0
    report(
        6,
        ok,
        f"{total} eigenvalues over 5 random specs, worst |diff|/estimate "
        f"{worst_ratio:.3f} (<= 1), largest estimate {worst_estimate:.2e} "
        f"(<= 1e-4), {elapsed:.1f}s (< 30 s)",
    )
    assert worst_ratio <= 1.0
    assert worst_estimate <= 1e-4
    assert elapsed < 30.0


def test_criterion_7_first_order_integral_equivalence():
    """Matching-route first order versus the quadrature integral."""
    rng = np.random.default_rng(777)
    fixtures = [
        PotentialSpec((0.0, PI), (0.0,)),
        PotentialSpec((0.0, 1.0, 2.0), (0.0, 5.0)),
        PotentialSpec((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0)),
    ]
    worst = 0.0
    done = 0
    while done < 10:
        spec = fixtures[done % 3]
        deg = int(rng.integers(0, 4))
        coeffs = tuple(float(c) for c in rng.uniform(-2.0, 2.0, deg + 1))
        if all(c == 0 for c in coeffs):
            continue
        pert = PerturbationSpec(tuple(coeffs for _ in range(spec.n_intervals)))
        result = run_series(spec, pert, (0.05, 10.0), 1, max_states=1)
        series = result.states[0]
        e1_int = rs_first_order(series.matched, result.pert)
        worst = max(worst, abs(series.energies[1] - e1_int) / max(abs(e1_int), 1e-30))
        done += 1
    ok = worst < 1e-8
    report(
        7,
        ok,
        f"10 random polynomial perturbations, worst relative gap {worst:.2e} "
        "(tol 1e-8)",
    )
    assert worst < 1e-8


def test_criterion_8_series_consistency_slope():
    """Second-order truncation error scales as lambda^3 against the exact solve.

    E(lambda) comes from the power-series local-basis route on the exactly
    tilted potential, which resolves the remainder to ~1e-14; the
    finite-difference oracle's eps/h^2 floor (~1e-8) cannot see the
    ~3e-13 remainder at the smallest coupling.
    """
    spec = PotentialSpec((0.0, 1.0, 2.0), (0.0, 5.0))
    pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
    series = run_series(spec, pert, (0.05, 10.0), 2, max_states=1).states[0]
    lams = (1e-2, 3e-3, 1e-3)
    rems = []
    for lam in lams:
        e_exact = exact_perturbed_energy(spec, pert, lam, series.energy_at(lam))
        rems.append(abs(e_exact - series.energy_at(lam)))
    slope = float(np.polyfit(np.log(lams), np.log(rems), 1)[0])
    ok = slope >= 2.7
    report(
        8,
        ok,
        f"remainders {[f'{r:.2e}' for r in rems]} over lambda {list(lams)}, "
        f"log-log slope {slope:.3f} (>= 2.7)",
    )
    assert slope >= 2.7


def test_criterion_9_invariant_suite():
    """Wronskian, smoothness, equation residuals, gauge and embedding laws."""
    t0 = time.perf_counter()
    fixtures = [
        PotentialSpec((0.0, PI), (0.0,)),
        PotentialSpec((0.0, 1.0, 2.0), (0.0, 5.0)),
        PotentialSpec((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0)),
        PotentialSpec((-1.0, 0.2, 1.4, 2.9, 4.0), (2.0, 9.0, 0.0, 6.0)),
    ]
    pert_for = lambda spec: PerturbationSpec(
        tuple((0.0, 1.0) for _ in range(spec.n_intervals))
    )

    worst_wronskian = 0.0
    worst_smooth = 0.0
    worst_residual = 0.0
    worst_gauge = 0.0
    worst_fictitious = 0.0

    for spec in fixtures:
        floor = min(spec.heights)
        window = (floor + 1e-3, floor + 20.0)
        scan = find_eigenvalues(spec, *window)

        # gauge shift moves the spectrum rigidly
        shift = 4.25
        shifted = find_eigenvalues(
            spec.gauge_shifted(shift), window[0] + shift, window[1] + shift
        )
        for a, b in zip(scan.energies, shifted.energies):
            worst_gauge = max(worst_gauge, abs(b - shift - a))

        # a harmless extra breakpoint changes nothing
        aug = spec.with_fictitious_breakpoint(
            spec.x_min + 0.43 * (spec.x_max - spec.x_min)
        )
        again = find_eigenvalues(aug, *window)
        for a, b in zip(scan.energies, again.energies):
            worst_fictitious = max(worst_fictitious, abs(b - a))

        # per-state invariants through second order
        result = run_series(spec, pert_for(spec), window, 2, max_states=2)
        for series in result.states:
            state = series.matched
            for basis in state.bases:
                for side, lo, hi in (
                    ("left", basis.x_lo, basis.anchor),
                    ("right", basis.anchor, basis.x_hi),
                ):
                    c, s = basis.piece("c", side), basis.piece("s", side)
                    for x in np.linspace(lo + 1e-3, hi - 1e-3, 20):
                        w = c.eval(x) * s.eval_deriv(x) - c.eval_deriv(x) * s.eval(x)
                        worst_wronskian = max(worst_wronskian, abs(w - 1.0))
            wspec = state.spec
            pieces_by_order = [state.global_pieces()] + [
                o.global_pieces for o in series.orders
            ]
            for pieces in pieces_by_order:
                for j in range(1, wspec.n_interior + 1):
                    xb = wspec.breakpoints[j]
                    worst_smooth = max(
                        worst_smooth,
                        abs(pieces[j - 1].eval(xb) - pieces[j].eval(xb)),
                        abs(
                            pieces[j - 1].eval_deriv(xb) - pieces[j].eval_deriv(xb)
                        ),
                    )
            worst_residual = max(
                worst_residual, series.diagnostics()["max_equation_residual"]
            )

    elapsed = time.perf_counter() - t0
    ok = (
        worst_wronskian < 1e-10
        and worst_smooth < 1e-9
        and worst_residual < 1e-9
        and worst_gauge < 1e-10
        and worst_fictitious < 1e-10
        and elapsed < 60.0
    )
    report(
        9,
        ok,
        f"wronskian {worst_wronskian:.1e} (<1e-10), smoothness {worst_smooth:.1e} "
        f"(<1e-9), equation residual {worst_residual:.1e} (<1e-9), gauge "
        f"{worst_gauge:.1e} (<1e-10), fictitious-breakpoint "
        f"{worst_fictitious:.1e} (<1e-10), {elapsed:.1f}s (< 60 s)",
    )
    assert worst_wronskian < 1e-10
    assert worst_smooth < 1e-9
    assert worst_residual < 1e-9
    assert worst_gauge < 1e-10
    assert worst_fictitious < 1e-10
    assert elapsed < 60.0
