import math
from dataclasses import replace

import numpy as np
import pytest

from stepwell import (
    DegeneracyParadoxError,
    PerturbationSpec,
    PipelineError,
    PotentialSpec,
    SchemaError,
    SequencingError,
    Tolerances,
    apply_hamiltonian,
    build_omega,
    build_order_basis,
    build_tau,
    exact_perturbed_energy,
    find_eigenvalues,
    match_coefficients,
    rs_first_order,
    run_series,
    solve_order,
)
from stepwell.perturbation import equation_residual
from stepwell.zero_order import MatchedState

PI = math.pi


def box_state(anchor_frac=0.5):
    spec = PotentialSpec((0.0, PI), (0.0,))
    aug = spec.with_fictitious_breakpoint(anchor_frac * PI)
    return match_coefficients(aug, 1.0)


class TestOmega:
    def test_zero_initial_data_and_residual(self, n1_step_spec):
        from stepwell import find_eigenvalues

        e0 = find_eigenvalues(n1_step_spec, 0.05, 10.0, count=1).energies[0]
        state = match_coefficients(n1_step_spec, e0)
        omega = build_omega(state)
        for j, (left, right) in enumerate(omega.pieces, start=1):
            anchor = state.bases[j - 1].anchor
            for piece in (left, right):
                assert piece.eval(anchor) == pytest.approx(0.0, abs=1e-14)
                assert piece.eval_deriv(anchor) == pytest.approx(0.0, abs=1e-14)
            # H omega = psi0 on each side, checked pointwise
            for side, piece in (("left", left), ("right", right)):
                rhs = state.domain_piece(j, side)
                out = apply_hamiltonian(piece, -piece.freq * piece.freq)
                lo = state.bases[j - 1].x_lo if side == "left" else anchor
                hi = anchor if side == "left" else state.bases[j - 1].x_hi
                xs = np.linspace(lo, hi, 50)
                assert np.max(np.abs(out.value(xs) - rhs.value(xs))) < 1e-10

    def test_box_boundary_pattern(self):
        # for the unit box (psi0 = sin x) the two wall values of omega sum to
        # -pi/2 regardless of where the fictitious anchor sits
        for frac in (0.3, 0.5, 0.618):
            state = box_state(frac)
            omega = build_omega(state)
            total = omega.at_lo[0] + omega.at_hi[0]
            assert total == pytest.approx(-PI / 2, abs=1e-12)

    def test_zero_state_gives_zero_omega(self):
        state = box_state()
        zeroed = MatchedState(
            state.spec,
            state.energy,
            np.zeros_like(state.coeffs),
            state.bases,
            state.residual,
        )
        omega = build_omega(zeroed)
        for left, right in omega.pieces:
            assert left.is_zero() and right.is_zero()


class TestTau:
    def test_first_order_is_minus_v1_psi0(self):
        state = box_state()
        pert = PerturbationSpec(((1.0,), (1.0,)))  # V1 = 1
        tau = build_tau(1, state, [], pert)
        for j, (left, right) in enumerate(tau.pieces, start=1):
            for side, piece in (("left", left), ("right", right)):
                rhs = state.domain_piece(j, side)
                xs = np.linspace(0.3, 2.8, 20)
                np.testing.assert_allclose(
                    piece.value(xs), -rhs.value(xs), atol=1e-14
                )

    def test_missing_history_rejected(self):
        state = box_state()
        pert = PerturbationSpec(((1.0,), (1.0,)))
        with pytest.raises(SequencingError):
            build_tau(3, state, [], pert)

    def test_second_order_tau_vanishes_for_constant_shift(self):
        # E1 = Omega and psi1 proportional to psi0 make tau(1) identically zero
        state = box_state()
        pert = PerturbationSpec(((0.4,), (0.4,)))
        omega = build_omega(state)
        tau1 = build_tau(1, state, [], pert)
        basis1 = build_order_basis(state, tau1)
        first = solve_order(state, omega, basis1)
        tau2 = build_tau(2, state, [first], pert)
        xs = np.linspace(0.1, 3.0, 25)
        for left, right in tau2.pieces:
            assert np.max(np.abs(left.value(xs))) < 1e-13
            assert np.max(np.abs(right.value(xs))) < 1e-13


class TestOrderBasis:
    def test_initial_conditions_and_residual(self, n1_step_spec):
        from stepwell import find_eigenvalues

        e0 = find_eigenvalues(n1_step_spec, 0.05, 10.0, count=1).energies[0]
        state = match_coefficients(n1_step_spec, e0)
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
        tau = build_tau(1, state, [], pert)
        basis = build_order_basis(state, tau)
        anchor = state.bases[0].anchor
        assert basis.c_pieces[0][0].eval(anchor) == pytest.approx(1.0)
        assert basis.c_pieces[0][0].eval_deriv(anchor) == pytest.approx(0.0, abs=1e-13)
        assert basis.s_pieces[0][1].eval(anchor) == pytest.approx(0.0, abs=1e-13)
        assert basis.s_pieces[0][1].eval_deriv(anchor) == pytest.approx(1.0)
        for s, side in ((0, "left"), (1, "right")):
            for family in (basis.c_pieces, basis.s_pieces):
                piece = family[0][s]
                out = apply_hamiltonian(piece, -piece.freq * piece.freq)
                rhs = tau.pieces[0][s]
                xs = np.linspace(0.1, 0.9, 25) if side == "left" else np.linspace(1.1, 1.9, 25)
                assert np.max(np.abs(out.value(xs) - rhs.value(xs))) < 1e-10

    def test_zero_tau_degenerates_to_homogeneous_basis(self):
        state = box_state()
        from stepwell.perturbation import TauSet
        from stepwell.trigbasis import TrigPoly

        anchor = state.bases[0].anchor
        freq = state.bases[0].c_left.freq
        tau = TauSet(
            1, (((TrigPoly.zero(anchor, freq)), (TrigPoly.zero(anchor, freq))),)
        )
        basis = build_order_basis(state, tau)
        xs = np.linspace(0.1, 3.0, 15)
        np.testing.assert_allclose(
            basis.c_pieces[0][0].value(xs),
            state.bases[0].c_left.value(xs),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            basis.s_pieces[0][1].value(xs),
            state.bases[0].s_right.value(xs),
            atol=1e-14,
        )


class TestSolveOrder:
    def test_box_constant_shift_first_order(self):
        state = box_state()
        pert = PerturbationSpec(((0.3,), (0.3,)))
        omega = build_omega(state)
        tau = build_tau(1, state, [], pert)
        basis = build_order_basis(state, tau)
        result = solve_order(state, omega, basis)
        assert result.energy == pytest.approx(0.3, abs=1e-12)

    def test_single_domain_system_is_the_two_by_two(self):
        # the solved (X, eps) must satisfy the explicit boundary pair
        #   X C(L) + (1 - X) S(L) + eps omega(L) = 0   at both walls
        state = box_state(0.37)
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
        omega = build_omega(state)
        tau = build_tau(1, state, [], pert)
        basis = build_order_basis(state, tau)
        result = solve_order(state, omega, basis)
        a = np.array(
            [
                [basis.c_at_lo[0] - basis.s_at_lo[0], omega.at_lo[0]],
                [basis.c_at_hi[0] - basis.s_at_hi[0], omega.at_hi[0]],
            ]
        )
        b = np.array([-basis.s_at_lo[0], -basis.s_at_hi[0]])
        x, eps = np.linalg.solve(a, b)
        assert result.x_coeffs[0] == pytest.approx(x, rel=1e-12)
        assert result.energy == pytest.approx(eps, rel=1e-12)

    def test_linear_perturbation_on_box(self):
        state = box_state()
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
        omega = build_omega(state)
        tau = build_tau(1, state, [], pert)
        basis = build_order_basis(state, tau)
        result = solve_order(state, omega, basis)
        assert result.energy == pytest.approx(PI / 2, abs=1e-10)

    def test_condition_limit_triggers_paradox_flag(self):
        state = box_state()
        pert = PerturbationSpec(((0.3,), (0.3,)))
        omega = build_omega(state)
        tau = build_tau(1, state, [], pert)
        basis = build_order_basis(state, tau)
        strict = Tolerances(condition_limit=1.0)
        with pytest.raises(DegeneracyParadoxError):
            solve_order(state, omega, basis, tol=strict)


class TestRunSeries:
    def test_exact_constant_shift_series(self, box_spec):
        pert = PerturbationSpec(((0.3,),))
        result = run_series(box_spec, pert, (0.2, 2.0), 3, max_states=1)
        energies = result.states[0].energies
        assert energies[0] == pytest.approx(1.0, abs=1e-12)
        assert energies[1] == pytest.approx(0.3, abs=1e-12)
        assert abs(energies[2]) < 1e-10
        assert abs(energies[3]) < 1e-10

    def test_order_zero_reduces_to_spectrum(self, n1_step_spec):
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
        result = run_series(n1_step_spec, pert, (0.05, 30.0), 0)
        from stepwell import find_eigenvalues

        scan = find_eigenvalues(n1_step_spec, 0.05, 30.0)
        assert tuple(s.energies[0] for s in result.states) == scan.energies
        assert all(not s.orders for s in result.states)

    def test_first_order_matches_integral_oracle(self, n1_step_spec):
        pert = PerturbationSpec(((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)))  # V1 = x^2
        result = run_series(n1_step_spec, pert, (0.05, 10.0), 1, max_states=1)
        series = result.states[0]
        e1_int = rs_first_order(series.matched, pert)
        assert series.energies[1] == pytest.approx(e1_int, rel=1e-8)

    def test_first_order_linear_in_perturbation(self, n1_step_spec):
        base = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
        e1 = run_series(n1_step_spec, base, (0.05, 10.0), 1, max_states=1).states[0].energies[1]
        for alpha in (2.0, -0.35, 11.0):
            scaled = PerturbationSpec(
                tuple(tuple(alpha * c for c in p) for p in base.interval_polys)
            )
            e1_scaled = (
                run_series(n1_step_spec, scaled, (0.05, 10.0), 1, max_states=1)
                .states[0]
                .energies[1]
            )
            assert e1_scaled == pytest.approx(alpha * e1, rel=1e-10)

    def test_equation_residuals_small(self, double_well_spec):
        pert = PerturbationSpec(
            ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
        )
        result = run_series(double_well_spec, pert, (0.05, 10.0), 3, max_states=2)
        for series in result.states:
            diag = series.diagnostics()
            assert diag["max_equation_residual"] < 1e-9
            assert diag["max_matching_residual"] < 1e-9
            assert diag["max_boundary_residual"] < 1e-9
            assert diag["max_overlap_gap"] < 1e-8

    def test_sign_convention_invariance(self, n1_step_spec):
        from stepwell import find_eigenvalues

        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
        e0 = find_eigenvalues(n1_step_spec, 0.05, 10.0, count=1).energies[0]
        state = match_coefficients(n1_step_spec, e0)
        flipped = MatchedState(
            state.spec, state.energy, -state.coeffs, state.bases, state.residual
        )
        energies = []
        for st in (state, flipped):
            omega = build_omega(st)
            history = []
            for k in (1, 2):
                tau = build_tau(k, st, history, pert)
                basis = build_order_basis(st, tau)
                history.append(solve_order(st, omega, basis))
            energies.append([h.energy for h in history])
        np.testing.assert_allclose(energies[0], energies[1], rtol=1e-9)

    def test_series_against_exact_tilted_solver(self, n1_step_spec):
        # independent power-series route: same fixture, coupling folded in
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
        result = run_series(n1_step_spec, pert, (0.05, 10.0), 4, max_states=1)
        series = result.states[0]
        for lam in (1e-2, 1e-3):
            exact = exact_perturbed_energy(
                n1_step_spec, pert, lam, series.energy_at(lam)
            )
            assert series.energy_at(lam) == pytest.approx(exact, abs=5e-12)

    def test_orders_without_perturbation_rejected(self, box_spec):
        with pytest.raises(SchemaError):
            run_series(box_spec, None, (0.2, 2.0), 2)

    def test_polynomial_zero_order_rejected_for_orders(self):
        spec = PotentialSpec(
            (0.0, 1.0, 2.0), (0.0, 0.0), zero_order_polys=((0.0, 1.0), (0.0, 1.0))
        )
        pert = PerturbationSpec(((1.0,), (1.0,)))
        with pytest.raises(SchemaError, match="polynomial"):
            run_series(spec, pert, (0.5, 10.0), 1)

    def test_stage_labels_on_failure(self, box_spec):
        # an obstructed anchor at every retry position is impossible, but a
        # window with no roots must surface the scan stage cleanly
        pert = PerturbationSpec(((0.3,),))
        result = run_series(box_spec, pert, (30.0, 35.0), 1)
        assert result.states == ()

    def test_pipeline_error_carries_stage(self, n1_step_spec):
        pert = PerturbationSpec(((0.3,), (0.3,)))
        strict = Tolerances(condition_limit=1e-6)
        with pytest.raises(PipelineError) as info:
            run_series(n1_step_spec, pert, (0.05, 10.0), 1, max_states=1, tol=strict)
        assert info.value.stage.startswith("S5")


class TestStress:
    def test_order_six_matches_exact_solve(self, double_well_spec):
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
        series = run_series(
            double_well_spec, pert, (0.05, 10.0), 6, max_states=1
        ).states[0]
        for lam, tol in ((0.05, 5e-10), (0.01, 1e-13)):
            exact = exact_perturbed_energy(
                double_well_spec, pert, lam, series.energy_at(lam)
            )
            assert abs(series.energy_at(lam) - exact) < tol

    def test_distinct_interval_polynomials(self, double_well_spec):
        pert = PerturbationSpec(((1.0, 0.5), (0.0, 0.0, 0.3), (2.0,)))
        result = run_series(double_well_spec, pert, (0.05, 10.0), 2, max_states=2)
        for series in result.states:
            e1_int = rs_first_order(series.matched, pert)
            assert series.energies[1] == pytest.approx(e1_int, rel=1e-10)
            assert series.diagnostics()["max_equation_residual"] < 1e-12

    def test_four_barrier_fixture(self):
        spec = PotentialSpec(
            (0.0, 1.0, 1.7, 2.9, 3.6, 5.1), (0.0, 12.0, 0.0, 12.0, 0.0)
        )
        pert = PerturbationSpec(tuple(((0.0, 1.0),) * 5))
        result = run_series(spec, pert, (0.05, 11.0), 3, max_states=2)
        assert len(result.states) == 2
        for series in result.states:
            e1_int = rs_first_order(series.matched, pert)
            assert series.energies[1] == pytest.approx(e1_int, rel=1e-10)
            diag = series.diagnostics()
            assert diag["max_equation_residual"] < 1e-11
            assert diag["max_overlap_gap"] < 1e-11

    def test_degree_six_perturbation(self, double_well_spec):
        # degree grows to (6+1)k+1 = 22 at order 3; with an O(1)-normalized
        # perturbation the closed-form algebra stays exact
        c6 = 1.0 / PI**6
        pert = PerturbationSpec(tuple([(0.0,) * 6 + (c6,)] * 3))
        series = run_series(
            double_well_spec, pert, (0.05, 10.0), 3, max_states=1
        ).states[0]
        assert max(series.equation_residuals) < 1e-12
        e1 = rs_first_order(series.matched, pert)
        assert series.energies[1] == pytest.approx(e1, rel=1e-10)
        exact = exact_perturbed_energy(
            double_well_spec, pert, 1e-2, series.energy_at(1e-2)
        )
        assert abs(exact - series.energy_at(1e-2)) < 1e-11

    def test_above_barrier_states(self, double_well_spec):
        # excited states above the central barrier keep every frequency real
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
        result = run_series(double_well_spec, pert, (12.0, 25.0), 4, max_states=2)
        assert len(result.states) == 2
        for series in result.states:
            e1 = rs_first_order(series.matched, pert)
            assert series.energies[1] == pytest.approx(e1, rel=1e-10)
            assert series.diagnostics()["max_equation_residual"] < 1e-12

    def test_gauge_shift_leaves_corrections_invariant(self, double_well_spec):
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
        base = run_series(double_well_spec, pert, (0.05, 10.0), 3, max_states=1)
        shift = 6.5
        shifted = run_series(
            double_well_spec.gauge_shifted(shift),
            pert,
            (0.05 + shift, 10.0 + shift),
            3,
            max_states=1,
        )
        a = base.states[0].energies
        b = shifted.states[0].energies
        assert b[0] - shift == pytest.approx(a[0], abs=1e-10)
        for k in (1, 2, 3):
            assert b[k] == pytest.approx(a[k], abs=1e-10)


class TestGaussLegendreIntegrals:
    """The Gauss-Legendre overlaps <psi0|psik> and first-order integrals
    against scipy's adaptive quad, the rule they replaced.

    Orders <= 6 only: from order 8 the correction pieces are rounding noise
    (the high-order drift of the series), and quad and Gauss-Legendre rules
    of 64, 200 and 400 nodes disagree with each other there: by 6e-10 at
    order 8 and 0.2 % at order 12 on (0,3,6)/(0,0) with a linear tilt.  The
    same noise reaches orders 5 and 6 when |beta| w falls to 0.1-0.2, so the
    near-height case keeps |beta| w at about 0.3.
    """

    CASES = {
        # the second interval is evanescent, kappa w = 0.79
        "step": ((0.0, 1.0, 2.0), (0.0, 5.0), (0.05, 10.0)),
        # evanescent barrier, kappa w = 2.4
        "double_well": ((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0), (0.05, 10.0)),
        # every interval oscillatory, above the barrier
        "above_barrier": ((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0), (12.0, 25.0)),
        # E0 = 4.0707, 0.1 above the step: beta w = 0.32
        "near_height": ((0.0, 1.0, 2.0), (0.0, 3.97), (0.05, 10.0)),
        # a plain box, split at a fictitious anchor
        "box": ((0.0, PI), (0.0,), (0.2, 2.0)),
    }

    @staticmethod
    def quad_overlap(spec, pieces_a, pieces_b):
        from scipy.integrate import quad

        acc = 0.0
        for i in range(spec.n_intervals):
            a, b = spec.breakpoints[i], spec.breakpoints[i + 1]
            pa, pb = pieces_a[i], pieces_b[i]
            acc += quad(
                lambda x: pa.eval(x) * pb.eval(x), a, b, epsabs=1e-12, epsrel=1e-12,
                limit=200,
            )[0]
        return acc

    @staticmethod
    def quad_first_order(state, pert):
        from scipy.integrate import quad

        num = den = 0.0
        for i, piece in enumerate(state.global_pieces()):
            a, b = state.spec.breakpoints[i], state.spec.breakpoints[i + 1]
            poly = pert.interval_polys[i]
            opts = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
            v1 = np.polynomial.Polynomial(poly)
            num += quad(lambda x: piece.eval(x) ** 2 * v1(x), a, b, **opts)[0]
            den += quad(lambda x: piece.eval(x) ** 2, a, b, **opts)[0]
        return num / den

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_overlaps_through_order_six(self, name):
        bp, heights, window = self.CASES[name]
        pert = PerturbationSpec(tuple((0.0, 1.0) for _ in heights))
        result = run_series(PotentialSpec(bp, heights), pert, window, 6, max_states=1)
        spec = result.embedded_spec or PotentialSpec(bp, heights)
        series = result.states[0]
        psi0 = series.matched.global_pieces()
        for order, overlap in zip(series.orders, series.overlaps):
            reference = self.quad_overlap(spec, psi0, order.global_pieces)
            assert overlap == pytest.approx(reference, rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_first_order_integral(self, name):
        bp, heights, window = self.CASES[name]
        spec = PotentialSpec(bp, heights)
        if spec.n_interior == 0:
            spec = spec.with_fictitious_breakpoint(1.0)
        energy = find_eigenvalues(spec, *window, count=1).energies[0]
        state = match_coefficients(spec, energy)
        for coeffs in ((0.0, 1.0), (0.3, -1.0, 0.2, 0.05)):
            pert = PerturbationSpec(tuple(coeffs for _ in spec.heights))
            assert rs_first_order(state, pert) == pytest.approx(
                self.quad_first_order(state, pert), rel=1e-12, abs=0
            )


class TestEquationResidualHelper:
    def test_residual_detects_wrong_energy(self):
        state = box_state()
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
        omega = build_omega(state)
        tau = build_tau(1, state, [], pert)
        basis = build_order_basis(state, tau)
        result = solve_order(state, omega, basis)
        assert equation_residual(state, result, tau) < 1e-12
        broken = replace(result, energy=result.energy + 0.1)
        assert equation_residual(state, broken, tau) > 1e-3
