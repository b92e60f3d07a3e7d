import math
from dataclasses import replace

import numpy as np
import pytest

from stepwell import (
    DegeneracyParadoxError,
    NonFiniteDeterminantError,
    PerturbationSpec,
    PipelineError,
    PotentialSpec,
    SchemaError,
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
from stepwell import perturbation
from stepwell.oracle import fd_rs_series
from stepwell.perturbation import _piecewise_overlap, equation_residual
from stepwell.zero_order import overlap_gap

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
                out = apply_hamiltonian(piece)
                lo = state.bases[j - 1].x_lo if side == "left" else anchor
                hi = anchor if side == "left" else state.bases[j - 1].x_hi
                xs = np.linspace(lo, hi, 50)
                assert np.max(np.abs(out.value(xs) - rhs.value(xs))) < 1e-10

    def test_box_boundary_pattern(self):
        # for the unit box (psi0 = sin x) the two wall values of omega sum to
        # -pi/2 regardless of where the fictitious anchor sits
        for frac in (0.3, 0.5, 0.618):
            state = box_state(frac)
            left, right = build_omega(state).pieces[0]
            total = left.eval(0.0) + right.eval(PI)
            assert total == pytest.approx(-PI / 2, abs=1e-12)

    def test_zero_state_gives_zero_omega(self):
        state = box_state()
        zeroed = replace(state, coeffs=np.zeros_like(state.coeffs))
        omega = build_omega(zeroed)
        for left, right in omega.pieces:
            assert left.is_zero() and right.is_zero()


class TestTau:
    def test_first_order_is_minus_v1_psi0(self):
        state = box_state()
        pert = PerturbationSpec(((1.0,), (1.0,)))  # V1 = 1
        tau = build_tau(build_omega(state), [], pert)
        for j, (left, right) in enumerate(tau, start=1):
            for side, piece in (("left", left), ("right", right)):
                rhs = state.domain_piece(j, side)
                xs = np.linspace(0.3, 2.8, 20)
                np.testing.assert_allclose(
                    piece.value(xs), -rhs.value(xs), atol=1e-14
                )

    def test_second_order_tau_vanishes_for_constant_shift(self):
        # E1 = Omega and psi1 proportional to psi0 make tau(1) identically zero
        state = box_state()
        pert = PerturbationSpec(((0.4,), (0.4,)))
        omega = build_omega(state)
        tau1 = build_tau(omega, [], pert)
        basis1 = build_order_basis(state, tau1)
        first = solve_order(state, omega, basis1)
        tau2 = build_tau(omega, [first], pert)
        xs = np.linspace(0.1, 3.0, 25)
        for left, right in tau2:
            assert np.max(np.abs(left.value(xs))) < 1e-13
            assert np.max(np.abs(right.value(xs))) < 1e-13


    def test_v1_is_reexpanded_once_per_domain_anchor(self, double_well_spec, monkeypatch):
        # V1 at a domain's anchor does not depend on the order: a 4-order
        # series re-expands each (polynomial, anchor) pair once
        pert = PerturbationSpec(((0.0, 1.0), (0.5, 0.0, 1.0), (0.0, -1.0)))
        calls = []
        original = perturbation.reanchor_poly

        def counted(poly, anchor):
            calls.append((poly, anchor))
            return original(poly, anchor)

        monkeypatch.setattr(perturbation, "reanchor_poly", counted)
        perturbation._local_poly.cache_clear()
        result = run_series(double_well_spec, pert, (0.05, 40.0), 4, max_states=1)
        assert len(result.states[0].orders) == 4
        polys, (l1, l2) = pert.interval_polys, double_well_spec.breakpoints[1:-1]
        expected = [(polys[0], l1), (polys[1], l1), (polys[1], l2), (polys[2], l2)]
        assert sorted(calls) == sorted(expected)


class TestOrderBasis:
    def test_initial_conditions_and_residual(self, n1_step_spec):
        from stepwell import find_eigenvalues

        e0 = find_eigenvalues(n1_step_spec, 0.05, 10.0, count=1).energies[0]
        state = match_coefficients(n1_step_spec, e0)
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
        tau = build_tau(build_omega(state), [], pert)
        basis = build_order_basis(state, tau)
        for j, (left, right) in enumerate(basis.pieces, start=1):
            zero = state.bases[j - 1]
            for s, piece in enumerate((left, right)):
                assert piece.eval(zero.anchor) == pytest.approx(0.0, abs=1e-14)
                assert piece.eval_deriv(zero.anchor) == pytest.approx(0.0, abs=1e-14)
                # H P = tau on each side, checked pointwise
                out = apply_hamiltonian(piece)
                lo, hi = (zero.x_lo, zero.anchor) if s == 0 else (zero.anchor, zero.x_hi)
                xs = np.linspace(lo, hi, 25)
                rhs = tau[j - 1][s]
                assert np.max(np.abs(out.value(xs) - rhs.value(xs))) < 1e-10
            assert basis.at_lo[j - 1] == left.eval(zero.x_lo)
            assert basis.at_hi[j - 1] == right.eval(zero.x_hi)

    def test_zero_tau_gives_zero_pieces(self):
        state = box_state()
        from stepwell.trigbasis import TrigPoly

        anchor = state.bases[0].anchor
        freq = state.bases[0].c_left.freq
        tau = ((TrigPoly.zero(anchor, freq), TrigPoly.zero(anchor, freq)),)
        basis = build_order_basis(state, tau)
        for left, right in basis.pieces:
            assert left.is_zero() and right.is_zero()
        assert basis.at_lo[0] == 0.0 and basis.at_hi[0] == 0.0

    def test_overflowing_piece_is_a_numerical_error(self):
        # an inf coefficient in tau overflows P's end values: a numerical
        # failure, neither a degenerate level nor a NaN energy
        from stepwell.trigbasis import TrigPoly

        state = box_state()
        anchor = state.bases[0].anchor
        freq = state.bases[0].c_left.freq
        bad = TrigPoly(anchor, freq, [0.0, math.inf], [0.0, 0.0])
        omega = build_omega(state)
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteDeterminantError):
            basis = build_order_basis(state, ((bad, bad),))
            solve_order(state, omega, basis)


class TestSolveOrder:
    def test_box_constant_shift_first_order(self):
        state = box_state()
        pert = PerturbationSpec(((0.3,), (0.3,)))
        omega = build_omega(state)
        tau = build_tau(omega, [], pert)
        basis = build_order_basis(state, tau)
        result = solve_order(state, omega, basis)
        assert result.energy == pytest.approx(0.3, abs=1e-12)

    def test_single_domain_system_is_the_bordered_three_by_three(self):
        # the matrix is the zero-order wall pair in (a, b), bordered by the
        # omega column and the gauge row (a, b).(c, d) = 0:
        #   P(L) + a C0(L) + b S0(L) + eps omega(L) = 0   at both walls
        # projecting psi0 out then moves (a, b) along (c, d) alone
        state = box_state(0.37)
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
        omega = build_omega(state)
        tau = build_tau(omega, [], pert)
        basis = build_order_basis(state, tau)
        result = solve_order(state, omega, basis)
        zero = state.bases[0]
        c, d = state.coeffs[0]
        a = np.array(
            [
                [zero.c_left.eval(zero.x_lo), zero.s_left.eval(zero.x_lo), omega.pieces[0][0].eval(zero.x_lo)],
                [zero.c_right.eval(zero.x_hi), zero.s_right.eval(zero.x_hi), omega.pieces[0][1].eval(zero.x_hi)],
                [c, d, 0.0],
            ]
        )
        b = np.array([-basis.at_lo[0], -basis.at_hi[0], 0.0])
        a_j, b_j, eps = np.linalg.solve(a, b)
        np.testing.assert_array_equal(omega.matrix, a)
        assert result.energy == pytest.approx(eps, rel=1e-12)
        assert result.condition == pytest.approx(np.linalg.cond(a), rel=1e-12)
        # value and slope of the correction at the anchor are its (a, b)
        piece = result.domain_pieces[0][0]
        da = piece.eval(zero.anchor) - a_j
        db = piece.eval_deriv(zero.anchor) - b_j
        assert abs(da * d - db * c) < 1e-12 * math.hypot(a_j, b_j)

    def test_linear_perturbation_on_box(self):
        state = box_state()
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
        omega = build_omega(state)
        tau = build_tau(omega, [], pert)
        basis = build_order_basis(state, tau)
        result = solve_order(state, omega, basis)
        assert result.energy == pytest.approx(PI / 2, abs=1e-10)

    @pytest.mark.parametrize(
        "breakpoints, heights",
        [
            ((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0)),
            ((0.0, 0.7, 1.5, 2.1, 3.0), (0.0, 12.0, 3.0, 20.0)),
        ],
    )
    def test_condition_is_the_same_at_every_order(
        self, breakpoints, heights, monkeypatch
    ):
        # the matrix holds zero-order values only; it is built once per
        # state, and no order rebuilds a column by cancellation
        from stepwell import perturbation

        calls = []
        stacked = perturbation._stacked_matrices
        monkeypatch.setattr(
            perturbation, "_stacked_matrices", lambda *a: calls.append(1) or stacked(*a)
        )
        spec = PotentialSpec(breakpoints, heights)
        pert = PerturbationSpec(tuple((0.0, 1.0) for _ in heights))
        series = run_series(spec, pert, (0.05, 10.0), 12, max_states=1).states[0]
        assert len(series.orders) == 12
        assert len({order.condition for order in series.orders}) == 1
        assert len(calls) == 1

    def test_condition_limit_triggers_paradox_flag(self, monkeypatch):
        state = box_state()
        pert = PerturbationSpec(((0.3,), (0.3,)))
        omega = build_omega(state)
        tau = build_tau(omega, [], pert)
        basis = build_order_basis(state, tau)
        monkeypatch.setattr(perturbation, "CONDITION_LIMIT", 1.0)
        with pytest.raises(DegeneracyParadoxError):
            solve_order(state, omega, basis)


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

    @pytest.mark.parametrize(
        "spec, gaps",
        [
            (
                PotentialSpec((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0)),
                ["0x1.8p-51", "0x1.d8p-51", "0x1.8p-53"],
            ),
            (
                PotentialSpec((0.0, 0.7, 1.5, 2.1, 3.0), (0.0, 12.0, 3.0, 20.0)),
                ["0x1.2p-51", "0x1.5p-52", "0x1.ep-53"],
            ),
        ],
    )
    def test_zero_order_overlap_gap_is_the_matched_states(self, spec, gaps):
        # the values the match filled in eagerly, before the gap was lazy
        pert = PerturbationSpec(tuple((0.0, 1.0) for _ in spec.heights))
        result = run_series(spec, pert, (0.05, 40.0), 2, max_states=3)
        diagnostics = [series.diagnostics()["zero_order_overlap_gap"] for series in result.states]
        assert diagnostics == [float.fromhex(g) for g in gaps]
        for series, gap in zip(result.states, diagnostics):
            state = match_coefficients(spec, series.matched.energy)
            assert gap == overlap_gap(spec, state.domain_pieces())

    def test_sign_convention_invariance(self, n1_step_spec):
        from stepwell import find_eigenvalues

        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
        e0 = find_eigenvalues(n1_step_spec, 0.05, 10.0, count=1).energies[0]
        state = match_coefficients(n1_step_spec, e0)
        flipped = replace(state, coeffs=-state.coeffs)
        energies = []
        for st in (state, flipped):
            omega = build_omega(st)
            history = []
            for _ in range(2):
                tau = build_tau(omega, history, pert)
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
        # a window with no roots gives no states, not a stage failure
        pert = PerturbationSpec(((0.3,),))
        result = run_series(box_spec, pert, (30.0, 35.0), 1)
        assert result.states == ()

    def test_pipeline_error_carries_stage(self, n1_step_spec, monkeypatch):
        pert = PerturbationSpec(((0.3,), (0.3,)))
        monkeypatch.setattr(perturbation, "CONDITION_LIMIT", 1e-6)
        with pytest.raises(PipelineError) as info:
            run_series(n1_step_spec, pert, (0.05, 10.0), 1, max_states=1)
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

    def test_ill_conditioned_well_through_order_five(self):
        # bordered condition 260 at the ground state; keeps out forms that
        # lose accuracy here (without psi0 projected out it gave 7.8e-12)
        spec = PotentialSpec((0.0, 0.38, 1.33, 3.2), (22.6, 40.0, 5.19))
        pert = PerturbationSpec(tuple((0.0, 0.35) for _ in spec.heights))
        series = run_series(spec, pert, (5.2, 60.0), 5, max_states=1).states[0]
        lam = 0.05
        exact = exact_perturbed_energy(spec, pert, lam, series.energy_at(lam))
        assert abs(exact - series.energy_at(lam)) < 1e-12

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


class TestAgainstFdRayleighSchroedinger:
    """E_k against the Rayleigh-Schroedinger recursion on the finite-difference
    grid (oracle.fd_rs_series), whose own error is about 2e-8 relative
    here.  A psi0 share left in each order, growing about sixfold per
    order, misses these gates from order 4-10."""

    CASES = {
        # the acceptance double well, V1 = x
        "double_well": ((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0), (0.0, 1.0), 0, 30),
        # the second state of the benchmark's series_orders seed 2, problem 6
        "n2_p2": (
            (0.0, 0.5028623090967341, 2.118580833500661, 3.426095216815745),
            (9.618599186335198, 47.350670284240024, 11.56578362090971),
            (0.0, 0.0, -0.21326606591162414),
            1,
            12,
        ),
        "n3_quadratic": (
            (0.0, 0.7, 1.5, 2.1, 3.0), (0.0, 12.0, 3.0, 20.0), (0.0, 0.0, 1.0), 0, 12
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_orders_match(self, name):
        bp, heights, poly, index, orders = self.CASES[name]
        spec = PotentialSpec(bp, heights)
        pert = PerturbationSpec(tuple(poly for _ in heights))
        floor = min(heights)
        series = run_series(
            spec, pert, (floor + 1e-4, floor + 50.0), orders, max_states=index + 1
        ).states[index]
        reference, _ = fd_rs_series(spec, pert, orders, index)
        np.testing.assert_allclose(series.energies, reference, rtol=1e-6, atol=0)


class TestGaussLegendreIntegrals:
    """The Gauss-Legendre norms <psik|psik> and first-order integrals
    against scipy's adaptive quad, the rule they replaced, and the
    projected overlaps <psi0|psik> against ||psi0|| ||psik||.

    Each case runs through the last order where both hold at 1e-12.  Past
    it a correction is far smaller than its pieces' terms, which cancel on
    evaluation (the beta w and degree growth of the particular solutions),
    and both integrals read that rounding: on the step the overlap bound
    fails from order 3 (1.4e-9 at 5), near the height from order 2 and on
    the box at order 6 (1.03e-12).
    """

    CASES = {
        # the second interval is evanescent, kappa w = 0.79
        "step": ((0.0, 1.0, 2.0), (0.0, 5.0), (0.05, 10.0), 2),
        # evanescent barrier, kappa w = 2.4
        "double_well": ((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0), (0.05, 10.0), 6),
        # every interval oscillatory, above the barrier
        "above_barrier": ((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0), (12.0, 25.0), 6),
        # E0 = 4.0707, 0.1 above the step: beta w = 0.32
        "near_height": ((0.0, 1.0, 2.0), (0.0, 3.97), (0.05, 10.0), 1),
        # a plain box, split at a fictitious anchor
        "box": ((0.0, PI), (0.0,), (0.2, 2.0), 5),
    }

    @staticmethod
    def quad_overlap(spec, pieces_a, pieces_b, epsabs):
        from scipy.integrate import quad

        acc = 0.0
        for i in range(spec.n_intervals):
            a, b = spec.breakpoints[i], spec.breakpoints[i + 1]
            pa, pb = pieces_a[i], pieces_b[i]
            acc += quad(
                lambda x: pa.eval(x) * pb.eval(x), a, b, epsabs=epsabs, epsrel=1e-13,
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
    def test_norms_and_projected_overlaps(self, name):
        bp, heights, window, orders = self.CASES[name]
        pert = PerturbationSpec(tuple((0.0, 1.0) for _ in heights))
        result = run_series(PotentialSpec(bp, heights), pert, window, orders, max_states=1)
        spec = result.embedded_spec or PotentialSpec(bp, heights)
        series = result.states[0]
        psi0 = series.matched.global_pieces()
        norm0 = math.sqrt(_piecewise_overlap(spec, psi0, psi0))
        assert len(series.orders) == orders
        for order, overlap in zip(series.orders, series.overlaps):
            pieces = order.global_pieces
            norm2 = _piecewise_overlap(spec, pieces, pieces)
            reference = self.quad_overlap(spec, pieces, pieces, 1e-14 * norm2)
            assert norm2 == pytest.approx(reference, rel=1e-12, abs=0)
            # every correction is printed with psi0 projected out
            assert abs(overlap) <= 1e-12 * norm0 * math.sqrt(norm2)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_first_order_integral(self, name):
        bp, heights, window, _ = self.CASES[name]
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
        tau = build_tau(omega, [], pert)
        basis = build_order_basis(state, tau)
        result = solve_order(state, omega, basis)
        assert equation_residual(state.spec, omega, result, tau) < 1e-12
        broken = replace(result, energy=result.energy + 0.1)
        assert equation_residual(state.spec, omega, broken, tau) > 1e-3
