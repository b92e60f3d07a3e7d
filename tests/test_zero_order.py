import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stepwell import (
    DegenerateEnergyError,
    NonFiniteDeterminantError,
    NotARootError,
    PerturbationSpec,
    PotentialSpec,
    RootNotConvergedError,
    SchemaError,
    TrigPoly,
    TruncationError,
    build_domain_basis,
    fd_eigenvalues,
    find_eigenvalues,
    local_frequency,
    match_coefficients,
    matching_matrix,
    run_series,
    secular_determinant,
    series_local_basis,
    sturm_count,
)
from stepwell import zero_order
from stepwell import potential
from stepwell.config import BETA_MIN, ScanConfig

import golden_formulas as golden

PI = math.pi

# lowest root of the (0,1,2)/(0,5) single-step fixture, pinned by bisection
# on the matching determinant and confirmed against the finite-difference
# oracle below
N1_STEP_GROUND = 4.375151245875667


class TestBox:
    def test_unit_box_eigenvalues(self, box_spec):
        scan = find_eigenvalues(box_spec, 0.1, 17.0, count=4)
        np.testing.assert_allclose(scan.energies, [1.0, 4.0, 9.0, 16.0], atol=1e-10)
        assert scan.complete

    def test_box_width_one(self):
        spec = PotentialSpec((0.0, 1.0), (0.0,))
        scan = find_eigenvalues(spec, 0.5, 100.0, count=3)
        np.testing.assert_allclose(
            scan.energies, [PI**2, 4 * PI**2, 9 * PI**2], atol=1e-10
        )

    def test_determinant_is_wall_value(self, box_spec):
        # N = 0: the determinant degenerates to the sine solution at the far wall
        val = secular_determinant(box_spec, 4.0)
        assert val == pytest.approx(math.sin(2 * PI) / 2.0, abs=1e-15)

    def test_matching_matrix_requires_interior(self, box_spec):
        with pytest.raises(ValueError):
            matching_matrix(box_spec, 2.0)
        with pytest.raises(SchemaError):
            match_coefficients(box_spec, 1.0)


class TestDomainBasis:
    def test_flat_interval_closed_forms(self):
        spec = PotentialSpec((-1.0, 0.0, 1.0), (0.0, 0.0))
        basis = build_domain_basis(spec, 1.0, 1)
        xs = np.linspace(-0.9, 0.9, 11)
        for x in xs:
            side = "left" if x < 0 else "right"
            assert basis.piece("c", side).eval(x) == pytest.approx(np.cos(x), rel=1e-14)
            assert basis.piece("s", side).eval(x) == pytest.approx(np.sin(x), rel=1e-14)

    def test_hyperbolic_branch(self):
        spec = PotentialSpec((-1.0, 0.0, 1.0), (0.0, 2.0))
        basis = build_domain_basis(spec, 1.0, 1)
        assert basis.piece("c", "left").eval(-0.5) == pytest.approx(np.cos(0.5))
        assert basis.piece("c", "right").eval(0.5) == pytest.approx(np.cosh(0.5))

    def test_initial_conditions(self, n1_step_spec):
        basis = build_domain_basis(n1_step_spec, 3.3, 1)
        for side in ("left", "right"):
            assert basis.piece("c", side).eval(1.0) == pytest.approx(1.0)
            assert basis.piece("c", side).eval_deriv(1.0) == pytest.approx(0.0, abs=1e-15)
            assert basis.piece("s", side).eval(1.0) == pytest.approx(0.0, abs=1e-15)
            assert basis.piece("s", side).eval_deriv(1.0) == pytest.approx(1.0)

    @given(st.floats(0.3, 30.0), st.floats(-2.0, 8.0))
    def test_wronskian_is_one(self, energy, h1):
        spec = PotentialSpec((0.0, 1.0, 2.5), (0.0, h1))
        try:
            basis = build_domain_basis(spec, energy, 1)
        except DegenerateEnergyError:
            return
        for side, lo, hi in (("left", 0.0, 1.0), ("right", 1.0, 2.5)):
            c = basis.piece("c", side)
            s = basis.piece("s", side)
            for x in np.linspace(lo + 0.01, hi - 0.01, 20):
                w = c.eval(x) * s.eval_deriv(x) - c.eval_deriv(x) * s.eval(x)
                assert abs(w - 1.0) < 1e-10


class TestN1Step:
    def test_ground_state_agrees_with_fd_oracle(self, n1_step_spec):
        scan = find_eigenvalues(n1_step_spec, 0.05, 10.0, count=1)
        assert scan.energies[0] == pytest.approx(N1_STEP_GROUND, abs=1e-11)
        fd = fd_eigenvalues(n1_step_spec, m=2500, count=1)
        assert abs(scan.energies[0] - fd.values[0]) < fd.estimate[0]

    def test_roots_satisfy_trigonometric_equation(self, n1_step_spec):
        scan = find_eigenvalues(n1_step_spec, 0.05, 40.0)
        assert len(scan.energies) >= 3
        for e in scan.energies:
            assert golden.n1_step(e, p=1.0, q=2.0, h1=5.0) < 1e-12

    def test_psi_is_sine_from_wall(self, n1_step_spec):
        # the matched state on the first interval must be proportional to
        # sin(beta x); the amplitude ratio across the step is fixed by matching
        state = match_coefficients(n1_step_spec, N1_STEP_GROUND)
        beta = math.sqrt(N1_STEP_GROUND)
        gamma = np.sqrt(complex(N1_STEP_GROUND - 5.0))
        xs = np.linspace(0.05, 0.95, 9)
        ratio = state.eval(xs) / np.sin(beta * xs)
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)
        # outer-amplitude ratio: matching at the step fixes it to
        # cos(beta P) / cos(gamma (P - Q))
        xs_r = np.linspace(1.05, 1.95, 9)
        sin_r = (np.sin(gamma * (xs_r - 2.0)) / gamma).real
        ratio_r = state.eval(xs_r) / sin_r
        np.testing.assert_allclose(ratio_r, ratio_r[0], rtol=1e-10)
        # derivative matching at the step fixes the outer-amplitude ratio
        expected = (beta * np.cos(beta * 1.0) / np.cos(gamma * (1.0 - 2.0))).real
        assert ratio_r[0] / ratio[0] == pytest.approx(expected, rel=1e-10)

    def test_match_requires_root(self, n1_step_spec):
        with pytest.raises(NotARootError):
            match_coefficients(n1_step_spec, 5.1)


class TestAsymmetricDoubleWell:
    def test_determinant_tracks_closed_form(self, double_well_spec):
        # zeros coincide and the ratio stays bounded away from zero between them
        scan = find_eigenvalues(double_well_spec, 0.05, 30.0)
        for e in scan.energies:
            assert golden.n2_double_well(e, 1.0, 2.0, PI, 10.0, 0.0) < 1e-10

    def test_lowest_doublet(self, double_well_spec):
        scan = find_eigenvalues(double_well_spec, 0.05, 30.0, count=3)
        e1, e2, e3 = scan.energies
        assert e2 - e1 < e3 - e2  # two lowest levels pair off

    def test_spurious_subinterval_resonance_rejected(self, double_well_spec):
        # E = H1 + pi^2 makes the barrier interval's own Dirichlet mode
        # vanish at both of its ends; the determinant vanishes there without
        # a smooth global eigenfunction.  The scan must reject it, and the
        # finite-difference oracle confirms no such level exists.
        scan = find_eigenvalues(double_well_spec, 18.0, 22.0)
        spurious_e = 10.0 + PI**2
        assert any(abs(s - spurious_e) < 1e-6 for s in scan.spurious)
        assert all(abs(e - spurious_e) > 1e-3 for e in scan.energies)
        fd = fd_eigenvalues(double_well_spec, m=2500, count=6)
        for e in scan.energies:
            assert np.min(np.abs(fd.values - e)) < 1e-5
        assert np.min(np.abs(fd.values - spurious_e)) > 0.1

    def test_matched_state_smooth_at_breakpoints(self, double_well_spec):
        scan = find_eigenvalues(double_well_spec, 0.05, 10.0, count=2)
        for e in scan.energies:
            state = match_coefficients(double_well_spec, e)
            pieces = state.global_pieces()
            for j in (1, 2):
                xb = double_well_spec.breakpoints[j]
                assert abs(pieces[j - 1].eval(xb) - pieces[j].eval(xb)) < 1e-9
                assert (
                    abs(pieces[j - 1].eval_deriv(xb) - pieces[j].eval_deriv(xb)) < 1e-9
                )
            assert state.overlap_gap < 1e-10

    def test_grid_eval_equals_pointwise_eval(self, double_well_spec):
        # one eval per piece on all of its points, the bits of one per point
        energy = find_eigenvalues(double_well_spec, 0.05, 10.0, count=1).energies[0]
        state = match_coefficients(double_well_spec, energy)
        spec, pieces = double_well_spec, state.global_pieces()
        xs = np.concatenate([np.linspace(0.0, PI, 201), spec.breakpoints]).tolist()
        assert spec.interval_index(np.array(xs)).tolist() == [spec.interval_index(x) for x in xs]
        assert state.eval(np.array(xs)).tolist() == [pieces[spec.interval_index(x)].eval(x) for x in xs]
        with pytest.raises(ValueError, match="x = 4.0 outside"):
            spec.interval_index(np.array([0.5, 4.0]))

    def test_ground_state_matches_fd_eigenvector(self, double_well_spec):
        from stepwell import fd_eigenvector

        scan = find_eigenvalues(double_well_spec, 0.05, 10.0, count=1)
        state = match_coefficients(double_well_spec, scan.energies[0])
        x, psi = fd_eigenvector(double_well_spec, m=20000, index=0)
        vals = state.eval(x)
        vals /= math.sqrt(np.sum(vals**2) * (x[1] - x[0]))
        if np.sign(vals[len(x) // 2]) != np.sign(psi[len(x) // 2]):
            psi = -psi
        assert np.max(np.abs(vals - psi)) < 1e-3


class TestGaugeAndEmbedding:
    def test_gauge_shift_moves_spectrum_exactly(self, n1_step_spec):
        shift = 7.3
        scan = find_eigenvalues(n1_step_spec, 0.05, 30.0)
        shifted = find_eigenvalues(
            n1_step_spec.gauge_shifted(shift), 0.05 + shift, 30.0 + shift
        )
        assert len(scan.energies) == len(shifted.energies)
        for a, b in zip(scan.energies, shifted.energies):
            assert b - shift == pytest.approx(a, abs=1e-10)

    def test_fictitious_breakpoint_changes_nothing(self, box_spec, n1_step_spec):
        for spec in (box_spec, n1_step_spec):
            base = find_eigenvalues(spec, 0.1, 20.0)
            aug = spec.with_fictitious_breakpoint(
                spec.x_min + 0.37 * (spec.x_max - spec.x_min)
            )
            again = find_eigenvalues(aug, 0.1, 20.0)
            assert len(base.energies) == len(again.energies)
            for a, b in zip(base.energies, again.energies):
                assert abs(a - b) < 1e-10

    def test_box_recovered_through_embedding(self, box_spec):
        # harmless fictitious step at pi/2: psi must still be sin x
        aug = box_spec.with_fictitious_breakpoint(PI / 2)
        state = match_coefficients(aug, 1.0)
        xs = np.linspace(0.1, PI - 0.1, 15)
        np.testing.assert_allclose(state.eval(xs), np.sin(xs), atol=1e-12)

    def test_anchor_with_vanishing_c_plus_d_matches(self):
        # sin x has psi + psi' = 0 at 3 pi / 4, so c + d = 0 there; the
        # state matches, and its series is the midpoint-split box's
        spec = PotentialSpec((0.0, 3 * PI / 4, PI), (0.0, 0.0))
        c, d = match_coefficients(spec, 1.0).coeffs[0]
        assert abs(c + d) < 1e-12
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
        anchored = run_series(spec, pert, (0.2, 2.0), 6, max_states=1).states[0]
        box = run_series(
            PotentialSpec((0.0, PI), (0.0,)), PerturbationSpec(((0.0, 1.0),)), (0.2, 2.0), 6,
            max_states=1,
        ).states[0]
        np.testing.assert_allclose(anchored.energies, box.energies, rtol=1e-12, atol=1e-14)


class TestScanBehaviour:
    def test_partial_result_flagged(self, box_spec):
        scan = find_eigenvalues(box_spec, 0.1, 10.0, count=5)
        assert not scan.complete
        assert len(scan.energies) == 3

    def test_symmetric_wells_resolvable_doublet(self):
        # equal wells behind a tall barrier: splitting ~ 9e-9 is still
        # certifiable by sign changes under deep dip refinement
        spec = PotentialSpec((0.0, 1.0, 2.0, 3.0), (0.0, 400.0, 0.0))
        scan = find_eigenvalues(spec, 0.05, 12.0)
        assert len(scan.energies) == 2
        e1, e2 = scan.energies
        assert 0 < e2 - e1 < 1e-7
        fd = fd_eigenvalues(spec, m=2500, count=2)
        for e, f, est in zip(scan.energies, fd.values, fd.estimate):
            assert abs(e - f) < est

    def test_symmetric_wells_unresolvable_pair_flagged(self):
        # a much taller barrier pushes the splitting below double precision;
        # the dip bottoms out at the rounding floor and is reported once,
        # flagged near-degenerate, instead of losing both states
        spec = PotentialSpec((0.0, 1.0, 2.0, 3.0), (0.0, 1600.0, 0.0))
        scan = find_eigenvalues(spec, 0.05, 12.0)
        assert len(scan.energies) == 1
        assert scan.near_degenerate == scan.energies
        fd = fd_eigenvalues(spec, m=2500, count=2)
        assert abs(scan.energies[0] - fd.values[0]) < fd.estimate[0]
        assert abs(fd.values[1] - fd.values[0]) < 1e-6  # pair truly merged

    def test_degenerate_grid_points_skipped(self):
        spec = PotentialSpec((0.0, 1.0, 2.0), (0.0, 5.0))
        # window straddles the height 5, some grid energies may be degenerate
        scan = find_eigenvalues(spec, 4.9999999, 5.0000001)
        assert scan.energies == ()

    def test_invalid_windows(self, box_spec):
        with pytest.raises(ValueError):
            find_eigenvalues(box_spec, 5.0, 1.0)
        with pytest.raises(ValueError):
            find_eigenvalues(box_spec, 0.0, 10.0, count=0)


def _reference_matrix(spec, energy):
    """Row-normalized matching matrix rebuilt from build_domain_basis at one
    energy, one domain at a time."""
    n = spec.n_interior
    a = np.zeros((2 * n, 2 * n))
    for j in range(1, n + 1):
        b = build_domain_basis(spec, energy, j)
        r = 2 * (j - 1)
        a[r, r], a[r, r + 1] = b.c_at_lo, b.s_at_lo
        a[r + 1, r], a[r + 1, r + 1] = b.c_at_hi, b.s_at_hi
        if j >= 2:
            a[r, r - 2] = -1.0
        if j <= n - 1:
            a[r + 1, r + 2] = -1.0
    return a / np.linalg.norm(a, axis=1)[:, None]


def _scalar_reference(spec, energy):
    """Row-normalized determinant rebuilt from build_domain_basis at one
    energy (the wall-to-wall sine value for a plain box); NaN when the
    energy is degenerate with a height."""
    try:
        if spec.n_interior == 0:
            beta = local_frequency(spec, 0, energy)
            return TrigPoly.sine_unit_slope(spec.x_min, beta).eval(spec.x_max)
        return float(np.linalg.det(_reference_matrix(spec, energy)))
    except DegenerateEnergyError:
        return np.nan


class TestBatchedDeterminant:
    """The array form of secular_determinant against per-energy bases."""

    SPECS = {
        "box": ((0.0, PI), (0.0,)),
        "step": ((0.0, 1.0, 2.0), (0.0, 5.0)),
        "double_well": ((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0)),
        # N = 4: up to four intervals evanescent at once on the grid
        "n4_evanescent": ((0.0, 0.7, 1.3, 2.2, 2.9, 3.5), (0.0, 30.0, 4.0, 60.0, 1.0)),
    }

    @staticmethod
    def grid(spec):
        energies = np.linspace(min(spec.heights) - 3.0, max(spec.heights) + 25.0, 600)
        energies[137] = spec.heights[-1]  # exactly at a height
        return energies

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_bit_identical_to_per_energy_bases(self, name):
        spec = PotentialSpec(*self.SPECS[name])
        energies = self.grid(spec)
        batched = secular_determinant(spec, energies)
        reference = np.array([_scalar_reference(spec, e) for e in energies])
        assert batched.shape == (600,)
        assert np.array_equal(batched, reference, equal_nan=True)
        assert np.isnan(batched[137])
        assert np.isnan(batched).sum() == 1
        with pytest.raises(DegenerateEnergyError):
            secular_determinant(spec, energies[137])
        assert secular_determinant(spec, energies[5]) == batched[5]

    def test_blocks_change_nothing(self, monkeypatch):
        spec = PotentialSpec(*self.SPECS["n4_evanescent"])
        energies = self.grid(spec)
        whole = secular_determinant(spec, energies)
        # room for three 8 x 8 matrices per block
        monkeypatch.setattr(zero_order, "_BLOCK_BYTES", 3 * 8 * 8 * 8)
        assert np.array_equal(secular_determinant(spec, energies), whole, equal_nan=True)
        assert secular_determinant(spec, energies[:0]).shape == (0,)

    def test_series_backend_shares_the_path(self, n1_step_spec):
        spec = PotentialSpec(
            n1_step_spec.breakpoints, n1_step_spec.heights, ((0.0, 0.2), (0.0, 0.2))
        )
        energies = np.linspace(1.0, 12.0, 7)
        reference = [_scalar_reference(spec, e) for e in energies]
        assert np.array_equal(secular_determinant(spec, energies), reference)

    @pytest.mark.parametrize("barrier", [1.6e5, 1e6])
    def test_overflow_raises_instead_of_silence(self, barrier):
        # cosh(kappa w) overflows the row norm (kappa w = 400) or the value
        # itself (kappa w = 1000); the determinant may not come back as a
        # zero there.  The scan evaluates no determinant and returns the
        # decoupled wells' levels (test_tall_barrier_gives_the_decoupled_pairs)
        spec = PotentialSpec((0.0, 1.0, 2.0, 3.0), (0.0, barrier, 0.0))
        assert find_eigenvalues(spec, 0.05, 40.0).energies
        with pytest.raises(NonFiniteDeterminantError, match="E = 5.0"):
            secular_determinant(spec, 5.0)

    @pytest.mark.parametrize("energy", [9.8204, 9.85])
    def test_match_on_overflow_is_not_a_degeneracy(self, energy):
        # the null vector's rows normalize by an infinite norm here; the
        # SVD used to call that a DegeneracyParadoxError, with overflow warnings
        spec = PotentialSpec((0.0, 1.0, 2.0, 3.0), (0.0, 1.6e5, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteDeterminantError, match=f"E = {energy}: .* interval 1"):
                match_coefficients(spec, energy)
            with pytest.raises(NonFiniteDeterminantError, match=f"E = {energy}: .* interval 1"):
                matching_matrix(spec, energy)


def _random_wells(seed: int, count: int) -> list[PotentialSpec]:
    rng = np.random.default_rng(seed)
    wells = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        bp = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.5, n))])
        wells.append(PotentialSpec(tuple(bp), tuple(rng.uniform(0.0, 20.0, n))))
    return wells


class TestBrentq:
    """zero_order.brentq against scipy.optimize.brentq, the iteration it ports."""

    WELLS = [
        PotentialSpec(*TestBatchedDeterminant.SPECS[name])
        for name in ("box", "step", "double_well")
    ] + _random_wells(seed=7, count=12)

    @pytest.mark.parametrize("xtol", [1e-13, 1e-14, 1e-15])
    def test_bit_identical_to_scipy_on_scan_brackets(self, xtol):
        from scipy.optimize import brentq as scipy_brentq

        brackets = 0
        for spec in self.WELLS:
            # the scan grid of find_eigenvalues: 600 points uniform in k
            floor = zero_order.reference_floor(spec)
            ks = np.linspace(np.sqrt(0.05), np.sqrt(40.0), 600)
            energies = floor + ks * ks
            vals = secular_determinant(spec, energies)
            for i in np.flatnonzero(vals[:-1] * vals[1:] < 0):
                def det(e):
                    return secular_determinant(spec, e)

                ea, eb = energies[i], energies[i + 1]
                ours = zero_order.brentq(det, ea, eb, xtol=xtol, rtol=8.9e-16)
                assert ours == scipy_brentq(det, ea, eb, xtol=xtol, rtol=8.9e-16)
                brackets += 1
        assert brackets > 60

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: math.sin(x) - x / 2, 1.0, 3.0),
            (lambda x: math.cbrt(x - 1.0), -2.0, 5.0),  # infinite slope at the root
            (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 2.0),  # near-jump
            (lambda x: math.exp(x) - 1e3, 0.0, 20.0),
            (lambda x: 1.0 / x - 0.5, 0.5, 10.0),
        ],
    )
    def test_bit_identical_to_scipy_on_hard_functions(self, f, a, b):
        # curved and steep functions, where interpolation steps get rejected
        from scipy.optimize import brentq as scipy_brentq

        for xtol in (1e-13, 1e-14, 1e-15):
            assert zero_order.brentq(f, a, b, xtol=xtol) == scipy_brentq(f, a, b, xtol=xtol)

    def test_endpoint_zero_and_same_sign(self):
        from scipy.optimize import brentq as scipy_brentq

        def f(x):
            return x - 1.0

        for a, b in ((1.0, 3.0), (-2.0, 1.0)):
            assert zero_order.brentq(f, a, b, xtol=1e-14) == 1.0
            assert scipy_brentq(f, a, b, xtol=1e-14) == 1.0
        for brentq in (zero_order.brentq, scipy_brentq):
            with pytest.raises(ValueError):
                brentq(f, 2.0, 3.0, xtol=1e-14)

    def test_no_convergence_is_a_solver_error(self):
        # a jump needs about 2000 bisections from this bracket; scipy raises
        # a bare RuntimeError after its 100 steps
        def step(x):
            return -1.0 if x < 0.3 else 1.0

        with pytest.raises(RootNotConvergedError):
            zero_order.brentq(step, -1e300, 1e300, xtol=1e-300)


def _per_lane(g):
    """An array function that applies the scalar g to each element."""
    return lambda xs: [g(x) for x in xs]


def _scan_brackets(spec):
    """The scan grid of find_eigenvalues and its sign-change brackets."""
    floor = zero_order.reference_floor(spec)
    ks = np.linspace(np.sqrt(0.05), np.sqrt(40.0), 600)
    energies = floor + ks * ks
    vals = secular_determinant(spec, energies)
    i = np.flatnonzero(vals[:-1] * vals[1:] < 0)
    return energies[i], energies[i + 1]


class TestLockStepBrentq:
    """Array brackets refined in lock-step against one bracket at a time."""

    SPECS = [PotentialSpec(*spec) for spec in TestBatchedDeterminant.SPECS.values()]

    @pytest.mark.parametrize("xtol", [1e-13, 1e-15])
    def test_bit_identical_to_scalar_on_scan_brackets(self, xtol):
        for spec in self.SPECS:
            calls = []

            def det(energies):
                calls.append(len(energies))
                return secular_determinant(spec, energies)

            a, b = _scan_brackets(spec)
            assert len(a) >= 3
            roots = zero_order.brentq(det, a, b, xtol=xtol, rtol=8.9e-16)
            expected = [
                zero_order.brentq(lambda e: secular_determinant(spec, e), ea, eb, xtol=xtol, rtol=8.9e-16)
                for ea, eb in zip(a, b)
            ]
            assert roots.tolist() == expected
            # one call for each end, then one per step of the slowest bracket
            assert calls[:2] == [len(a), len(a)]
            assert len(calls) <= 2 + zero_order._BRENT_MAXITER
            assert calls == sorted(calls, reverse=True)

    @pytest.mark.parametrize(
        "g, a, b, narrow",
        [
            (lambda x: math.sin(x) - x / 2, 1.0, 3.0, (1.5, 2.5)),
            (lambda x: math.cbrt(x - 1.0), -2.0, 5.0, (0.0, 1.5)),
            (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 2.0, (0.0, 0.5)),
            (lambda x: math.exp(x) - 1e3, 0.0, 20.0, (5.0, 8.0)),
            (lambda x: 1.0 / x - 0.5, 0.5, 10.0, (1.0, 3.0)),
        ],
    )
    def test_bit_identical_to_scalar_on_hard_functions(self, g, a, b, narrow):
        # the scipy-port brackets, reversed and narrowed, finish at different steps
        lo, hi = np.array([a, b, narrow[0]]), np.array([b, a, narrow[1]])
        for xtol in (1e-13, 1e-14, 1e-15):
            roots = zero_order.brentq(_per_lane(g), lo, hi, xtol=xtol)
            assert roots.tolist() == [
                zero_order.brentq(g, x, y, xtol=xtol) for x, y in zip(lo, hi)
            ]

    def test_scalar_and_empty_brackets(self):
        assert zero_order.brentq(lambda x: x - 1.0, 0.0, 3.0, xtol=1e-14) == 1.0
        assert isinstance(zero_order.brentq(lambda x: x - 1.0, 0.0, 3.0, xtol=1e-14), float)
        empty = zero_order.brentq(_per_lane(lambda x: x - 1.0), np.array([]), np.array([]), xtol=1e-14)
        assert empty.shape == (0,)
        with pytest.raises(ValueError):
            zero_order.brentq(lambda x: x, np.zeros((2, 2)), np.ones((2, 2)), xtol=1e-14)

    def test_degenerate_trial_raises_the_scalar_error(self, n1_step_spec):
        # the array kernel gives NaN at the height 5; the lane is evaluated
        # again as a scalar, which raises, as refinement one at a time did
        def det(energies):
            return secular_determinant(n1_step_spec, energies)

        assert np.isnan(det(np.array([5.0]))[0])
        with pytest.raises(DegenerateEnergyError):
            zero_order.brentq(det, np.array([3.0, 5.0]), np.array([4.0, 6.0]), xtol=1e-14)

    def test_nan_and_same_sign_raise_value_error(self):
        def f(xs):
            return np.where(np.asarray(xs) > 2.5, np.nan, np.asarray(xs) - 1.0)

        with pytest.raises(ValueError, match="NaN"):
            zero_order.brentq(f, np.array([0.0, 2.0]), np.array([2.0, 3.0]), xtol=1e-14)
        with pytest.raises(ValueError, match="different signs"):
            zero_order.brentq(f, np.array([0.0, 1.5]), np.array([2.0, 2.0]), xtol=1e-14)

    def test_no_convergence_with_array_brackets(self):
        def step(xs):
            return np.where(np.asarray(xs) < 0.3, -1.0, 1.0)

        with pytest.raises(RootNotConvergedError):
            zero_order.brentq(step, np.array([0.0, -1e300]), np.array([1.0, 1e300]), xtol=1e-300)

    @pytest.mark.parametrize("xtol", [1e-13, 1e-15])
    def test_known_end_values_save_two_evaluations(self, xtol):
        # the scan passes the grid's values at each cell's ends
        for spec in self.SPECS:
            calls = []

            def det(energies):
                calls.append(np.size(energies))
                return secular_determinant(spec, energies)

            a, b = _scan_brackets(spec)
            plain = zero_order.brentq(det, a, b, xtol=xtol, rtol=8.9e-16)
            evaluated = len(calls)
            ends = (secular_determinant(spec, a), secular_determinant(spec, b))
            calls.clear()
            known = zero_order.brentq(det, a, b, xtol=xtol, rtol=8.9e-16, f_ends=ends)
            assert known.tolist() == plain.tolist()
            assert len(calls) == evaluated - 2
            for ea, eb, root in zip(a, b, plain.tolist()):
                ends = (secular_determinant(spec, ea), secular_determinant(spec, eb))
                assert zero_order.brentq(det, ea, eb, xtol=xtol, rtol=8.9e-16, f_ends=ends) == root

    def test_known_end_values_are_of_f_not_f_minus_target(self):
        def g(x):
            return math.sin(x) + x

        lo, hi = np.array([0.0, 1.0]), np.array([3.0, 2.0])
        targets = np.array([2.5, 2.0])
        ends = ([g(x) for x in lo], [g(x) for x in hi])
        roots = zero_order.brentq(_per_lane(g), lo, hi, xtol=1e-14, target=targets, f_ends=ends)
        assert roots.tolist() == zero_order.brentq(_per_lane(g), lo, hi, xtol=1e-14, target=targets).tolist()

    def test_per_lane_targets(self):
        # lanes sharing one bracket refine different crossings, as a doublet
        # inside one grid cell does
        def g(x):
            return math.sin(x) + x

        lo, hi = np.array([0.0, 0.0, 1.0]), np.array([3.0, 3.0, 2.0])
        targets = np.array([1.0, 2.5, 2.0])
        roots = zero_order.brentq(_per_lane(g), lo, hi, xtol=1e-14, target=targets)
        assert roots.tolist() == [
            zero_order.brentq(lambda x, t=t: g(x) - t, a, b, xtol=1e-14)
            for a, b, t in zip(lo, hi, targets)
        ]
        assert np.allclose([g(r) for r in roots], targets, rtol=0, atol=1e-13)
        assert zero_order.brentq(g, 0.0, 3.0, xtol=1e-14, target=1.0) == roots[0]

    def test_find_eigenvalues_refines_through_brentq(self, double_well_spec, monkeypatch):
        # perfbench times refinement by wrapping zero_order.brentq; a rename
        # or a direct call would zero those metrics without a failure
        calls = []
        original = zero_order.brentq

        def counted(f, a, b, **kwargs):
            roots = original(f, a, b, **kwargs)
            calls.append(roots.tolist())
            return roots

        monkeypatch.setattr(zero_order, "brentq", counted)
        scan = find_eigenvalues(double_well_spec, 0.05, 40.0)
        # one lock-step call refines every level; spurious entries are closed-form
        assert len(calls) == 1
        assert set(scan.energies) <= set(calls[0])
        assert len(scan.energies) >= 5


class TestMatchWithoutTrigPolyEvals:
    """The boundary and overlap values match_coefficients takes from array
    kernels against TrigPoly.eval of the pieces."""

    SPECS = [PotentialSpec(*spec) for spec in TestBatchedDeterminant.SPECS.values() if len(spec[1]) > 1]

    @pytest.mark.parametrize("spec", SPECS)
    def test_boundary_values_equal_trigpoly_eval(self, spec):
        for energy in np.linspace(min(spec.heights) + 0.1, max(spec.heights) + 25.0, 97):
            for j in range(1, spec.n_interior + 1):
                try:
                    basis = build_domain_basis(spec, energy, j)
                except DegenerateEnergyError:
                    continue
                assert basis.c_at_lo == basis.c_left.eval(basis.x_lo)
                assert basis.s_at_lo == basis.s_left.eval(basis.x_lo)
                assert basis.c_at_hi == basis.c_right.eval(basis.x_hi)
                assert basis.s_at_hi == basis.s_right.eval(basis.x_hi)

    WELLS = SPECS + [spec for spec in _random_wells(seed=11, count=12) if spec.n_interior > 1]

    @pytest.mark.parametrize("spec", WELLS)
    def test_overlap_gap_equals_gap_of_domain_pieces(self, spec):
        scan = find_eigenvalues(spec, min(spec.heights) + 0.05, min(spec.heights) + 40.0)
        assert scan.energies
        for energy in scan.energies:
            state = match_coefficients(spec, energy)
            pieces = zero_order.pieces_on_overlaps(state.domain_pieces())
            assert state.overlap_gap == zero_order.overlap_gap(spec, pieces)


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _same_piece(a, b):
    if isinstance(a, TrigPoly):
        return (a.anchor, a.freq) == (b.anchor, b.freq) and all(
            np.array_equal(x, y) for x, y in ((a.cos_coeffs, b.cos_coeffs), (a.sin_coeffs, b.sin_coeffs))
        )
    return a.anchor == b.anchor and np.array_equal(a.coeffs, b.coeffs)


def _same_basis(a, b):
    fields = ("j", "anchor", "x_lo", "x_hi", "c_at_lo", "s_at_lo", "c_at_hi", "s_at_hi")
    pieces = ("c_left", "s_left", "c_right", "s_right")
    return all(getattr(a, f) == getattr(b, f) for f in fields) and all(
        _same_piece(getattr(a, f), getattr(b, f)) for f in pieces
    )


class TestOneMatchingKernel:
    """The grid, the Brent steps and the null vector share one kernel
    (zero_order._matching_block); a matched state builds its pieces only
    when they are read."""

    WELLS = [
        PotentialSpec((0.0, 1.0, 2.0), (0.0, 5.0)),
        PotentialSpec((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0)),
        PotentialSpec((0.0, PI), (0.0,)).with_fictitious_breakpoint(PI / 2),
    ] + [w for w in _random_wells(seed=23, count=8) if w.n_interior][:5]
    SERIES = PotentialSpec((0.0, 1.5, PI), (0.0, 0.0), zero_order_polys=((0.0, 2.0), (0.0, 2.0)))

    @staticmethod
    def levels(spec, **kwargs):
        floor = zero_order.reference_floor(spec)
        energies = find_eigenvalues(spec, floor + 0.05, floor + 40.0, **kwargs).energies
        assert energies
        return energies

    @pytest.mark.parametrize("spec", WELLS)
    def test_match_uses_the_kernels_matrix(self, spec):
        for energy in self.levels(spec):
            kernel = zero_order._matching_block(spec, np.array([energy]), None)[0][0]
            assert np.array_equal(kernel, _reference_matrix(spec, energy))
            assert np.array_equal(matching_matrix(spec, energy), kernel)
            assert np.linalg.det(kernel) == secular_determinant(spec, energy)
            state = match_coefficients(spec, energy)
            assert state.residual == np.max(np.abs(kernel @ state.coeffs.ravel()))

    @pytest.mark.parametrize("spec", WELLS)
    def test_lazy_bases_equal_build_domain_basis(self, spec, monkeypatch):
        for energy in self.levels(spec):
            state = match_coefficients(spec, energy)
            builds = _counting(monkeypatch, zero_order, "build_domain_basis")
            assert len(state.bases) == state.n_domains == spec.n_interior
            assert not builds
            for j, basis in enumerate(state.bases, start=1):
                assert _same_basis(basis, build_domain_basis(spec, energy, j))
            # built once
            assert [args[2] for args, _ in builds] == list(range(1, spec.n_interior + 1))
            monkeypatch.undo()

    def test_lazy_series_bases_keep_the_truncation(self):
        energy = self.levels(self.SERIES, series_m=60)[0]
        state = match_coefficients(self.SERIES, energy, series_m=60)
        for j, basis in enumerate(state.bases, start=1):
            assert len(basis.c_left.coeffs) == 71
            assert _same_basis(basis, build_domain_basis(self.SERIES, energy, j, series_m=60))

    @pytest.mark.parametrize("spec", WELLS)
    def test_closed_form_match_builds_no_trigpoly(self, spec, monkeypatch):
        energies = self.levels(spec)
        made = _counting(monkeypatch, TrigPoly, "__post_init__")
        unit = _counting(monkeypatch, zero_order, "unit_solutions")
        for energy in energies:
            del unit[:]
            state = match_coefficients(spec, energy)
            assert len(unit) == 1
            assert state.n_domains == spec.n_interior
        assert not made
        state.domain_piece(1, "left")
        assert len(made) > 4 * spec.n_interior

    def test_series_match_builds_each_basis_once(self, monkeypatch):
        spec = PotentialSpec(
            (0.0, 0.8, 1.5, 2.2, PI), (0.0, 0.0, 1.0, 0.0),
            zero_order_polys=((0.0, 2.0), (0.0, 2.0), (0.0, 2.0), (0.0, 2.0)),
        )
        energy = self.levels(spec)[0]
        builds = _counting(monkeypatch, zero_order, "series_local_basis")
        state = match_coefficients(spec, energy)
        state.domain_pieces()
        list(state.bases)
        assert sorted(args[2] for args, _ in builds) == [1, 2, 3]

    POLY_WELL = PotentialSpec(
        (0.0, 0.8, 1.5, 2.2, PI), (0.0, 0.0, 1.0, 0.0), zero_order_polys=((0.0, 2.0),) * 4
    )

    @pytest.mark.parametrize("spec", WELLS + [POLY_WELL])
    def test_overlap_gap_is_evaluated_on_first_read_only(self, spec, monkeypatch):
        energies = self.levels(spec)
        gaps = _counting(monkeypatch, zero_order, "overlap_gap")
        states = [match_coefficients(spec, energy) for energy in energies]
        assert not gaps
        for i, state in enumerate(states, start=1):
            assert state.overlap_gap == state.overlap_gap
            assert len(gaps) == i

    @pytest.mark.parametrize("spec", WELLS)
    def test_lazy_overlap_gap_keeps_the_tolerances(self, spec, monkeypatch):
        for energy in self.levels(spec):
            state = match_coefficients(spec, energy)
            trig = _counting(monkeypatch, zero_order, "trig_values")
            gap = state.overlap_gap
            assert len(trig) == 1
            monkeypatch.undo()
            pieces = zero_order.pieces_on_overlaps(state.domain_pieces())
            assert gap == zero_order.overlap_gap(spec, pieces)

    def test_lazy_series_overlap_gap_keeps_the_truncation(self, monkeypatch):
        spec = self.POLY_WELL
        for energy in self.levels(spec, series_m=60):
            state = match_coefficients(spec, energy, series_m=60)
            read = _counting(monkeypatch, zero_order, "pieces_on_overlaps")
            gap = state.overlap_gap
            assert all(len(piece.coeffs) == 71 for pair in read[0][0][0] for piece in pair)
            monkeypatch.undo()
            pieces = []
            for j, (c, d) in enumerate(state.coeffs, start=1):
                basis = build_domain_basis(spec, energy, j, series_m=60)
                pieces.append((c * basis.c_left + d * basis.s_left, c * basis.c_right + d * basis.s_right))
            assert gap == zero_order.overlap_gap(spec, zero_order.pieces_on_overlaps(pieces))

    @pytest.mark.parametrize("spec", WELLS[:2])
    def test_match_near_a_height_is_degenerate(self, spec):
        for energy in (spec.heights[1], spec.heights[1] + 0.5 * BETA_MIN**2):
            with pytest.raises(DegenerateEnergyError):
                match_coefficients(spec, energy)
            with pytest.raises(DegenerateEnergyError):
                matching_matrix(spec, energy)


class TestSeriesBackend:
    def test_constant_polys_match_closed_form(self, n1_step_spec):
        spec_series = PotentialSpec(
            n1_step_spec.breakpoints,
            n1_step_spec.heights,
            zero_order_polys=((0.0,), (0.0,)),
        )
        e = 3.7
        closed = build_domain_basis(n1_step_spec, e, 1)
        series = series_local_basis(spec_series, e, 1, 60)
        for attr in ("c_at_lo", "s_at_lo", "c_at_hi", "s_at_hi"):
            assert getattr(series, attr) == pytest.approx(
                getattr(closed, attr), rel=1e-10
            )

    def test_airy_type_solution(self):
        # V = x on (0, 1) at E = 0: the recurrence below is written out
        # independently of the library implementation
        spec = PotentialSpec(
            (0.0, 0.5, 1.0), (0.0, 0.0), zero_order_polys=((0.0, 1.0), (0.0, 1.0))
        )
        basis = series_local_basis(spec, 0.0, 1, 60)

        def oracle_series(h0, h1, t, anchor=0.5, terms=90):
            # psi'' = (anchor + s) psi around s = x - anchor
            h = [h0, h1]
            for n in range(terms):
                nxt = (anchor * h[n] + (h[n - 1] if n >= 1 else 0.0)) / (
                    (n + 2) * (n + 1)
                )
                h.append(nxt)
            return sum(c * t**k for k, c in enumerate(h))

        for x in (0.1, 0.35, 0.8, 0.95):
            side = "left" if x < 0.5 else "right"
            assert basis.piece("c", side).eval(x) == pytest.approx(
                oracle_series(1.0, 0.0, x - 0.5), rel=1e-12
            )
            assert basis.piece("s", side).eval(x) == pytest.approx(
                oracle_series(0.0, 1.0, x - 0.5), rel=1e-12
            )

    def test_airy_against_scipy(self):
        from scipy.special import airy

        spec = PotentialSpec(
            (0.0, 0.5, 1.0), (0.0, 0.0), zero_order_polys=((0.0, 1.0), (0.0, 1.0))
        )
        basis = series_local_basis(spec, 0.0, 1, 60)
        ai0, aip0, bi0, bip0 = airy(0.5)
        wr = ai0 * bip0 - aip0 * bi0
        a, b = bip0 / wr, -aip0 / wr
        for x in (0.15, 0.5, 0.85):
            aix, _, bix, _ = airy(x)
            side = "left" if x < 0.5 else "right"
            assert basis.piece("c", side).eval(x) == pytest.approx(
                a * aix + b * bix, rel=1e-12
            )

    def test_m_below_minimum_rejected(self):
        spec = PotentialSpec(
            (0.0, 0.5, 1.0), (0.0, 0.0), zero_order_polys=((0.0, 1.0), (0.0, 1.0))
        )
        with pytest.raises(TruncationError):
            series_local_basis(spec, 0.0, 1, 4)

    def test_nonconvergence_reported(self):
        # wide domain and steep polynomial: low truncation cannot converge
        spec = PotentialSpec(
            (0.0, 6.0, 12.0),
            (0.0, 0.0),
            zero_order_polys=((0.0, 0.0, 9.0), (0.0, 0.0, 9.0)),
        )
        with pytest.raises(TruncationError) as info:
            series_local_basis(spec, 1.0, 1, 14)
        assert info.value.residual is None or info.value.residual > 0

    def test_eigenvalues_with_linear_tilt(self):
        # V = 2x on (0, pi): series-backed scan against the fd oracle
        spec = PotentialSpec(
            (0.0, 1.5, PI), (0.0, 0.0), zero_order_polys=((0.0, 2.0), (0.0, 2.0))
        )
        scan = find_eigenvalues(spec, 0.5, 20.0, series_m=60)
        fd = fd_eigenvalues(spec, m=2500, count=len(scan.energies))
        for i, e in enumerate(scan.energies):
            assert abs(e - fd.values[i]) < max(fd.estimate[i], 1e-8)


def _fd_levels_match(spec, e_lo, e_hi, scan):
    """Levels of a scan against the FD oracle, a near-degenerate entry
    counting twice, each within the oracle's estimate (floored at 1e-7
    relative, where the estimate vanishes by accident)."""
    levels = sorted(list(scan.energies) + list(scan.near_degenerate))
    fd = fd_eigenvalues(spec, m=3000, count=len(levels) + 3)
    inside = (fd.values > e_lo) & (fd.values < e_hi)
    ref = fd.values[inside]
    tol = np.maximum(fd.estimate, 1e-7 * np.maximum(1.0, np.abs(fd.values)))[inside]
    assert len(levels) == len(ref), (levels, ref)
    assert np.all(np.abs(np.array(levels) - ref) <= tol), (levels, ref, tol)


class TestSturmCount:
    @given(
        st.lists(
            st.tuples(st.floats(0.05, 3.0), st.floats(0.0, 1e4)), min_size=1, max_size=9
        )
    )
    def test_count_matches_fd_levels(self, intervals):
        # N <= 8 interior steps; every window between two gap midpoints of the
        # FD spectrum must hold as many levels as the count difference says
        widths, heights = zip(*intervals)
        spec = PotentialSpec(tuple(np.concatenate([[0.0], np.cumsum(widths)])), heights)
        fd = fd_eigenvalues(spec, m=4000, count=8)
        mids, expected = [min(heights) - 1.0], [0]
        for k in range(7):
            lo, hi = fd.values[k], fd.values[k + 1]
            if hi - lo > 100 * (fd.estimate[k] + fd.estimate[k + 1]):
                mids.append(0.5 * (lo + hi))
                expected.append(k + 1)
        counts = sturm_count(spec, np.array(mids))
        for i in range(len(mids)):
            for j in range(i + 1, len(mids)):
                assert counts[j] - counts[i] == expected[j] - expected[i], (mids, counts)

    def test_monotone_across_resolvable_doublet(self):
        # splitting ~ 9e-9: sampled every 1e-9, the count steps 0 -> 1 -> 2
        spec = PotentialSpec((0.0, 1.0, 2.0, 3.0), (0.0, 400.0, 0.0))
        e1, e2 = find_eigenvalues(spec, 0.05, 12.0).energies
        energies = e1 - 5e-8 + 1e-9 * np.arange(int((e2 - e1 + 1e-7) / 1e-9))
        counts = sturm_count(spec, energies)
        assert set(np.diff(counts)) == {0, 1}
        assert counts[0] == 0 and counts[-1] == 2
        assert counts[np.searchsorted(energies, 0.5 * (e1 + e2))] == 1

    def test_tall_barrier_does_not_overflow(self):
        # kappa w = 1e4: decoupled wells of width 1, levels n^2 pi^2 in pairs
        spec = PotentialSpec((0.0, 1.0, 2.0, 3.0), (0.0, 1e8, 0.0))
        with np.errstate(over="raise", invalid="raise"):
            counts = sturm_count(spec, np.array([5.0, 20.0, 45.0, 80.0]))
        assert list(counts) == [0, 2, 4, 4]
        assert sturm_count(spec, 20.0) == 2

    def test_series_backend_counts_like_closed_form(self, double_well_spec):
        polys = ((0.0,), (0.0,), (0.0,))
        series = PotentialSpec(double_well_spec.breakpoints, double_well_spec.heights, polys)
        energies = np.linspace(0.3, 45.0, 149)
        assert np.array_equal(
            sturm_count(series, energies, series_m=60), sturm_count(double_well_spec, energies)
        )

    @pytest.mark.parametrize(
        "breakpoints, heights",
        [
            # four near-symmetric doublets and one N = 4 well of the
            # spectrum_wells benchmark (seed/index 2/9, 7/17, 9/9, 10/17,
            # 10/23) on which dip refinement and the overlap-agreement test
            # lost levels
            (
                (0.0, 1.3611770684100377, 2.208654780713683, 3.5708270845791334),
                (2.218400384286134, 42.39277005171036, 2.2192449729391783),
            ),
            (
                (0.0, 1.8175060186539356, 2.6713131746313303, 4.488800244156072),
                (4.711363294738816, 39.050488451663114, 4.711485116956138),
            ),
            (
                (0.0, 1.5158909619841725, 2.5194138288680277, 4.0344005911831795),
                (0.4620474824019749, 40.081241078877646, 0.4627886582270943),
            ),
            (
                (0.0, 1.870722551193349, 2.749924184533326, 4.6205871520181665),
                (4.244271868675684, 37.56727558743859, 4.244536360226796),
            ),
            (
                (0.0, 1.9246923845695565, 3.8486242088676548, 4.765609509495318,
                 7.606819940539094, 8.604622292041194),
                (2.9533143036411467, 8.6368702154135, 1.1838875465714993,
                 1.888231290352288, 7.4836804117884235),
            ),
        ],
    )
    def test_scan_finds_every_level(self, breakpoints, heights):
        spec = PotentialSpec(breakpoints, heights)
        floor = min(heights)
        scan = find_eigenvalues(spec, floor, floor + 40.0)
        _fd_levels_match(spec, floor, floor + 40.0, scan)


def _series_twin(spec):
    """The same potential through the power-series backend."""
    return PotentialSpec(spec.breakpoints, spec.heights, ((0.0,),) * spec.n_intervals)


class TestLevelsFromTheAngle:
    """find_eigenvalues refines the crossings of the Pruefer angle sum alone."""

    # N = 3: two overlap intervals, resonances 12 + (pi / 0.8)^2 and 3 + (pi / 0.6)^2
    N3_WELL = PotentialSpec((0.0, 0.7, 1.5, 2.1, 3.0), (0.0, 12.0, 3.0, 20.0))
    TILTED = PotentialSpec((0.0, 1.5, PI), (0.0, 0.0), zero_order_polys=((0.0, 2.0), (0.0, 2.0)))

    def test_scan_evaluates_no_determinant(self, box_spec, n1_step_spec, double_well_spec, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the scan evaluated a matching matrix")

        monkeypatch.setattr(zero_order, "secular_determinant", forbidden)
        monkeypatch.setattr(zero_order, "_matching_block", forbidden)
        for spec in (box_spec, n1_step_spec, double_well_spec, self.N3_WELL, self.TILTED):
            assert len(find_eigenvalues(spec, 0.05, 40.0, series_m=60).energies) >= 3

    @pytest.mark.parametrize("name", ["double_well", "n3"])
    def test_series_twin_has_the_same_levels_and_resonances(self, name, double_well_spec):
        spec = double_well_spec if name == "double_well" else self.N3_WELL
        closed = find_eigenvalues(spec, 0.05, 40.0)
        series = find_eigenvalues(_series_twin(spec), 0.05, 40.0)
        assert len(series.energies) == len(closed.energies) >= 5
        np.testing.assert_allclose(series.energies, closed.energies, rtol=1e-12, atol=0)
        assert len(series.spurious) == len(closed.spurious) == spec.n_interior - 1
        np.testing.assert_allclose(series.spurious, closed.spurious, rtol=1e-12, atol=0)

    def test_a_resonance_a_level_was_refined_onto_is_not_spurious(self):
        # the box (0, pi) cut in thirds: the middle third's Dirichlet levels
        # 9 m^2 are levels of the box too; lifting the last third splits them off
        bp = (0.0, PI / 3, 2 * PI / 3, PI)
        box = find_eigenvalues(PotentialSpec(bp, (0.0, 0.0, 0.0)), 0.5, 40.0)
        np.testing.assert_allclose(box.energies, [1, 4, 9, 16, 25, 36], rtol=1e-14)
        assert box.spurious == ()
        lifted = find_eigenvalues(PotentialSpec(bp, (0.0, 0.0, 1e-3)), 0.5, 40.0)
        np.testing.assert_allclose(lifted.spurious, [9, 36], rtol=1e-15)

    @pytest.mark.parametrize("barrier", [1.6e5, 1e6, 1e8])
    def test_tall_barrier_gives_the_decoupled_pairs(self, barrier):
        # kappa w >= 200 on either side of the matching point: each pair is
        # split far below double precision, and the determinant overflows
        spec = PotentialSpec((0.0, 1.0, 2.0, 3.0), (0.0, barrier, 0.0))
        scan = find_eigenvalues(spec, 0.05, 40.0)
        levels = sorted(list(scan.energies) + list(scan.near_degenerate))
        assert len(levels) == 4
        for n, pair in enumerate((levels[:2], levels[2:])):
            # a well of width 1 between a hard wall and the barrier's decaying
            # tail: its level n has k in ((n + 1/2) pi, (n + 1) pi)
            root = zero_order.brentq(
                lambda e: golden.half_open_step(e, 1.0, barrier),
                ((n + 0.5) * PI) ** 2,
                ((n + 1) * PI) ** 2,
                xtol=1e-15,
            )
            assert all(abs(e - root) <= 1e-13 * root for e in pair), (pair, root)

    def test_levels_of_the_lowest_interval_refine_in_few_steps(self, monkeypatch):
        # every level below 30 lives in the left well, where the angle sum is
        # matched and smooth; matched in the barrier it would step at each
        # level, and Brent would bisect (23 angle evaluations here)
        spec = PotentialSpec((0.0, 3.0, 4.0, 5.0), (0.0, 200.0, 30.0))
        evaluations = []
        original = zero_order.brentq

        def counted(f, a, b, **kwargs):
            return original(lambda es: evaluations.append(len(es)) or f(es), a, b, **kwargs)

        monkeypatch.setattr(zero_order, "brentq", counted)
        assert len(find_eigenvalues(spec, 0.05, 30.0).energies) == 5
        assert len(evaluations) <= 8

    def test_paths_are_built_once_per_call(self, double_well_spec, monkeypatch):
        # not once per angle evaluation: the refinement takes many steps
        shots = _counting(monkeypatch, zero_order, "_shots")
        reanchored = _counting(monkeypatch, zero_order, "_reanchored")
        steps = _counting(monkeypatch, zero_order, "_series_angle")
        assert len(find_eigenvalues(double_well_spec, 0.05, 40.0).energies) >= 5
        sturm_count(double_well_spec, np.linspace(1.0, 40.0, 5))
        assert len(shots) == 2
        assert len(find_eigenvalues(self.TILTED, 0.5, 60.0, series_m=60).energies) == 7
        assert len(shots) == 3
        # one re-expansion per leg: (0, mid) from the left, (pi, 1.5) and (1.5, mid) from the right
        assert len(reanchored) == 3
        assert len(steps) > 10

    def test_angle_is_a_function_of_the_energy(self, double_well_spec):
        # a grid call and a refinement step must read the same float at an energy
        energies = np.linspace(0.3, 45.0, 37)
        for spec, m in ((double_well_spec, None), (self.TILTED, 60)):
            half_turns = zero_order._angle_sum(spec, m)
            together = half_turns(energies)
            alone = [half_turns(energies[i : i + 1])[0] for i in range(37)]
            assert together.tolist() == alone

    def test_three_point_window_around_each_series_level(self):
        # the window of oracle.exact_perturbed_energy: the middle grid point
        # sits on the level, where the count must agree with the refinement
        levels = find_eigenvalues(self.TILTED, 0.5, 60.0, xtol=1e-14, series_m=60).energies
        assert len(levels) == 7
        for e in levels:
            window = find_eigenvalues(
                self.TILTED, e - 1e-6, e + 1e-6, scan=ScanConfig(points=3), xtol=1e-14, series_m=60
            )
            assert len(window.energies) == 1
            assert abs(window.energies[0] - e) < 1e-11 * e


def _fixed_point_crossings(spec, grid, xtol, series_m):
    """The refinement matched in the lowest interval alone, brentq evaluating
    the bracket ends itself: the reference for find_eigenvalues' matching
    point per level.  Returns the roots and the angle evaluations."""
    half_turns = zero_order._angle_sum(spec, series_m)
    calls = []

    def f(energies):
        calls.append(len(energies))
        return half_turns(energies)

    counts = np.floor(f(grid)).astype(int)
    n = np.arange(counts[0], counts[-1])
    hi = np.searchsorted(np.maximum.accumulate(counts), n, side="right")
    roots = zero_order.brentq(
        f, grid[hi - 1], grid[hi], xtol=xtol, rtol=zero_order._REFINE_RTOL, target=n + 1.0
    )
    return np.sort(roots), len(calls)


def _fixed_point_scan(spec, e_lo, e_hi, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zero_order, "_refined_crossings", _fixed_point_crossings)
        return find_eigenvalues(spec, e_lo, e_hi, **kwargs)


def _barrier_wells(seed: int, count: int) -> list[PotentialSpec]:
    """N = 1-4, heights 0-50, widths 0.3-2: levels behind barriers."""
    rng = np.random.default_rng(seed)
    wells = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        bp = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 2.0, n + 1))])
        wells.append(PotentialSpec(tuple(bp), tuple(rng.uniform(0.0, 50.0, n + 1))))
    return wells


class TestMatchingPointPerLevel:
    """A level whose angle sum steps across its grid cell is refined at
    another matching point, against the lowest interval alone."""

    @pytest.mark.parametrize(
        "spec",
        [
            PotentialSpec((0.0, PI), (0.0,)),
            PotentialSpec((0.0, 1.0, 2.0), (0.0, 5.0)),
            PotentialSpec((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0)),
            PotentialSpec((0.0, 1.0, 2.0, 3.0), (0.0, 1.6e5, 0.0)),
        ],
        ids=["box", "step", "double_well", "barrier_1.6e5"],
    )
    def test_fixture_levels_are_bit_identical(self, spec):
        scan, ref = find_eigenvalues(spec, 0.05, 40.0), _fixed_point_scan(spec, 0.05, 40.0)
        assert len(scan.energies) >= 2
        assert (scan.energies, scan.spurious, scan.near_degenerate) == (
            ref.energies, ref.spurious, ref.near_degenerate
        )
        assert scan.angle_evaluations <= ref.angle_evaluations

    def test_random_wells_agree_with_the_lowest_interval(self):
        moved = saved = 0
        for spec in _barrier_wells(seed=12, count=40):
            floor = min(spec.heights)
            scan = find_eigenvalues(spec, floor, floor + 40.0)
            ref = _fixed_point_scan(spec, floor, floor + 40.0)
            assert len(scan.energies) == len(ref.energies)
            assert scan.spurious == ref.spurious
            assert len(scan.near_degenerate) == len(ref.near_degenerate)
            for ours, theirs in ((scan.energies, ref.energies), (scan.near_degenerate, ref.near_degenerate)):
                np.testing.assert_allclose(ours, theirs, rtol=1e-14, atol=0)
            moved += sum(a != b for a, b in zip(scan.energies, ref.energies))
            saved += ref.angle_evaluations - scan.angle_evaluations
        # the wells do exercise other matching points, and save evaluations
        assert moved >= 5
        assert saved > 80

    def test_angle_evaluations_of_a_barrier_well(self):
        # N = 4 with barriers 22-47: matched in the lowest interval, Brent
        # bisects the levels of the last well and the ones behind barriers
        spec = PotentialSpec(
            (0.0, 0.4548, 2.7205, 4.4634, 6.4099, 8.9611), (6.146, 22.458, 36.366, 47.372, 12.319)
        )
        scan, ref = find_eigenvalues(spec, 6.146, 46.146), _fixed_point_scan(spec, 6.146, 46.146)
        assert len(scan.energies) == len(ref.energies) == 11
        np.testing.assert_allclose(scan.energies, ref.energies, rtol=1e-14, atol=0)
        assert (scan.angle_evaluations, ref.angle_evaluations) == (14, 55)

    @pytest.mark.parametrize("c", [0, 1, 2, 3, 4])
    def test_one_sweep_equals_each_shot_alone(self, c):
        # the shorter shot's zero-width padding keeps theta = 0 exactly
        spec = PotentialSpec(
            (0.0, 0.4548, 2.7205, 4.4634, 6.4099, 8.9611), (6.146, 22.458, 36.366, 47.372, 12.319)
        )
        energies = np.concatenate([np.linspace(-5.0, 60.0, 97), spec.heights])
        heights, widths = zero_order._trig_legs(spec, c)
        both = zero_order._trig_angle(energies, (heights, widths))
        for row, path in enumerate(zero_order._shots(spec, c)):
            legs = (heights[-len(path):, row:row + 1], widths[-len(path):, row:row + 1])
            alone = zero_order._trig_angle(energies, legs)
            assert np.array_equal(both[row], alone[0])

    def test_series_backend_shares_the_expansions(self, monkeypatch):
        # the three-point window of oracle.exact_perturbed_energy around the
        # ground state of the wider right well, matched in the left one by
        # default; each interval's range and re-expansions are built once
        spec = _series_twin(PotentialSpec((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0)))
        ranges = _counting(monkeypatch, potential, "_value_range")
        levels = find_eigenvalues(spec, 0.05, 40.0, xtol=1e-14, series_m=60).energies
        reanchored = _counting(monkeypatch, zero_order, "_reanchored")
        shots = _counting(monkeypatch, zero_order, "_shots")
        window = find_eigenvalues(
            spec, levels[0] - 0.2, levels[0] + 0.2, scan=ScanConfig(points=3), xtol=1e-14, series_m=60
        )
        assert len(window.energies) == 1
        assert abs(window.energies[0] - levels[0]) < 1e-12 * levels[0]
        # the overlap resonances' own one-interval problem aside: the two
        # wells as matching points (the barrier is no candidate), one range
        # per interval of the spec, shared by the floor and the angle sum of
        # both calls, and at most two anchors per interval, one from each side
        def of_spec(calls):
            return [args[1:] for args, _ in calls if args[0] is spec]

        assert sorted(of_spec(shots)) == [(0,), (2,)]
        assert sorted(of_spec(ranges)) == [(0,), (1,), (2,)]
        assert len(set(of_spec(reanchored))) == len(of_spec(reanchored)) <= 2 * 3


def test_matched_states_compare_by_identity(double_well_spec):
    # generated == compared the coeffs arrays through a tuple and raised
    e0 = find_eigenvalues(double_well_spec, 0.05, 40.0).energies[0]
    a, b = match_coefficients(double_well_spec, e0), match_coefficients(double_well_spec, e0)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert (a == b) is False and (a == a) is True and (a != b) is True
    assert len({a, b, a}) == 2
