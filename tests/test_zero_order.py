import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
    fd_eigenvector,
    find_eigenvalues,
    local_frequency,
    match_coefficients,
    matching_matrix,
    run_series,
    secular_determinant,
    sturm_count,
)
from stepwell import zero_order
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

    @pytest.mark.parametrize("n_interior", [0, 1])
    def test_polynomial_spec_shares_the_path(self, n1_step_spec, monkeypatch, n_interior):
        # extrapolated boundary values go through the same kernel, energy by
        # energy: the array form, in blocks of any size, is the scalar form
        if n_interior:
            spec = PotentialSpec(n1_step_spec.breakpoints, n1_step_spec.heights, ((0.0, 0.2),) * 2)
        else:
            spec = PotentialSpec((0.0, 2.0), (0.0,), ((0.0, 0.0, 1.5),))
        # the energies take from four to six staircases
        energies = np.linspace(1.0, 60.0, 23)
        scalar = [secular_determinant(spec, e) for e in energies]
        assert np.array_equal(secular_determinant(spec, energies), scalar)
        monkeypatch.setattr(zero_order, "_STAIRCASE_BLOCK", 5)
        assert np.array_equal(secular_determinant(spec, energies), scalar)
        if n_interior:
            for e, det in zip(energies, scalar):
                assert np.linalg.det(matching_matrix(spec, e)) == det

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
            assert state.overlap_gap == zero_order.overlap_gap(spec, state.domain_pieces())


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

    @staticmethod
    def levels(spec, **kwargs):
        floor = zero_order.reference_floor(spec)
        energies = find_eigenvalues(spec, floor + 0.05, floor + 40.0, **kwargs).energies
        assert energies
        return energies

    @pytest.mark.parametrize("spec", WELLS)
    def test_match_uses_the_kernels_matrix(self, spec):
        for energy in self.levels(spec):
            kernel = zero_order._matching_block(spec, np.array([energy]))[0][0]
            assert np.array_equal(kernel, _reference_matrix(spec, energy))
            assert np.array_equal(matching_matrix(spec, energy), kernel)
            assert np.linalg.det(kernel) == secular_determinant(spec, energy)
            state = match_coefficients(spec, energy)
            assert state.residual == np.max(np.abs(kernel @ state.coeffs.ravel()))

    @pytest.mark.parametrize("spec", WELLS)
    def test_residual_bound_implies_the_determinant_bound(self, spec):
        # the 2N rows have unit length, so |det| <= sqrt(e) sigma_min <=
        # sqrt(e 2N) residual: match_coefficients tests no determinant.
        # Checked near each level, where both are well above rounding.
        for energy in self.levels(spec):
            for shift in (-1e-3, 1e-6, 1e-3):
                a = matching_matrix(spec, energy + shift)
                residual = np.max(np.abs(a @ np.linalg.svd(a)[2][-1]))
                bound = math.sqrt(math.e * 2 * spec.n_interior) * residual
                assert abs(np.linalg.det(a)) <= bound

    @pytest.mark.parametrize("spec", WELLS)
    def test_match_between_levels_fails_on_its_residual(self, spec):
        levels = np.array(self.levels(spec))
        for energy in 0.5 * (levels[:-1] + levels[1:]):
            with pytest.raises(NotARootError, match="matching residual"):
                match_coefficients(spec, energy)

    def test_determinant_masks_say_what_a_scalar_call_raises(self):
        spec = PotentialSpec((0.0, 1.0, 2.0, 3.0), (0.0, 1.6e5, 0.0))
        energies = np.array([9.85, 1.6e5, 1.6e5 + 10.0])
        dets, degenerate, overflow = zero_order._determinants(spec, energies)
        assert degenerate.any(axis=1).tolist() == [False, True, False]
        assert overflow.any(axis=1).tolist() == [True, False, False]
        with pytest.raises(NonFiniteDeterminantError, match="interval 1 "):
            secular_determinant(spec, energies[0])
        with pytest.raises(DegenerateEnergyError):
            secular_determinant(spec, energies[1])
        assert secular_determinant(spec, energies[2]) == dets[2]
        with pytest.raises(NonFiniteDeterminantError, match="interval 1 "):
            secular_determinant(spec, energies)

    @pytest.mark.parametrize("spec", WELLS)
    def test_lazy_bases_equal_build_domain_basis(self, spec, monkeypatch):
        for energy in self.levels(spec):
            state = match_coefficients(spec, energy)
            builds = _counting(monkeypatch, zero_order, "build_domain_basis")
            assert len(state.bases) == state.n_domains == spec.n_interior
            for j, basis in enumerate(state.bases, start=1):
                assert _same_basis(basis, build_domain_basis(spec, energy, j))
            # built once
            assert [args[2] for args, _ in builds] == list(range(1, spec.n_interior + 1))
            monkeypatch.undo()

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

    def test_polynomial_state_has_no_pieces(self):
        # a polynomial zero order is matched on extrapolated values; it has
        # no closed-form pieces, and everything that reads them says so
        spec = PotentialSpec(
            (0.0, 0.8, 1.5, 2.2, PI), (0.0, 0.0, 1.0, 0.0), zero_order_polys=((0.0, 2.0),) * 4
        )
        state = match_coefficients(spec, self.levels(spec)[0])
        assert state.residual <= 1e-12
        for read in (lambda: state.bases, lambda: state.overlap_gap, lambda: state.eval(1.0)):
            with pytest.raises(SchemaError, match="no closed-form domain pieces"):
                read()
        with pytest.raises(SchemaError, match="no closed-form domain pieces"):
            build_domain_basis(spec, state.energy, 1)

    @pytest.mark.parametrize("spec", WELLS)
    def test_overlap_gap_is_evaluated_on_first_read_only(self, spec, monkeypatch):
        energies = self.levels(spec)
        gaps = _counting(monkeypatch, zero_order, "overlap_gap")
        states = [match_coefficients(spec, energy) for energy in energies]
        assert not gaps
        for i, state in enumerate(states, start=1):
            assert state.overlap_gap == state.overlap_gap
            assert len(gaps) == i

    @pytest.mark.parametrize("spec", WELLS[:2])
    def test_match_near_a_height_is_degenerate(self, spec):
        for energy in (spec.heights[1], spec.heights[1] + 0.5 * BETA_MIN**2):
            with pytest.raises(DegenerateEnergyError):
                match_coefficients(spec, energy)
            with pytest.raises(DegenerateEnergyError):
                matching_matrix(spec, energy)


# the tilted well V = 2x on (0, pi): its levels are the roots of
# Ai(z0) Bi(z1) - Ai(z1) Bi(z0) with z = 2^(1/3) (x - E/2) at x = 0 and pi,
# found with mpmath at 40 digits
TILTED = PotentialSpec((0.0, 1.5, PI), (0.0, 0.0), zero_order_polys=((0.0, 2.0), (0.0, 2.0)))
TILTED_AIRY = [
    3.7422529532612556769,
    7.2420238793473071278,
    12.216437193404589305,
    19.188068759476154375,
    28.17249891350020604,
    39.1634805840238985,
    52.157860377343491942,
]


class TestStaircases:
    """A polynomial zero order is solved on piecewise-constant staircases
    and Richardson-extrapolated in h^2."""

    def test_constant_polys_match_closed_form(self, n1_step_spec):
        spec = PotentialSpec(
            n1_step_spec.breakpoints, n1_step_spec.heights, zero_order_polys=((0.0,), (0.0,))
        )
        # below and above the step
        for e in (3.7, 9.0):
            np.testing.assert_allclose(
                matching_matrix(spec, e), matching_matrix(n1_step_spec, e), rtol=1e-12, atol=1e-15
            )
        energies = np.array([3.7, 9.0])
        np.testing.assert_allclose(
            secular_determinant(spec, energies), secular_determinant(n1_step_spec, energies), rtol=1e-12
        )

    def test_matching_values_against_airy(self):
        from scipy.special import airy

        # V = x on (0, 1) at E = 0: psi'' = x psi, so the solutions with
        # (value, slope) = (1, 0) and (0, 1) at the anchor 0.5 are
        # combinations of Ai and Bi
        spec = PotentialSpec((0.0, 0.5, 1.0), (0.0, 0.0), zero_order_polys=((0.0, 1.0), (0.0, 1.0)))
        c, s = zero_order._staircase_values(spec, np.array([0.0]))
        ai, aip, bi, bip = airy(0.5)
        wr = ai * bip - aip * bi

        def solution(value, slope, x):
            a, b = (value * bip - slope * bi) / wr, (slope * ai - value * aip) / wr
            ax, _, bx, _ = airy(x)
            return a * ax + b * bx

        for got, (value, slope) in ((c[0], (1.0, 0.0)), (s[0], (0.0, 1.0))):
            np.testing.assert_allclose(got, [solution(value, slope, x) for x in (0.0, 1.0)], rtol=1e-12)

    def test_past_the_cell_cap_raises(self, monkeypatch):
        # the tilted well converges at 512 cells; a cap of 300 lets the
        # cells double once, and then the spread is still too wide
        monkeypatch.setattr(zero_order, "STAIRCASE_CELLS_MAX", 300)
        with pytest.raises(TruncationError, match="within 300 cells"):
            find_eigenvalues(TILTED, 0.5, 60.0)
        monkeypatch.setattr(zero_order, "STAIRCASE_CELLS_MAX", 8)
        with pytest.raises(TruncationError, match="within 8 cells"):
            secular_determinant(TILTED, 5.0)

    def test_eigenvalues_with_linear_tilt(self):
        # V = 2x on (0, pi): the extrapolated levels against the fd oracle
        scan = find_eigenvalues(TILTED, 0.5, 20.0)
        fd = fd_eigenvalues(TILTED, m=2500, count=len(scan.energies))
        for i, e in enumerate(scan.energies):
            assert abs(e - fd.values[i]) < max(fd.estimate[i], 1e-8)

    def test_tilted_levels_against_airy(self):
        levels = find_eigenvalues(TILTED, 0.5, 60.0).energies
        np.testing.assert_allclose(levels, TILTED_AIRY, rtol=1e-14, atol=0)
        # and within 1e-13 of the levels the power-series backend gave
        series = [
            3.7422529532612554, 7.2420238793473066, 12.216437193404579, 19.188068759476153,
            28.17249891350044, 39.16348058402423, 52.157860377339105,
        ]
        np.testing.assert_allclose(levels, series, rtol=1e-13, atol=0)

    def test_staircase_errors_fall_as_h_squared(self):
        # the premise of the extrapolation: halving every cell divides the
        # raw level error by 4 (the largest over the levels; one level's h^2
        # coefficient happens to vanish), and three Richardson steps over
        # the same four staircases remove all but about 1e-13
        raw = np.array([
            find_eigenvalues(zero_order._staircase(TILTED, [n, n]), 0.5, 60.0).energies
            for n in (16, 32, 64, 128)
        ])
        worst = np.max(np.abs(raw - TILTED_AIRY), axis=1)
        assert np.all((3.9 < worst[:-1] / worst[1:]) & (worst[:-1] / worst[1:] < 4.1)), worst
        extrapolated, _ = zero_order._richardson(raw)
        np.testing.assert_allclose(extrapolated, TILTED_AIRY, rtol=1e-12, atol=0)

    def test_count_on_the_finest_staircase(self):
        # between the levels the count is exact; near one it is the
        # staircase's, whose levels sit within its h^2 error
        levels = np.array(find_eigenvalues(TILTED, 0.5, 60.0).energies)
        between = np.concatenate([[0.5], 0.5 * (levels[1:] + levels[:-1]), [60.0]])
        assert sturm_count(TILTED, between).tolist() == list(range(8))
        finest = zero_order._staircase(TILTED, 8 * zero_order._base_cells(TILTED))
        assert np.array_equal(sturm_count(TILTED, levels), sturm_count(finest, levels))

    def test_spurious_are_the_overlap_intervals_levels(self):
        # N = 3 with V = x throughout: the Dirichlet levels of the two
        # overlap intervals, each solved as its own polynomial problem;
        # none of the staircase's many cells adds one
        spec = PotentialSpec((0.0, 0.7, 1.5, 2.1, 3.0), (0.0, 12.0, 3.0, 20.0), ((0.0, 1.0),) * 4)
        scan = find_eigenvalues(spec, 0.05, 60.0)
        assert len(scan.energies) == 6
        own = []
        for j in (1, 2):
            interval = PotentialSpec(spec.breakpoints[j : j + 2], (spec.heights[j],), ((0.0, 1.0),))
            own += find_eigenvalues(interval, 0.05, 60.0).energies
        assert scan.spurious == tuple(sorted(own))
        # each is H_j + (pi / w_j)^2 shifted by about the mean of V = x there
        shifted = [12 + (PI / 0.8) ** 2 + 1.1, 3 + (PI / 0.6) ** 2 + 1.8]
        np.testing.assert_allclose(scan.spurious, shifted, rtol=1e-3)

    @pytest.mark.parametrize("n", [0, 1])
    def test_determinant_changes_sign_at_each_level(self, n):
        # the extrapolated boundary values put the determinant's zeros on the
        # extrapolated levels: a plain box with V = x^2, and the tilted well
        spec = TILTED if n else PotentialSpec((0.0, PI), (0.0,), ((0.0, 0.0, 1.0),))
        levels = np.array(find_eigenvalues(spec, 0.5, 40.0).energies)
        assert len(levels) >= 5
        below, above = secular_determinant(spec, levels - 1e-9), secular_determinant(spec, levels + 1e-9)
        assert np.all(below * above < 0)

    def test_coefficients_against_fd_eigenvector(self):
        # c(j) = psi(L_j) up to one factor per state
        spec = PotentialSpec(
            (0.0, 0.8, 1.5, 2.2, PI), (0.0, 0.0, 1.0, 0.0), zero_order_polys=((0.0, 2.0),) * 4
        )
        levels = find_eigenvalues(spec, 0.05, 40.0).energies
        for index in range(3):
            state = match_coefficients(spec, levels[index])
            x, psi = fd_eigenvector(spec, m=20000, index=index)
            at_breakpoints = psi[np.searchsorted(x, spec.breakpoints[1:-1])]
            ratio = state.coeffs[:, 0] / at_breakpoints
            np.testing.assert_allclose(ratio, ratio[0], rtol=1e-6)

    @settings(max_examples=15)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.3, 1.5),
                st.floats(0.0, 20.0),
                st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_levels_agree_with_fd(self, intervals):
        # N <= 3, degree <= 2: FD reads exact cell averages of the
        # polynomials and shares no code with the staircases
        widths, heights, polys = zip(*intervals)
        spec = PotentialSpec(tuple(np.concatenate([[0.0], np.cumsum(widths)])), heights, polys)
        floor = zero_order.reference_floor(spec)
        scan = find_eigenvalues(spec, floor, floor + 30.0)
        _fd_levels_match(spec, floor, floor + 30.0, scan)


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
            sturm_count(series, energies), sturm_count(double_well_spec, energies)
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

    def test_scan_evaluates_no_determinant(self, box_spec, n1_step_spec, double_well_spec, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the scan evaluated a matching matrix")

        monkeypatch.setattr(zero_order, "secular_determinant", forbidden)
        monkeypatch.setattr(zero_order, "_matching_block", forbidden)
        for spec in (box_spec, n1_step_spec, double_well_spec, self.N3_WELL, TILTED):
            assert len(find_eigenvalues(spec, 0.05, 40.0).energies) >= 3

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
        assert len(find_eigenvalues(double_well_spec, 0.05, 40.0).energies) >= 5
        sturm_count(double_well_spec, np.linspace(1.0, 40.0, 5))
        assert len(shots) == 2
        # once per staircase and matching point
        del shots[:]
        assert len(find_eigenvalues(TILTED, 0.5, 60.0).energies) == 7
        built = [(id(args[0]), args[1]) for args, _ in shots]
        assert len(set(built)) == len(built) >= 5

    def test_angle_is_a_function_of_the_energy(self, double_well_spec):
        # a grid call and a refinement step must read the same float at an energy
        energies = np.linspace(0.3, 45.0, 37)
        finest = zero_order._staircase(TILTED, 8 * zero_order._base_cells(TILTED))
        for spec in (double_well_spec, finest):
            half_turns = zero_order._angle_sum(spec)
            together = half_turns(energies)
            alone = [half_turns(energies[i : i + 1])[0] for i in range(37)]
            assert together.tolist() == alone

    def test_three_point_window_around_each_series_level(self):
        # the window of oracle.exact_perturbed_energy: the middle grid point
        # sits on the level, where the count must agree with the refinement
        levels = find_eigenvalues(TILTED, 0.5, 60.0, xtol=1e-14).energies
        assert len(levels) == 7
        for e in levels:
            window = find_eigenvalues(
                TILTED, e - 1e-6, e + 1e-6, scan=ScanConfig(points=3), xtol=1e-14
            )
            assert len(window.energies) == 1
            assert abs(window.energies[0] - e) < 1e-11 * e

    def test_series_levels_of_the_harmonic_box(self):
        # V = 8 x^2 on (0, 6): the oscillator 2 sqrt(2) (2n + 1) with only its
        # odd states, since psi(0) = 0, while the wall at 6 sits far out in
        # the tail of every level below 60
        box = PotentialSpec((0.0, 6.0), (0.0,), ((0.0, 0.0, 8.0),))
        levels = find_eigenvalues(box, 0.1, 60.0).energies
        if len(levels) != 5:
            pytest.fail(f"expected 5 levels below 60, got {len(levels)}")
        exact = 2 * math.sqrt(2) * (4 * np.arange(5) + 3)
        np.testing.assert_allclose(levels, exact, rtol=0, atol=1e-9)


def _fixed_point_crossings(spec, grid, xtol, points=None):
    """The refinement matched in the lowest interval alone, brentq evaluating
    the bracket ends itself: the reference for find_eigenvalues' matching
    point per level.  Returns the roots, the angle evaluations and the
    first level's index."""
    half_turns = zero_order._angle_sum(spec)
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
    return np.sort(roots), len(calls), int(counts[0])


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
        assert (scan.angle_evaluations, ref.angle_evaluations) == (8, 55)

    def test_one_brentq_call_refines_every_matching_point(self, monkeypatch):
        # the levels of the barrier well above use several matching points;
        # one lock-step brentq call refines them all, its f called with one
        # matching point per bracket
        spec = PotentialSpec(
            (0.0, 0.4548, 2.7205, 4.4634, 6.4099, 8.9611), (6.146, 22.458, 36.366, 47.372, 12.319)
        )
        refines = _counting(monkeypatch, zero_order, "brentq")
        points = []
        angle_sum = zero_order._angle_sum

        def recorded(of):
            half_turns = angle_sum(of)
            if of is not spec:
                return half_turns
            return lambda energies, *c: points.append(c) or half_turns(energies, *c)

        monkeypatch.setattr(zero_order, "_angle_sum", recorded)
        scan = find_eigenvalues(spec, 6.146, 46.146)
        assert len(scan.energies) == 11
        assert len(refines) == 1
        assert len(refines[0][0][1]) == 11
        # the grid, the other intervals at the steep cells' ends, the steps
        assert points[0] == () and len(points) == scan.angle_evaluations
        steps = [np.asarray(c[0]).tolist() for c in points[2:]]
        assert len(set(steps[0])) >= 2
        assert all(c == steps[0] and len(c) == 11 for c in steps)

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


def test_matched_states_compare_by_identity(double_well_spec):
    # generated == compared the coeffs arrays through a tuple and raised
    e0 = find_eigenvalues(double_well_spec, 0.05, 40.0).energies[0]
    a, b = match_coefficients(double_well_spec, e0), match_coefficients(double_well_spec, e0)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert (a == b) is False and (a == a) is True and (a != b) is True
    assert len({a, b, a}) == 2
