import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stepwell import (
    DegenerateEnergyError,
    NonFiniteDeterminantError,
    NormalizationObstructionError,
    NotARootError,
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
    secular_determinant,
    series_local_basis,
)
from stepwell import zero_order

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

    def test_normalization_obstruction_detected(self):
        # sin x has psi + psi' = 0 at 3 pi / 4; anchoring there blocks the
        # order-k rescaling and must raise
        spec = PotentialSpec((0.0, 3 * PI / 4, PI), (0.0, 0.0))
        with pytest.raises(NormalizationObstructionError):
            match_coefficients(spec, 1.0)


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


def _scalar_reference(spec, energy):
    """Row-normalized determinant rebuilt from build_domain_basis at one
    energy (the wall-to-wall sine value for a plain box); NaN when the
    energy is degenerate with a height."""
    try:
        if spec.n_interior == 0:
            beta = local_frequency(spec, 0, energy)
            return TrigPoly.sine_unit_slope(spec.x_min, beta).eval(spec.x_max)
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
    except DegenerateEnergyError:
        return np.nan
    return float(np.linalg.det(a / np.linalg.norm(a, axis=1)[:, None]))


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
        # itself (kappa w = 1000); neither may come back as an empty result
        # or a zero determinant at every grid point
        spec = PotentialSpec((0.0, 1.0, 2.0, 3.0), (0.0, barrier, 0.0))
        with pytest.raises(NonFiniteDeterminantError, match="interval 1"):
            find_eigenvalues(spec, 0.05, 40.0)
        with pytest.raises(NonFiniteDeterminantError, match="E = 5.0"):
            secular_determinant(spec, 5.0)


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
