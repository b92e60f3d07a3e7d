import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

from stepwell import (
    PerturbationSpec,
    PotentialSpec,
    exact_perturbed_energy,
    fd_eigenvalues,
    fd_eigenvector,
    find_eigenvalues,
    match_coefficients,
    rs_first_order,
)
from stepwell import oracle
from stepwell.oracle import (
    _cell_average,
    _interval_cells,
    _lowest_eigenvalues,
    _negative_count,
    build_grid_hamiltonian,
)
from stepwell.potential import potential_value

PI = math.pi


class TestGrid:
    def test_single_interval_is_textbook_stencil(self, box_spec):
        gh = build_grid_hamiltonian(box_spec, m=100)
        h = PI / (gh.m + 1)
        assert gh.h == pytest.approx(h)
        np.testing.assert_allclose(gh.diag, 2.0 / h**2, rtol=1e-13)
        np.testing.assert_allclose(gh.offdiag, -1.0 / h**2, rtol=1e-13)

    def test_breakpoints_land_on_nodes(self, double_well_spec):
        gh = build_grid_hamiltonian(double_well_spec, m=500)
        for b in double_well_spec.breakpoints[1:-1]:
            assert np.min(np.abs(gh.x - b)) < 1e-12

    def test_cell_average_matches_quadrature(self, double_well_spec):
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.uniform(0.0, 3.0)
            b = a + rng.uniform(0.01, 0.4)
            got = _cell_average(double_well_spec, pert, 0.7, a, b)
            want = quad(
                lambda x: potential_value(double_well_spec, x) + 0.7 * x, a, b,
                points=[1.0, 2.0], limit=100,
            )[0] / (b - a)
            assert got == pytest.approx(want, abs=1e-10)


def _per_cell_average(spec, pert, lam, a, b):
    """Average of V0 + lam V1 over one cell, its intervals left to right."""
    acc = 0.0
    for i in range(spec.n_intervals):
        lo, hi = max(a, spec.breakpoints[i]), min(b, spec.breakpoints[i + 1])
        if hi <= lo:
            continue
        acc += spec.heights[i] * (hi - lo)
        if spec.zero_order_polys is not None:
            anti = npoly.polyint(np.asarray(spec.zero_order_polys[i], dtype=float))
            acc += float(npoly.polyval(hi, anti) - npoly.polyval(lo, anti))
        if pert is not None and lam != 0.0:
            anti = npoly.polyint(np.asarray(pert.interval_polys[i], dtype=float))
            acc += lam * float(npoly.polyval(hi, anti) - npoly.polyval(lo, anti))
    return acc / (b - a)


def _per_node_grid(spec, pert, lam, m, refine):
    """Nodes, diagonal, off-diagonal and weights of the grid built node by
    node (the construction build_grid_hamiltonian vectorises), then each
    node's cell ends and cell average."""
    bp = spec.breakpoints
    cells = tuple(c * refine for c in _interval_cells(spec, m))
    xs, h_l, h_r = [], [], []
    for i, n_i in enumerate(cells):
        h_i = (bp[i + 1] - bp[i]) / n_i
        for j in range(1, n_i):
            xs.append(bp[i] + j * h_i)
            h_l.append(h_i)
            h_r.append(h_i)
        if i < len(cells) - 1:
            xs.append(bp[i + 1])
            h_l.append(h_i)
            h_r.append((bp[i + 2] - bp[i + 1]) / cells[i + 1])
    v = np.array([_per_cell_average(spec, pert, lam, x - l / 2, x + r / 2) for x, l, r in zip(xs, h_l, h_r)])
    h_l, h_r = np.array(h_l), np.array(h_r)
    mu = 0.5 * (h_l + h_r)
    diag = (1.0 / h_l + 1.0 / h_r) / mu + v
    offdiag = -1.0 / (h_r[:-1] * np.sqrt(mu[:-1] * mu[1:]))
    xs = np.array(xs)
    return (xs, diag, offdiag, mu), (xs - h_l / 2, xs + h_r / 2, v)


def _many_breakpoints(n=12, seed=5):
    rng = np.random.default_rng(seed)
    spec = PotentialSpec(
        tuple(np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.5, n))])),
        tuple(rng.uniform(-3.0, 30.0, n)),
        zero_order_polys=tuple(tuple(rng.normal(size=3)) for _ in range(n)),
    )
    return spec, PerturbationSpec(tuple(tuple(rng.normal(size=2)) for _ in range(n))), 0.37


class TestGridIsPerNodeExact:
    """build_grid_hamiltonian works interval by interval; its grid is the
    node-by-node construction's, bit for bit."""

    CASES = [
        (PotentialSpec((0.0, PI), (0.0,)), None, 0.0),
        (PotentialSpec((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0)), PerturbationSpec(((0.0, 1.0),) * 3), 0.7),
        (PotentialSpec((0.0, 0.7, 1.5, 2.1, 3.0), (0.0, 12.0, 3.0, 20.0)), None, 0.0),
        (
            PotentialSpec((0.0, 1.5, PI), (0.0, 1.0), zero_order_polys=((0.0, 2.0), (1.0, 0.0, -0.5))),
            PerturbationSpec(((0.0, 0.0, 1.0), (0.3,))),
            -0.2,
        ),
    ]
    # many breakpoints with random polynomials: at m = 4 every node is a
    # breakpoint whose cell straddles two intervals, where summation order shows
    CASES.append(_many_breakpoints())

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("m, refine", [(4, 1), (300, 1), (300, 2)])
    def test_bit_identical(self, case, m, refine):
        spec, pert, lam = self.CASES[case]
        gh = build_grid_hamiltonian(spec, pert, lam, m=m, refine=refine)
        grid, (a, b, v) = _per_node_grid(spec, pert, lam, m, refine)
        for got, want in zip((gh.x, gh.diag, gh.offdiag, gh.weights), grid):
            assert np.array_equal(got, want)
        # the diagonal's 1/h^2 term hides the last bits of the averages
        assert np.array_equal(_cell_average(spec, pert, lam, a, b), v)


class TestFdEigenvalues:
    def test_box_ground_state(self, box_spec):
        fd = fd_eigenvalues(box_spec, m=4000, count=1)
        assert abs(fd.values[0] - 1.0) < fd.estimate[0]

    def test_box_grid_convergence_orders(self, box_spec):
        # raw error O(h^2) on the analytic spectrum
        ms = [250, 500, 1000]
        raw = [abs(fd_eigenvalues(box_spec, m=m, count=1).fine[0] - 1.0) for m in ms]
        raw_slope = np.polyfit(np.log(ms), np.log(raw), 1)[0]
        assert raw_slope == pytest.approx(-2.0, abs=0.1)
        # Richardson O(h^4): only visible on coarse grids, below which the
        # eps * ||T|| ~ eps / h^2 eigensolver floor takes over
        ms = [40, 80, 160]
        rich = [abs(fd_eigenvalues(box_spec, m=m, count=1).values[0] - 1.0) for m in ms]
        rich_slope = np.polyfit(np.log(ms), np.log(rich), 1)[0]
        assert rich_slope < -3.5

    def test_constant_shift_reproduced(self, box_spec):
        pert = PerturbationSpec(((1.0,),))
        for lam in (0.2, -0.7):
            base = fd_eigenvalues(box_spec, pert, 0.0, m=2000, count=1)
            shifted = fd_eigenvalues(box_spec, pert, lam, m=2000, count=1)
            delta = shifted.values[0] - base.values[0]
            tol = base.estimate[0] + shifted.estimate[0]
            assert delta == pytest.approx(lam, abs=max(tol, 1e-10))

    def test_mutual_consistency_with_matcher(self, double_well_spec):
        scan = find_eigenvalues(double_well_spec, 0.05, 30.0)
        fd = fd_eigenvalues(double_well_spec, m=2500, count=len(scan.energies))
        for i, e in enumerate(scan.energies):
            assert abs(e - fd.values[i]) < fd.estimate[i]

    def test_estimate_covers_the_bisection_error(self, n1_step_spec):
        # the Richardson difference, but never below (4 t_fine + t_coarse) / 3,
        # the bisection tolerance t of each grid carried through extrapolation
        fd = fd_eigenvalues(n1_step_spec, m=3000, count=4)
        t_coarse, t_fine = (
            oracle._bisection_tolerance(gh.diag, gh.offdiag)
            for gh in (
                build_grid_hamiltonian(n1_step_spec, m=3000),
                build_grid_hamiltonian(n1_step_spec, m=3000, refine=2),
            )
        )
        floor = (4.0 * t_fine + t_coarse) / 3.0
        assert 1e-9 < floor < 1e-7
        assert np.array_equal(fd.estimate, np.maximum(np.abs(fd.coarse - fd.fine) / 3.0, floor))

    def test_count_clamped(self, box_spec):
        fd = fd_eigenvalues(box_spec, m=5, count=50)
        assert not fd.complete
        assert len(fd.values) <= 5


# validate's three fixtures (the cli_cold geometries) and an N = 3 well
FD_WELLS = {
    "box": PotentialSpec((0.0, PI), (0.0,)),
    "step": PotentialSpec((0.0, 1.0, 2.0), (0.0, 5.0)),
    "double_well": PotentialSpec((0.0, 1.0, 2.0, PI), (0.0, 10.0, 0.0)),
    "n3": PotentialSpec((0.0, 0.7, 1.5, 2.1, 3.0), (0.0, 12.0, 3.0, 20.0)),
}
EPS = np.finfo(float).eps


def _stebz_tolerance(gh):
    """dstebz's absolute tolerance: eps times the larger Gershgorin end."""
    radius = np.abs(np.r_[gh.offdiag, 0.0]) + np.abs(np.r_[0.0, gh.offdiag])
    return EPS * max(abs(np.min(gh.diag - radius)), abs(np.max(gh.diag + radius)))


def _plain_bisection(diag, offdiag, count):
    """_lowest_eigenvalues as plain bisection: every eigenvalue in lock-step
    from dstebz's widened Gershgorin interval, the top included."""
    off2 = offdiag * offdiag
    radius = np.abs(np.concatenate([offdiag, [0.0]])) + np.abs(np.concatenate([[0.0], offdiag]))
    gl, gu = float(np.min(diag - radius)), float(np.max(diag + radius))
    tnorm = max(abs(gl), abs(gu))
    pivmin = oracle._pivmin(off2)
    pad = oracle._FUDGE * (tnorm * EPS * len(diag) + pivmin)
    lo = np.full(count, gl - pad - oracle._FUDGE * pivmin)
    hi = np.full(count, gu + pad)
    atol = max(EPS * tnorm, pivmin)
    index = np.arange(count)
    while True:
        width = np.maximum(atol, 2.0 * EPS * np.maximum(np.abs(lo), np.abs(hi)))
        active = np.flatnonzero(hi - lo >= width)
        if not len(active):
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo[active] + hi[active])
        shifts, lane = np.unique(mid, return_inverse=True)
        above = _negative_count(diag, off2, shifts)[lane] > index[active]
        hi[active[above]] = mid[above]
        lo[active[~above]] = mid[~above]


# small integers make equal entries, exact cancellations and zero pivots likely
_ENTRIES = st.floats(-100.0, 100.0) | st.integers(-3, 3).map(float)


@st.composite
def _tridiagonal_and_shifts(draw):
    n = draw(st.integers(1, 40))
    diag = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    off = draw(st.lists(_ENTRIES | st.just(0.0), min_size=n - 1, max_size=n - 1))
    # a shift at or a few ulps off a diagonal entry makes a pivot (nearly) vanish
    near = st.tuples(st.sampled_from(diag), st.integers(-50, 50)).map(lambda p: p[0] * (1 + p[1] * EPS))
    shifts = draw(st.lists(near | st.floats(-300.0, 300.0), min_size=1, max_size=8))
    return np.array(diag), np.array(off), np.array(shifts)


class TestSturmCount:
    """The numpy Sturm count and bisection against independent references:
    dense eigvalsh, and scipy's LAPACK tridiagonal solvers (dstebz, dstein)."""

    @settings(max_examples=100)
    @given(_tridiagonal_and_shifts())
    def test_count_equals_dense_eigvalsh(self, case):
        diag, off, shifts = case
        levels = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        count = _negative_count(diag, off * off, shifts)
        # exact unless an eigenvalue lies within rounding of the shift, as a
        # diagonal entry cut off by zero off-diagonals does
        slack = 1e-10 * (np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off), initial=0.0) + np.abs(shifts))
        below = np.searchsorted(levels, shifts - slack)
        up_to = np.searchsorted(levels, shifts + slack, side="right")
        assert np.all((below <= count) & (count <= up_to)), (count, below, up_to)

    @pytest.mark.parametrize("name", ["box", "step", "double_well"])
    def test_count_never_falls_near_a_level(self, name):
        # unlike the row-by-row recurrence, odd-even elimination is not
        # monotone in the shift by construction
        gh = build_grid_hamiltonian(FD_WELLS[name], m=3000)
        levels = _lowest_eigenvalues(gh.diag, gh.offdiag, 6)
        for j in (0, 5):
            shifts = levels[j] + np.linspace(-1e-6, 1e-6, 10_001)
            counts = np.concatenate(
                [_negative_count(gh.diag, gh.offdiag**2, part) for part in np.array_split(shifts, 40)]
            )
            assert np.all(np.diff(counts) >= 0)
            assert (counts[0], counts[-1]) == (j, j + 1)

    @pytest.mark.parametrize("name", FD_WELLS)
    def test_fd_eigenvalues_match_stebz(self, name):
        from scipy.linalg import eigvalsh_tridiagonal

        fd = fd_eigenvalues(FD_WELLS[name], m=3000, count=6)
        for values, refine in ((fd.coarse, 1), (fd.fine, 2)):
            gh = build_grid_hamiltonian(FD_WELLS[name], m=3000, refine=refine)
            stebz = eigvalsh_tridiagonal(
                gh.diag, gh.offdiag, select="i", select_range=(0, 5), lapack_driver="stebz"
            )
            # both are midpoints of intervals narrower than the tolerance;
            # their counts may step a few ulps apart
            assert np.all(np.abs(values - stebz) <= _stebz_tolerance(gh) + 4.0 * EPS * np.abs(stebz))

    @pytest.mark.parametrize("name", FD_WELLS)
    @pytest.mark.parametrize("index", [0, 1])
    def test_fd_eigenvector_matches_stein(self, name, index):
        from scipy.linalg import eigh_tridiagonal

        x, psi = fd_eigenvector(FD_WELLS[name], m=20000, index=index)
        gh = build_grid_hamiltonian(FD_WELLS[name], m=20000)
        vec = eigh_tridiagonal(
            gh.diag, gh.offdiag, select="i", select_range=(index, index), lapack_driver="stebz"
        )[1][:, 0]
        ref = vec / np.sqrt(gh.weights)
        ref /= np.sqrt(np.sum(gh.weights * ref**2))
        assert np.array_equal(x, gh.x)
        assert min(np.max(np.abs(psi - ref)), np.max(np.abs(psi + ref))) < 1e-8 * np.max(np.abs(ref))

    def test_fd_eigenvector_index_within_the_grid(self, box_spec):
        with pytest.raises(ValueError, match="index"):
            fd_eigenvector(box_spec, m=10, index=10)

    @pytest.mark.parametrize("name", FD_WELLS)
    def test_row_by_row_only_inside_the_bulk(self, name, monkeypatch):
        # the growth guard sends a shift to the slow row-by-row count; the
        # halving chain is counted from its bottom up, so no trial point on
        # the way to the low end goes there
        counted = []
        row_count = oracle._row_count
        monkeypatch.setattr(
            oracle, "_row_count", lambda *args: counted.append(args[2]) or row_count(*args)
        )
        fd_eigenvalues(FD_WELLS[name], m=3000, count=6)
        assert not counted

    BISECTION_WELLS = [*FD_WELLS.values()] + [
        PotentialSpec(
            tuple(np.cumsum(np.r_[0.0, rng.uniform(0.2, 1.5, n)])), tuple(rng.uniform(0.0, 30.0, n))
        )
        for rng, n in ((np.random.default_rng(41), 3), (np.random.default_rng(42), 5))
    ]

    @pytest.mark.parametrize("spec", BISECTION_WELLS)
    def test_lowest_eigenvalues_equal_plain_bisection(self, spec):
        # starting at the bottom of the halving chain visits the midpoints
        # that bisection from the Gershgorin top visits
        pert = PerturbationSpec(tuple((0.0, 0.8) for _ in spec.heights))
        for lam, refine, count in ((0.0, 1, 6), (0.3, 2, 4), (0.0, 2, 1)):
            gh = build_grid_hamiltonian(spec, pert, lam, m=3000, refine=refine)
            got = _lowest_eigenvalues(gh.diag, gh.offdiag, count)
            want = _plain_bisection(gh.diag, gh.offdiag, count)
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]


class TestFirstOrderIntegral:
    def test_constant_gives_constant(self, box_spec):
        aug = box_spec.with_fictitious_breakpoint(PI / 2)
        state = match_coefficients(aug, 1.0)
        pert = PerturbationSpec(((0.7,), (0.7,)))
        assert rs_first_order(state, pert) == pytest.approx(0.7, abs=1e-10)

    def test_linear_on_box_is_half_pi(self, box_spec):
        # (2/pi) int x sin^2 x dx over (0, pi) = pi / 2
        aug = box_spec.with_fictitious_breakpoint(PI / 2)
        state = match_coefficients(aug, 1.0)
        pert = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
        assert rs_first_order(state, pert) == pytest.approx(PI / 2, abs=1e-10)


class TestFdRsSeries:
    def test_box_linear_tilt(self, box_spec):
        # E1 = <x> = pi / 2; x - pi/2 is odd about the middle, so every odd
        # order from the third on vanishes
        pert = PerturbationSpec(((0.0, 1.0),))
        values, estimate = oracle.fd_rs_series(box_spec, pert, 6)
        assert values[0] == pytest.approx(1.0, rel=1e-10)
        assert values[1] == pytest.approx(PI / 2, rel=1e-12)
        assert abs(values[3]) < 1e-12 and abs(values[5]) < 1e-12
        nonzero = [0, 1, 2, 4, 6]
        assert np.all(estimate[nonzero] < 1e-9 * np.abs(values[nonzero]))

    def test_sums_to_the_tilted_grid_level(self, double_well_spec):
        # the partial sum well inside the radius against bisection on the
        # grid of V0 + lam V1, a route that shares only the grid
        pert = PerturbationSpec(((0.0, 1.0),) * 3)
        values, _ = oracle.fd_rs_series(double_well_spec, pert, 12, index=1)
        for lam in (0.05, -0.1):
            fd = fd_eigenvalues(double_well_spec, pert, lam, m=3000, count=2)
            partial = np.polyval(values[::-1], lam)
            assert abs(partial - fd.values[1]) < fd.estimate[1]


class TestExactPerturbedEnergy:
    def test_resonance_in_bracket_keeps_the_level(self):
        # guess +- 5 % holds the level and the Dirichlet resonance of the
        # interval (1.18, 2.62) near 11.53: the determinant's two sign changes
        # cancel, and a sign-change bracket widened to the level below
        spec = PotentialSpec(
            (0.0, 0.3518005004958605, 1.1751805560501503, 2.621187262326551,
             4.105036321041169),
            (42.92652892054752, 3.908022772589886, 6.8300682196743345, 39.86124233275844),
        )
        pert = PerturbationSpec(tuple((0.0, -0.9657177561067429) for _ in range(4)))
        energy = exact_perturbed_energy(spec, pert, 0.01, 11.440968901466423)
        fd = fd_eigenvalues(spec, pert, 0.01, m=3000, count=2)
        assert abs(energy - fd.values[1]) < fd.estimate[1]

    @pytest.mark.parametrize("n", [140, 150])
    def test_guess_past_2e4_is_searched(self, n):
        # the box (0, pi) with V1 = x: E_n(lam) = n^2 + lam pi / 2 + O(lam^2),
        # the second-order term 1e-6 lam^2 for n = 150; the first window,
        # 0.05 |guess| wide, once exceeded the 1e3 cap for |guess| > 2e4, so
        # level 150 raised SolverError without a single search
        spec = PotentialSpec((0.0, math.pi), (0.0,))
        pert = PerturbationSpec(((0.0, 1.0),))
        energy = exact_perturbed_energy(spec, pert, 1e-3, float(n * n))
        assert abs(energy - (n * n + 1e-3 * math.pi / 2)) < 1e-9 * n * n
