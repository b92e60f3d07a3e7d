import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

from stepwell import (
    PerturbationSpec,
    PotentialSpec,
    exact_perturbed_energy,
    fd_eigenvalues,
    find_eigenvalues,
    match_coefficients,
    rs_first_order,
)
from stepwell.oracle import _cell_average, _interval_cells, build_grid_hamiltonian
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

    def test_count_clamped(self, box_spec):
        fd = fd_eigenvalues(box_spec, m=5, count=50)
        assert not fd.complete
        assert len(fd.values) <= 5


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
