import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stepwell import (
    BandedOperator,
    DegenerateFrequencyError,
    FrequencyMismatchError,
    PotentialSpec,
    TrigPoly,
    apply_hamiltonian,
    local_frequency,
    mul_polynomial,
    particular_solution,
)
from stepwell.config import BETA_MIN
from stepwell.perturbation import _with_initial_data
from stepwell.trigbasis import (
    SIGMA,
    coeff_vector,
    derivative,
    from_coeff_vector,
    reanchor_poly,
)

RNG = np.random.default_rng(1234)
BETAS = [float(b) for b in RNG.uniform(0.5, 3.0, 10)] + [
    1j * float(b) for b in RNG.uniform(0.5, 3.0, 10)
]


def sample_points(n=100, lo=-1.5, hi=2.0):
    return np.linspace(lo, hi, n)


def assert_pointwise_close(f, g, rtol=1e-12, points=None):
    xs = sample_points() if points is None else points
    fv = f.value(xs)
    gv = g.value(xs) if hasattr(g, "value") else g(xs)
    scale = np.max(np.abs(gv)) + 1e-300
    assert np.max(np.abs(fv - gv)) <= rtol * max(scale, 1.0)


def monomial(beta, k, kind):
    p = np.zeros(k + 1)
    q = np.zeros(k + 1)
    if kind == "cos":
        p[k] = 1.0
    else:
        q[k] = 1.0
    return TrigPoly(0.0, beta, p, q)


def operator_identities(beta):
    """The closed-form images of low-degree monomials under the shifted operator.

    Sine family as listed for the operator, cosine family by the
    quarter-period rotation symmetry (cos -> -sin, sin -> cos).
    """
    b = beta
    ids = []
    # H[x cos] = 2b sin
    ids.append((monomial(b, 1, "cos"), TrigPoly(0.0, b, [0.0], [2 * b])))
    # H[b x^2 cos - x sin] = 4 b^2 x sin
    ids.append(
        (
            TrigPoly(0.0, b, [0, 0, b], [0, -1.0]),
            TrigPoly(0.0, b, [0, 0], [0, 4 * b * b]),
        )
    )
    # H[2 b^2 x^3 cos - 3 b x^2 sin - 3 x cos] = 12 b^3 x^2 sin
    ids.append(
        (
            TrigPoly(0.0, b, [0, -3.0, 0, 2 * b * b], [0, 0, -3 * b]),
            TrigPoly(0.0, b, [0.0], [0, 0, 12 * b**3]),
        )
    )
    # H[b^3 x^4 cos - 2 b^2 x^3 sin - 3 b x^2 cos + 3 x sin] = 8 b^4 x^3 sin
    ids.append(
        (
            TrigPoly(0.0, b, [0, 0, -3 * b, 0, b**3], [0, 3.0, 0, -2 * b * b]),
            TrigPoly(0.0, b, [0.0], [0, 0, 0, 8 * b**4]),
        )
    )
    # cosine family via the rotation
    ids.append((monomial(b, 1, "sin"), TrigPoly(0.0, b, [-2 * b], [0.0])))
    ids.append(
        (
            TrigPoly(0.0, b, [0, 1.0], [0, 0, b]),
            TrigPoly(0.0, b, [0, -4 * b * b], [0.0]),
        )
    )
    ids.append(
        (
            TrigPoly(0.0, b, [0, 0, 3 * b], [0, -3.0, 0, 2 * b * b]),
            TrigPoly(0.0, b, [0, 0, -12 * b**3], [0.0]),
        )
    )
    ids.append(
        (
            TrigPoly(0.0, b, [0, 3.0, 0, -2 * b * b], [0, 0, 3 * b, 0, -(b**3)]),
            TrigPoly(0.0, b, [0, 0, 0, 8 * b**4], [0.0]),
        )
    )
    return ids


@pytest.mark.parametrize("beta", BETAS)
def test_operator_identities(beta):
    for f, expected in operator_identities(beta):
        hf = apply_hamiltonian(f, -beta * beta)
        assert_pointwise_close(hf, expected, rtol=1e-12)


def test_kernel_annihilated_exactly():
    for beta in (1.3, 2.0, 0.7j):
        for kind in ("cos", "sin"):
            out = apply_hamiltonian(monomial(beta, 0, kind), -beta * beta)
            assert np.all(out.cos_coeffs == 0)
            assert np.all(out.sin_coeffs == 0)


def test_degree_drops_by_one_on_monomials():
    for k in range(1, 6):
        out = apply_hamiltonian(monomial(1.7, k, "cos"), -1.7**2)
        assert out.degree == k - 1


def test_offset_mismatch_rejected():
    f = monomial(2.0, 1, "cos")
    with pytest.raises(FrequencyMismatchError):
        apply_hamiltonian(f, -3.9)


def test_degenerate_frequency_rejected():
    with pytest.raises(DegenerateFrequencyError):
        TrigPoly(0.0, 1e-12, [1.0], [0.0])
    with pytest.raises(DegenerateFrequencyError):
        BandedOperator(0.0, 5)


def test_particular_solution_of_sine_is_half_x_cos():
    u = particular_solution(TrigPoly(0.0, 1.0, [0.0], [1.0]))
    np.testing.assert_allclose(u.cos_coeffs, [0.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(u.sin_coeffs, [0.0, 0.0], atol=1e-15)


def test_particular_solution_of_zero_is_zero():
    u = particular_solution(TrigPoly.zero(0.0, 1.2))
    assert u.is_zero(atol=0.0)


def test_particular_solution_x_sin_closed_form():
    # rhs = x sin(bx) -> (b x^2 cos - x sin) / (4 b^2), checked by round trip
    # and against the closed form
    b = 1.5
    rhs = TrigPoly(0.0, b, [0.0], [0.0, 1.0])
    u = particular_solution(rhs)
    expected = TrigPoly(0.0, b, [0, 0, b / (4 * b * b)], [0, -1.0 / (4 * b * b)])
    assert_pointwise_close(u, expected, rtol=1e-14)
    assert_pointwise_close(apply_hamiltonian(u, -b * b), rhs, rtol=1e-13)


def trig_polys(max_degree=6):
    reals = st.floats(-2.0, 2.0, allow_nan=False)

    @st.composite
    def build(draw):
        hyperbolic = draw(st.booleans())
        mag = draw(st.floats(0.5, 3.0))
        beta = 1j * mag if hyperbolic else mag
        deg = draw(st.integers(0, max_degree))
        p = np.array([draw(reals) for _ in range(deg + 1)])
        q = np.array([draw(reals) for _ in range(deg + 1)])
        if hyperbolic:
            q = 1j * q  # keeps values real for purely imaginary frequency
        return TrigPoly(0.0, beta, p, q)

    return build()


@given(trig_polys())
def test_roundtrip_particular_then_apply(f):
    u = particular_solution(f)
    back = apply_hamiltonian(u, -f.freq * f.freq)
    xs = sample_points(100)
    fv = f.value(xs)
    bv = back.value(xs)
    scale = max(1.0, float(np.max(np.abs(fv))))
    assert np.max(np.abs(bv - fv)) <= 1e-10 * scale


@given(trig_polys(max_degree=4), trig_polys(max_degree=4), st.floats(-3, 3))
def test_linearity(f, g, alpha):
    if abs(f.freq - g.freq) > 1e-12:
        g = TrigPoly(g.anchor, f.freq, g.cos_coeffs, g.sin_coeffs)
    combo = f + alpha * g
    offset = -f.freq * f.freq
    lhs = apply_hamiltonian(combo, offset)
    rhs = apply_hamiltonian(f, offset) + alpha * apply_hamiltonian(g, offset)
    xs = sample_points(40)
    assert np.max(np.abs(lhs.value(xs) - rhs.value(xs))) <= 1e-10 * max(
        1.0, float(np.max(np.abs(rhs.value(xs))))
    )
    lp = particular_solution(combo)
    rp = particular_solution(f) + alpha * particular_solution(g)
    assert np.max(np.abs(lp.value(xs) - rp.value(xs))) <= 1e-10 * max(
        1.0, float(np.max(np.abs(rp.value(xs))))
    )


def test_apply_hamiltonian_matches_numeric_second_derivative():
    # independent check: central differences with Richardson refinement
    rng = np.random.default_rng(7)
    for beta in (1.3, 0.8j):
        p = rng.uniform(-1, 1, 4)
        q = rng.uniform(-1, 1, 4) * (1j if beta == 0.8j else 1.0)
        f = TrigPoly(0.0, beta, p, q)
        hf = apply_hamiltonian(f, -beta * beta)
        for x in (0.3, 0.9, 1.4):
            h = 1e-3
            def d2(step):
                return (f.eval(x + step) - 2 * f.eval(x) + f.eval(x - step)) / step**2
            second = (4 * d2(h / 2) - d2(h)) / 3
            expected = -second - (beta * beta * f.value(x)).real
            assert hf.eval(x) == pytest.approx(expected, abs=5e-7)


def test_mul_polynomial_identity_and_shift():
    f = TrigPoly(0.0, 1.0, [1.0], [0.0])
    assert_pointwise_close(mul_polynomial(f, [1.0]), f, rtol=1e-15)
    g = mul_polynomial(TrigPoly(0.0, 1.0, [0.0], [1.0]), [0.0, 1.0])  # x sin x
    xs = sample_points(50)
    np.testing.assert_allclose(g.value(xs).real, xs * np.sin(xs), atol=1e-14)
    h = mul_polynomial(TrigPoly(0.0, 1.0, [0, 1.0], [0.0]), [2.0, 3.0])
    np.testing.assert_allclose(
        h.value(xs).real, (2 * xs + 3 * xs**2) * np.cos(xs), atol=1e-13
    )


@given(trig_polys(max_degree=4), st.lists(st.floats(-2, 2), min_size=1, max_size=4))
def test_mul_polynomial_pointwise_product(f, poly):
    g = mul_polynomial(f, poly)
    xs = sample_points(100)
    expected = f.value(xs) * np.polynomial.polynomial.polyval(xs, poly)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(g.value(xs) - expected)) <= 1e-12 * scale


def test_eval_basics():
    assert TrigPoly(0.0, 1.0, [0.0], [1.0]).eval(np.pi / 2) == pytest.approx(1.0)
    hyp = TrigPoly(0.0, 1j, [1.0], [0.0])  # cos(ix) = cosh x
    assert hyp.eval(1.0) == pytest.approx(np.cosh(1.0), rel=1e-14)
    p = TrigPoly(0.0, 1.0, [0.0, 0.5], [0.0])  # x cos x / 2
    for x in (0.2, 1.1, 2.5):
        assert p.eval_deriv(x) == pytest.approx((np.cos(x) - x * np.sin(x)) / 2, rel=1e-13)


PIPELINE_OPS = (
    "mul_polynomial",
    "particular_solution",
    "zero_initial_data",
    "derivative",
    "apply_hamiltonian",
    "sum",
    "scale",
)


@st.composite
def pipeline_pieces(draw):
    """A piece built as the perturbation series builds its pieces.

    beta is local_frequency's at a height up to 1e9 and an energy 1e-9 to
    1e9 from it, outside BETA_MIN^2: real above the height, purely
    imaginary below.  The
    piece starts as cosine or sine_unit_slope and goes through up to six of
    the operations the pipeline applies: products with real polynomials,
    particular solutions (with and without zero initial data), derivatives,
    the Hamiltonian, sums and real scalar multiples.  Returns the piece and
    its points x = anchor + t, with |t| <= 2 and |beta t| <= 700 so that
    cosh and sinh stay finite."""
    magnitudes = st.floats(-3.0, 9.0).map(lambda e: 10.0**e)
    signs = st.sampled_from((-1.0, 1.0))
    height = draw(st.one_of(st.just(0.0), st.builds(lambda s, m: s * m, signs, magnitudes)))
    offset = draw(signs) * 10.0 ** draw(st.floats(-9.0, 9.0))
    energy = height + offset
    assume(abs(energy - height) > BETA_MIN**2)
    beta = local_frequency(PotentialSpec((0.0, 1.0), (height,)), 0, energy)
    anchor = draw(st.floats(-3.0, 3.0))
    bases = (TrigPoly.cosine(anchor, beta), TrigPoly.sine_unit_slope(anchor, beta))
    reals = st.floats(-10.0, 10.0)
    piece = draw(st.sampled_from(bases))
    for op in draw(st.lists(st.sampled_from(PIPELINE_OPS), max_size=6)):
        if op == "mul_polynomial":
            piece = mul_polynomial(piece, draw(st.lists(reals, min_size=1, max_size=3)))
        elif op == "particular_solution":
            piece = particular_solution(piece)
        elif op == "zero_initial_data":
            piece = _with_initial_data(particular_solution(piece))
        elif op == "derivative":
            piece = derivative(piece)
        elif op == "apply_hamiltonian":
            piece = apply_hamiltonian(piece, height - energy)
        elif op == "sum":
            piece = piece + draw(reals) * draw(st.sampled_from(bases))
        else:
            piece = draw(reals) * piece
    span = min(2.0, 700.0 / abs(beta))
    ts = draw(st.lists(st.floats(-span, span), min_size=1, max_size=8))
    return piece, anchor + np.array(ts)


@settings(max_examples=300)
@given(pipeline_pieces())
def test_pipeline_pieces_are_real_by_construction(case):
    # the theorem that lets TrigPoly.eval return the real part unchecked:
    # real beta with real p and q, or imaginary beta with real p and
    # imaginary q, gives every value at a real x an imaginary part of
    # exactly +-0, and every operation above keeps that structure
    piece, xs = case
    assert np.all(np.imag(piece.value(xs)) == 0)
    assert np.imag(piece.value(float(xs[0]))) == 0
    assert isinstance(piece.eval(float(xs[0])), float)
    assert piece.eval(xs).tolist() == np.real(piece.value(xs)).tolist()


def test_derivative_matches_numeric():
    f = TrigPoly(0.3, 1.7, [0.5, -1.0, 0.25], [1.0, 0.0, -0.5])
    d = derivative(f)
    for x in (0.5, 1.0, 1.8):
        h = 1e-6
        numeric = (f.eval(x + h) - f.eval(x - h)) / (2 * h)
        assert d.eval(x) == pytest.approx(numeric, abs=1e-8)


def test_reanchor_poly():
    coeffs = [1.0, -2.0, 0.5]  # 1 - 2x + x^2/2 in global x
    shifted = reanchor_poly(coeffs, 0.7)
    xs = sample_points(20)
    np.testing.assert_allclose(
        np.polynomial.polynomial.polyval(xs - 0.7, shifted),
        np.polynomial.polynomial.polyval(xs, coeffs),
        atol=1e-14,
    )


class TestBandedOperator:
    def test_sigma_squares_to_minus_identity(self):
        np.testing.assert_array_equal(SIGMA @ SIGMA, -np.eye(2))

    def test_block_structure(self):
        op = BandedOperator(1.3, 6)
        q = op.matrix()
        # main block diagonal identically zero, two sub-diagonals populated
        for k in range(7):
            np.testing.assert_array_equal(q[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], 0)
        np.testing.assert_allclose(op.block_b(2), 4 * 1.3 * SIGMA)
        np.testing.assert_allclose(op.block_c(3), -6 * np.eye(2))

    def test_exactly_three_scalar_diagonals(self):
        # the rotation blocks contribute scalar diagonals +1 and +3, the
        # degree-lowering identity blocks +4; everything else vanishes
        q = BandedOperator(1.7, 8).matrix()
        n = q.shape[0]
        populated = {
            off
            for off in range(-n + 1, n)
            if np.any(np.abs(np.diagonal(q, off)) > 0)
        }
        assert populated == {1, 3, 4}

    @pytest.mark.parametrize("beta", [1.3, 2.4, 0.9j, 1.5j])
    def test_matrix_reproduces_operator(self, beta):
        op = BandedOperator(beta, 12)
        q = op.matrix()
        rng = np.random.default_rng(5)
        p = rng.uniform(-1, 1, 7)
        s = rng.uniform(-1, 1, 7) * (1j if not isinstance(beta, float) else 1.0)
        f = TrigPoly(0.0, beta, p, s)
        image = q @ coeff_vector(f, 12)
        hf = apply_hamiltonian(f, -beta * beta)
        np.testing.assert_allclose(image, coeff_vector(hf, 12), atol=1e-13)

    @pytest.mark.parametrize("beta", [1.3, 2.4, 0.9j, 1.5j])
    def test_left_inverse_matches_recurrence(self, beta):
        op = BandedOperator(beta, 12)
        ql = op.left_inverse()
        rng = np.random.default_rng(6)
        p = rng.uniform(-1, 1, 6)
        s = rng.uniform(-1, 1, 6) * (1j if not isinstance(beta, float) else 1.0)
        rhs = TrigPoly(0.0, beta, p, s)
        u = particular_solution(rhs)
        np.testing.assert_allclose(
            ql @ coeff_vector(rhs, 12), coeff_vector(u, 12), atol=1e-12
        )

    def test_left_inverse_times_matrix_is_identity_off_kernel(self):
        # graded rescaling with weights k! / (2 beta)^k keeps every entry of
        # both factors O(1), so the identity can be checked at full precision
        for beta in (1.5, 2.0, 1.2j):
            op = BandedOperator(beta, 20)
            q, ql = op.matrix(), op.left_inverse()
            d = np.repeat(
                [float(math.factorial(k)) / (2 * beta) ** k for k in range(21)], 2
            )
            qs = (d[:, None] * q) / d[None, :]
            qls = (d[:, None] * ql) / d[None, :]
            prod = qls @ qs
            expect = np.eye(42)
            err = np.abs(prod - expect)
            assert np.max(err[:, 2:]) < 1e-12
            # degree-0 columns span the kernel: product zero there
            assert np.max(np.abs(prod[:, :2])) == 0.0

    def test_from_coeff_vector_roundtrip(self):
        f = TrigPoly(0.0, 1.1, [1, 2, 3], [4, 5, 6])
        g = from_coeff_vector(0.0, 1.1, coeff_vector(f, 5))
        assert_pointwise_close(g.trimmed(), f, rtol=1e-15)
