"""Exact algebra on trigonometric polynomials.

Every local wave-function piece handled by this package is a finite sum

    f(x) = sum_k (x - a)^k [p_k cos(beta (x - a)) + q_k sin(beta (x - a))]

with one complex frequency ``beta`` per piece.  Oscillatory pieces carry
real beta; evanescent pieces carry purely imaginary beta, which turns the
cosine into cosh and keeps a single complex code path (for such pieces the
q_k are purely imaginary so that q_k * sin stays real).

The module implements the action of the shifted operator
H = -d^2/dx^2 + (V - E), with V - E = -beta^2 constant on the piece, its
closed-form resonant inverse (the particular solution of H u = f), and the
banded matrix form of both on the graded basis
(cos, sin, t cos, t sin, t^2 cos, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import BETA_MIN
from .errors import DegenerateFrequencyError

__all__ = [
    "TrigPoly",
    "BandedOperator",
    "apply_hamiltonian",
    "particular_solution",
    "mul_polynomial",
    "derivative",
    "reanchor_poly",
    "unit_solutions",
]


def _coeffs(values) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=complex))
    if arr.ndim != 1:
        raise ValueError("coefficient sequences must be one-dimensional")
    return arr


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """Finite trigonometric polynomial anchored at ``anchor`` with frequency ``freq``.

    Immutable; all operations return new instances.  Coefficient arrays are
    padded to a common length on construction.  The frequency is the
    piece's own, beta^2 = E - V, so it fixes the operator that
    apply_hamiltonian and particular_solution act with.

    Structure contract, which cosine and sine_unit_slope set up and sums,
    real scalar multiples, products with real polynomials, derivative,
    apply_hamiltonian and particular_solution keep:
    - real beta: real p and q;
    - purely imaginary beta: real p, purely imaginary q.
    Then every value at a real x has an imaginary part of exactly +-0 (NaN
    where cosh or sinh overflows), and ``eval`` returns the real part
    unchecked.
    """

    anchor: float
    freq: complex
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self) -> None:
        p = _coeffs(self.cos_coeffs)
        q = _coeffs(self.sin_coeffs)
        n = max(len(p), len(q))
        if len(p) < n:
            p = np.concatenate([p, np.zeros(n - len(p), dtype=complex)])
        if len(q) < n:
            q = np.concatenate([q, np.zeros(n - len(q), dtype=complex)])
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "cos_coeffs", p)
        object.__setattr__(self, "sin_coeffs", q)
        object.__setattr__(self, "anchor", float(self.anchor))
        object.__setattr__(self, "freq", complex(self.freq))
        if abs(self.freq) <= BETA_MIN:
            raise DegenerateFrequencyError(
                f"|beta| = {abs(self.freq):.3e} at or below the degeneracy floor"
            )

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, anchor: float, freq: complex) -> "TrigPoly":
        return cls(anchor, freq, [0.0], [0.0])

    @classmethod
    def cosine(cls, anchor: float, freq: complex) -> "TrigPoly":
        """cos(beta (x - a)): value 1, slope 0 at the anchor."""
        return cls(anchor, freq, [1.0], [0.0])

    @classmethod
    def sine_unit_slope(cls, anchor: float, freq: complex) -> "TrigPoly":
        """sin(beta (x - a)) / beta: value 0, slope 1 at the anchor."""
        return cls(anchor, freq, [0.0], [1.0 / complex(freq)])

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.cos_coeffs) - 1

    def is_zero(self, atol: float = 0.0) -> bool:
        return bool(
            np.all(np.abs(self.cos_coeffs) <= atol)
            and np.all(np.abs(self.sin_coeffs) <= atol)
        )

    def trimmed(self) -> "TrigPoly":
        """Drop trailing coefficient pairs that are exactly zero."""
        n = len(self.cos_coeffs)
        while n > 1 and self.cos_coeffs[n - 1] == 0 and self.sin_coeffs[n - 1] == 0:
            n -= 1
        if n == len(self.cos_coeffs):
            return self
        return TrigPoly(self.anchor, self.freq, self.cos_coeffs[:n], self.sin_coeffs[:n])

    def _check_compatible(self, other: "TrigPoly") -> None:
        if abs(self.anchor - other.anchor) > 1e-12 * max(1.0, abs(self.anchor)):
            raise ValueError("cannot combine trig polynomials with different anchors")
        if abs(self.freq - other.freq) > 1e-12 * max(1.0, abs(self.freq)):
            raise ValueError("cannot combine trig polynomials with different frequencies")

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        self._check_compatible(other)
        n = max(len(self.cos_coeffs), len(other.cos_coeffs))
        p = np.zeros(n, dtype=complex)
        q = np.zeros(n, dtype=complex)
        p[: len(self.cos_coeffs)] += self.cos_coeffs
        p[: len(other.cos_coeffs)] += other.cos_coeffs
        q[: len(self.sin_coeffs)] += self.sin_coeffs
        q[: len(other.sin_coeffs)] += other.sin_coeffs
        return TrigPoly(self.anchor, self.freq, p, q)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-1.0) * other

    def __neg__(self) -> "TrigPoly":
        return (-1.0) * self

    def __mul__(self, scalar: complex) -> "TrigPoly":
        s = complex(scalar)
        return TrigPoly(self.anchor, self.freq, self.cos_coeffs * s, self.sin_coeffs * s)

    __rmul__ = __mul__

    # -- evaluation ----------------------------------------------------

    def value(self, x) -> complex | np.ndarray:
        """Complex value(s) at x."""
        t = np.asarray(x, dtype=float) - self.anchor
        arg = self.freq * t
        polyval = np.polynomial.polynomial.polyval
        return polyval(t, self.cos_coeffs) * np.cos(arg) + polyval(t, self.sin_coeffs) * np.sin(arg)

    def eval(self, x):
        """Real value(s) at x: a float for a scalar x, else an array."""
        out = np.real(self.value(x))
        return float(out) if np.isscalar(x) else out

    def eval_deriv(self, x):
        """Real first derivative at x."""
        return derivative(self).eval(x)


def unit_solutions(freq, t) -> tuple[np.ndarray, np.ndarray]:
    """cos(beta t) and sin(beta t) / beta, elementwise over broadcast arrays.

    The values of TrigPoly.cosine(a, beta) and TrigPoly.sine_unit_slope(a,
    beta) at x = a + t, from the same complex expressions (so the same bits
    wherever they are finite), for a whole array of frequencies at once.
    Both are entire in beta^2; at beta = 0, an energy on a height, they
    take their limits 1 and t (Ixaru's eta_-1 and t eta_0; Ixaru, De
    Meyer & Vanden Berghe, J. Comput. Appl. Math. 88 (1998) 289).
    Only the real parts are returned, with no reality check, because for
    real t and beta real or purely imaginary (local_frequencies) the
    imaginary parts are exactly +-0, or NaN where cosh or sinh overflows,
    which no tolerance test rejects.  With beta = b + 0j the argument is
    bt +- 0j, where cos and sin have imaginary parts -sin(bt) sinh(+-0)
    and cos(bt) sinh(+-0); with beta = 0 + ik, cos(ikt) = cosh(kt) - i
    sin(0) sinh(kt) and sin(ikt) / (ik) = sinh(kt) / k + i 0 sinh(kt).
    """
    if np.all(freq):
        arg = freq * t
        return np.cos(arg).real, (np.sin(arg) * (1.0 / freq)).real
    zero = freq == 0
    c, s = unit_solutions(np.where(zero, 1.0, freq), t)
    return np.where(zero, 1.0, c), np.where(zero, t, s)


def derivative(f: TrigPoly) -> TrigPoly:
    """d/dx of a trig polynomial, in the same anchored representation."""
    p, q = f.cos_coeffs, f.sin_coeffs
    beta = f.freq
    n = len(p)
    dp = np.zeros(n, dtype=complex)
    dq = np.zeros(n, dtype=complex)
    for m in range(n):
        if m + 1 < n:
            dp[m] += (m + 1) * p[m + 1]
            dq[m] += (m + 1) * q[m + 1]
        dp[m] += beta * q[m]
        dq[m] -= beta * p[m]
    return TrigPoly(f.anchor, f.freq, dp, dq)


def apply_hamiltonian(f: TrigPoly) -> TrigPoly:
    """H f with H = -d^2/dx^2 - beta^2 on the piece's own frequency beta,
    V - E = -beta^2 on the piece.

    The result is in the same anchored representation; cos and sin
    themselves map to zero, and a monomial of degree k >= 1 drops to
    degree k - 1.
    """
    p, q = f.cos_coeffs, f.sin_coeffs
    beta = f.freq
    deg = len(p) - 1
    if deg == 0:
        return TrigPoly.zero(f.anchor, f.freq)
    out_p = np.zeros(deg, dtype=complex)
    out_q = np.zeros(deg, dtype=complex)
    for m in range(deg):
        if m + 2 <= deg:
            out_p[m] -= (m + 2) * (m + 1) * p[m + 2]
            out_q[m] -= (m + 2) * (m + 1) * q[m + 2]
        out_p[m] -= 2.0 * (m + 1) * beta * q[m + 1]
        out_q[m] += 2.0 * (m + 1) * beta * p[m + 1]
    return TrigPoly(f.anchor, f.freq, out_p, out_q).trimmed()


def particular_solution(rhs: TrigPoly) -> TrigPoly:
    """Closed-form u with H u = rhs, H = -d^2/dx^2 - beta^2 at rhs's frequency.

    Resonant forcing raises the degree by exactly one.  The degree-0
    (homogeneous) components of u are set to zero; callers add homogeneous
    terms to meet their initial conditions.  Undefined as beta -> 0, where
    the particular solutions turn polynomial; TrigPoly rejects that regime
    when rhs is built.
    """
    beta = rhs.freq
    r = rhs.trimmed()
    rp, rq = r.cos_coeffs, r.sin_coeffs
    deg = len(rp) - 1
    up = np.zeros(deg + 2, dtype=complex)
    uq = np.zeros(deg + 2, dtype=complex)
    for m in range(deg, -1, -1):
        gp = rp[m]
        gq = rq[m]
        if m + 2 <= deg + 1:
            gp += (m + 2) * (m + 1) * up[m + 2]
            gq += (m + 2) * (m + 1) * uq[m + 2]
        up[m + 1] = gq / (2.0 * (m + 1) * beta)
        uq[m + 1] = -gp / (2.0 * (m + 1) * beta)
    return TrigPoly(rhs.anchor, beta, up, uq)


def mul_polynomial(f: TrigPoly, poly) -> TrigPoly:
    """Multiply f by a polynomial given in powers of (x - f.anchor).

    Callers re-expand global-coordinate polynomials with reanchor_poly
    before multiplying.
    """
    a = np.atleast_1d(np.asarray(poly, dtype=complex))
    p = np.convolve(f.cos_coeffs, a)
    q = np.convolve(f.sin_coeffs, a)
    return TrigPoly(f.anchor, f.freq, p, q)


def reanchor_poly(coeffs, anchor: float) -> np.ndarray:
    """Rewrite sum_k c_k x^k as coefficients in powers of (x - anchor)."""
    pol = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    shifted = pol(np.polynomial.Polynomial([float(anchor), 1.0]))
    return np.atleast_1d(shifted.coef)


# Rotation generator of the two-by-two blocks; squares to -I.  This is the
# column-vector (input = column) orientation.
SIGMA = np.array([[0.0, -1.0], [1.0, 0.0]])
_IDENT2 = np.eye(2)


@dataclass(frozen=True)
class BandedOperator:
    """Banded matrix form of the shifted operator on the graded trig basis.

    Basis ordering is (cos, sin, t cos, t sin, ..., t^K cos, t^K sin) with
    t = x - anchor, columns indexing inputs.  The operator matrix has two
    nonzero block sub-diagonals and an identically zero main diagonal:
    degree k feeds degree k-1 through 2 k beta sigma and degree k-2 through
    -k (k-1) I.  Its closed-form left inverse exists on the complement of
    the degree-0 kernel.
    """

    freq: complex
    truncation: int

    def __post_init__(self) -> None:
        if abs(complex(self.freq)) <= BETA_MIN:
            raise DegenerateFrequencyError("frequency at or below the degeneracy floor")
        if self.truncation < 1:
            raise ValueError("truncation must be at least 1")

    def block_b(self, k: int) -> np.ndarray:
        """Sub-diagonal block coupling degree k to degree k-1."""
        return 2.0 * k * complex(self.freq) * SIGMA

    def block_c(self, k: int) -> np.ndarray:
        """Second sub-diagonal block coupling degree k to degree k-2."""
        return -float(k * (k - 1)) * _IDENT2

    def matrix(self) -> np.ndarray:
        """Dense operator matrix, shape (2(K+1), 2(K+1))."""
        k = self.truncation
        n = 2 * (k + 1)
        q = np.zeros((n, n), dtype=complex)
        for col in range(1, k + 1):
            q[2 * (col - 1) : 2 * col, 2 * col : 2 * col + 2] = self.block_b(col)
            if col >= 2:
                q[2 * (col - 2) : 2 * col - 2, 2 * col : 2 * col + 2] = self.block_c(col)
        return q

    def left_inverse(self) -> np.ndarray:
        """Closed-form left inverse of matrix() away from the degree-0 kernel.

        Block row m >= 1 holds, at block column n >= m - 1 and with
        r = n - m + 1, the entry
        (-1)^(r+1) (2 beta)^-(r+1) g(m, n) sigma^(r+1),
        where g(m, m-1) = 1/m, g(m, n) = (m+1)(m+2)...n for n >= m, and
        sigma powers cycle through {sigma, -I, -sigma, I}.  The product
        left_inverse() @ matrix() is exactly the identity on every basis
        column of degree >= 1 at any finite truncation; degree-0 columns
        span the kernel and come back as zero.
        """
        kmax = self.truncation
        n = 2 * (kmax + 1)
        beta = complex(self.freq)
        ql = np.zeros((n, n), dtype=complex)
        sigma_cycle = (SIGMA, -_IDENT2, -SIGMA, _IDENT2)
        for row in range(1, kmax + 1):
            grow = 1.0 / row  # running product g(row, col)
            for col in range(row - 1, kmax + 1):
                r = col - row + 1
                if col >= row:
                    grow *= col
                entry = (
                    (-1.0) ** (r + 1)
                    * (2.0 * beta) ** (-(r + 1))
                    * grow
                    * sigma_cycle[r % 4]
                )
                ql[2 * row : 2 * row + 2, 2 * col : 2 * col + 2] = entry
        return ql


def coeff_vector(f: TrigPoly, truncation: int) -> np.ndarray:
    """Interleaved coefficient vector (p_0, q_0, p_1, q_1, ...) of length 2(K+1)."""
    if f.degree > truncation:
        raise ValueError("trig polynomial exceeds the requested truncation")
    out = np.zeros(2 * (truncation + 1), dtype=complex)
    out[0 : 2 * (f.degree + 1) : 2] = f.cos_coeffs
    out[1 : 2 * (f.degree + 1) + 1 : 2] = f.sin_coeffs
    return out


def from_coeff_vector(anchor: float, freq: complex, vec: np.ndarray) -> TrigPoly:
    """Inverse of coeff_vector."""
    v = np.asarray(vec, dtype=complex)
    return TrigPoly(anchor, freq, v[0::2], v[1::2])
