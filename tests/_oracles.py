"""Dense reference implementations used to cross-check the fast structured code.

Everything here is deliberately slow and obvious: explicit matrices,
``numpy.linalg`` factorizations, O(n^2) loops. Tests build these for small n
and compare against the FFT-based implementations in :mod:`fracwave`.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft
from scipy.integrate import solve_ivp
from scipy.linalg import toeplitz
from scipy.special import hyp1f1

from fracwave.coeffs import laplacian_coeffs_2d, riesz_coeffs_1d


def dense_skew_circulant(first_col: np.ndarray) -> np.ndarray:
    # wrap-around entries pick up a minus sign
    s = np.asarray(first_col, dtype=complex)
    n = s.size
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            k = i - j
            out[i, j] = s[k] if k >= 0 else -s[n + k]
    return out


def dense_sym_toeplitz(first_col: np.ndarray) -> np.ndarray:
    return toeplitz(np.asarray(first_col, dtype=float))


def dense_riesz_1d(alpha: float, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * dense_sym_toeplitz(riesz_coeffs_1d(alpha, n))


def vec_f(field: np.ndarray) -> np.ndarray:
    """Column-major vectorization; field[i, j] lands at index i + n*j."""
    return np.asarray(field).reshape(-1, order="F")


def unvec_f(v: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(v).reshape((n, n), order="F")


def dense_laplacian_2d(alpha: float, n: int, scale: float = 1.0,
                       oversampling: int = 8) -> np.ndarray:
    """(n^2, n^2) matrix of the 2D fractional stencil in vec_f ordering."""
    quad = laplacian_coeffs_2d(alpha, n, oversampling=oversampling)
    return dense_cross_2d(quad, n, scale)


def dense_cross_2d(quad: np.ndarray, n: int, scale: float = 1.0) -> np.ndarray:
    """(n^2, n^2) matrix of the doubly Toeplitz stencil with coefficient
    quadrant ``quad`` (entry scale * quad[|i - p|, |j - q|]) in vec_f
    ordering."""
    full = np.zeros((n * n, n * n))
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    cols = (ii + n * jj).ravel()
    for i0 in range(n):
        for j0 in range(n):
            vals = quad[np.abs(ii - i0), np.abs(jj - j0)].ravel()
            full[i0 + n * j0, cols] = scale * vals
    return full


def dense_riesz_sum_2d(alpha: float, n: int, scale: float = 1.0) -> np.ndarray:
    """(n^2, n^2) matrix of delta_x + delta_y in vec_f ordering:
    kron(I, T) + kron(T, I) with T the scaled 1D Riesz Toeplitz matrix."""
    t1 = dense_riesz_1d(alpha, n, scale)
    eye = np.eye(n)
    return np.kron(eye, t1) + np.kron(t1, eye)


def one_shot_laplacian_coeffs_2d(alpha: float, count: int,
                                 oversampling: int = 8) -> np.ndarray:
    """2D weight quadrant in its unpruned form: the symbol on the full
    (M/2 + 1)^2 grid over [0, pi]^2, M the smallest power of two >=
    oversampling * count, one 2D DCT-I, then the count x count corner."""
    m = 1
    while m < oversampling * count:
        m *= 2
    k = m // 2
    theta = np.pi * np.arange(k + 1) / k
    s = 4.0 * np.sin(theta / 2.0) ** 2
    samples = (s[:, None] + s[None, :]) ** (alpha / 2.0)
    return scipy.fft.dctn(samples, type=1)[:count, :count] / (4.0 * k * k)


def frac_laplacian_of_gaussian(alpha: float, r2: np.ndarray) -> np.ndarray:
    """Exact 2D (-Delta)^s exp(-|x|^2) at squared radius r2, s = alpha/2:
    4^s Gamma(1 + s) 1F1(1 + s; 1; -|x|^2)."""
    s = alpha / 2.0
    return 4.0**s * math.gamma(1.0 + s) * hyp1f1(1.0 + s, 1.0, -r2)


def semi_discrete_wave(lap: np.ndarray, kappa: float, u0: np.ndarray,
                       v0: np.ndarray, t: float) -> np.ndarray:
    """Exact solution at time t of U'' = -kappa L U, U(0) = u0, U'(0) = v0.

    ``lap`` is the dense SPD matrix of L in vec_f ordering. With
    L = V diag(lam) V^T and omega = sqrt(kappa lam), the solution is
    U(t) = V [cos(omega t) c0 + sin(omega t) / omega c1] with c0 = V^T u0
    and c1 = V^T v0.
    """
    lam, vec = np.linalg.eigh(lap)
    assert lam[0] > 0.0, "L must be positive definite"
    omega = np.sqrt(kappa * lam)
    c0 = vec.T @ vec_f(u0)
    c1 = vec.T @ vec_f(v0)
    modes = np.cos(omega * t) * c0 + np.sin(omega * t) / omega * c1
    return unvec_f(vec @ modes, u0.shape[0])


def semi_discrete_nonlinear(lap: np.ndarray, kappa: float, g, u0: np.ndarray,
                            v0: np.ndarray, t: float) -> np.ndarray:
    """U(t) for U'' = -kappa L U + g(U), U(0) = u0, U'(0) = v0, integrated as
    a first-order system by DOP853 at rtol = atol = 1e-13 (round-off level
    for the N = 39 fields the tests use). ``lap`` is the dense L in vec_f
    ordering; ``g`` acts pointwise."""
    m = u0.size

    def rhs(_t, y):
        u = y[:m]
        return np.concatenate([y[m:], -kappa * (lap @ u) + g(u)])

    y0 = np.concatenate([vec_f(u0), vec_f(v0)])
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    assert sol.success, sol.message
    return unvec_f(sol.y[:m, -1], u0.shape[0])


def padded_bttb_apply(op, quad: np.ndarray, u: np.ndarray,
                      scale: float = 1.0) -> np.ndarray:
    """BTTB apply in its unpruned form, independent of ``op.spectrum``: the
    quadrant embedded as the even L x L torus kernel (L = ``op.length``),
    the field zero-padded to the torus, one real 2D FFT of each, their
    product, one inverse, crop."""
    n, length = op.n, op.length
    offsets = np.minimum(np.arange(length), length - np.arange(length))
    inside = offsets < n
    kernel = np.zeros((length, length))
    kernel[np.ix_(inside, inside)] = quad[np.ix_(offsets[inside], offsets[inside])]
    padded = np.zeros((length, length))
    padded[:n, :n] = u
    product = np.fft.rfft2(scale * kernel) * np.fft.rfft2(padded)
    return np.fft.irfft2(product, s=(length, length))[:n, :n]


def random_spd_toeplitz(n: int, rng: np.random.Generator) -> np.ndarray:
    """First column of a random symmetric positive definite Toeplitz matrix.

    Diagonal dominance guarantees SPD: |off-diagonal row sum| < diagonal.
    """
    col = rng.standard_normal(n)
    col[0] = np.sum(np.abs(col[1:])) + rng.uniform(0.5, 2.0)
    return col


def dense_sadi_system(alpha: float, n: int, h: float, tau: float,
                      kappa: float, oversampling: int = 8):
    """Dense operators for the split scheme: H (1D), L (2D), and the
    Kronecker pieces I x H and H x I acting on vec_f fields."""
    factor = 0.5 * tau * tau * kappa * h ** (-alpha)
    hmat = np.eye(n) + dense_riesz_1d(alpha, n, factor)
    lap = dense_laplacian_2d(alpha, n, h ** (-alpha), oversampling=oversampling)
    eye = np.eye(n)
    # vec_f(H U) = (I x H) vec_f(U);  vec_f(U H^T) = (H x I) vec_f(U)
    ikh = np.kron(eye, hmat)
    hki = np.kron(hmat, eye)
    return hmat, lap, ikh, hki
