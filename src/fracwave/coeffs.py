"""Difference coefficients for the fractional Laplacian and Riesz derivatives.

Two families of weights are generated here, both defined as Fourier
coefficients of trigonometric symbols on the unit cell:

* 1D Riesz fractional-derivative weights

      a_k = (-1)^k Gamma(alpha+1) / (Gamma(alpha/2 - k + 1) Gamma(alpha/2 + k + 1)),

  the Fourier coefficients of (4 sin^2(eta/2))^{alpha/2}. The centered
  difference h^{-alpha} sum_k a_k u(x + k h) is a second-order approximation
  of the 1D Riesz derivative.

* 2D fractional-Laplacian weights a_ij, the Fourier coefficients of

      f(eta, xi) = (4 sin^2(eta/2) + 4 sin^2(xi/2))^{alpha/2},

  so that h^{-alpha} sum_ij a_ij u(x + i h, y + j h) approximates
  (-Delta)^{alpha/2} to second order. This symbol is not a product of 1D
  symbols, which is why the weights need their own transform-based
  construction instead of a tensor product. They are the 2D DCT-I of the
  symbol sampled on an oversampled grid, to round-off, formed without that
  grid from at most 250 rank-1 terms (see ``laplacian_coeffs_2d``).

All grid functions vanish identically outside the interior node set, so a
solver on N interior nodes per direction needs offsets 0 .. N-1 only; larger
offsets multiply zeros and truncation of the coefficient family introduces
no error.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from . import _fft
from .errors import ValidationError

__all__ = [
    "QuadratureError",
    "validate_alpha",
    "riesz_coeffs_1d",
    "laplacian_coeffs_2d",
    "coeff_quadrature_oracle",
]


class QuadratureError(RuntimeError):
    """The coefficient quadrature oracle failed to reach its tolerance."""

# Upper bound on the symbol sampling grid M (per dimension). The largest
# transient is the R x (M/2 + 1) array of DCT-I rows of
# laplacian_coeffs_2d, R its 187 .. 247 quadrature nodes: at most
# 247 x 8193 doubles (15.4 MiB) for the counts a solve may ask for.
DEFAULT_MAX_SAMPLES = 16384

# Symbol-sampling factor of the 2D weights a solve uses (~1e-5 absolute
# accuracy).
OVERSAMPLING = 8

# Trapezoidal rule of laplacian_coeffs_2d in y = ln t: the node spacing,
# and the exponent past which either end of the integral is dropped.
_LOG_STEP = 0.24
_LOG_CUT = 40.0

# Rows of the quadrant formed at a time by laplacian_coeffs_2d.
_BLOCK = 128


def validate_alpha(alpha: float, allow_classical: bool = False) -> float:
    """Check that alpha lies in (1, 2), or (1, 2] when the classical
    endpoint is permitted (alpha = 2 reproduces the ordinary Laplacian and
    is useful as a sanity case)."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha!r}")
    upper_ok = alpha <= 2.0 if allow_classical else alpha < 2.0
    if not (1.0 < alpha and upper_ok):
        rng = "(1, 2]" if allow_classical else "(1, 2)"
        raise ValidationError(f"alpha must lie in {rng}, got {alpha}")
    return alpha


def riesz_coeffs_1d(alpha: float, count: int) -> np.ndarray:
    """Generate the 1D Riesz difference weights a_0 .. a_{count-1}.

    Negative offsets follow by symmetry, a_{-k} = a_k; the sign pattern is
    a_0 > 0 and a_k < 0 for k >= 1.

    Uses the recurrence

        a_0 = Gamma(alpha+1) / Gamma(alpha/2 + 1)^2,
        a_{k+1} = a_k (k - alpha/2) / (k + 1 + alpha/2),

    which is algebraically identical to the Gamma-ratio closed form but
    avoids overflow and never evaluates Gamma at a pole (for alpha = 2 the
    closed form hits Gamma(0) at k = 2; the recurrence yields the exact
    zero instead).
    """
    alpha = validate_alpha(alpha, allow_classical=True)
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    half = alpha / 2.0
    w = np.empty(count)
    w[0] = math.gamma(alpha + 1.0) / math.gamma(half + 1.0) ** 2
    for k in range(count - 1):
        w[k + 1] = w[k] * (k - half) / (k + 1.0 + half)
    return w


def sampling_size(count: int, oversampling: int) -> int:
    """Refuse a count or oversampling ``laplacian_coeffs_2d`` cannot use, and
    return its M, the smallest power of two >= oversampling * count."""
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if oversampling < 2:
        raise ValidationError(f"oversampling must be >= 2, got {oversampling}")
    m = 1
    while m < oversampling * count:
        m *= 2
    if m > DEFAULT_MAX_SAMPLES:
        raise ValidationError(
            f"symbol sampling grid M={m} exceeds the budget {DEFAULT_MAX_SAMPLES}; "
            f"reduce count ({count}) or oversampling ({oversampling})"
        )
    return m


def laplacian_coeffs_2d(
    alpha: float,
    count: int,
    oversampling: int = OVERSAMPLING,
) -> np.ndarray:
    """Generate the quadrant a_ij, 0 <= i, j < count, of 2D weights.

    The other quadrants follow from a_{|i|,|j|} = a_ij, and the quadrant is
    exactly symmetric (a_ij == a_ji bit for bit).

    The weights are the discrete Fourier coefficients of the symbol sampled
    on an M x M uniform grid over the periodic cell, M = smallest power of
    two >= oversampling * count. Because the symbol is real and even in each
    variable, they are the count x count corner of the 2D type-I cosine
    transform (DCT-I) of the samples f_pq = (s_p + s_q)^beta on [0, pi]^2,
    divided by 4 k^2, with k = M/2, s_p = 4 sin^2(pi p / 2k) and
    beta = alpha/2. Sampling instead of integrating makes this an aliased
    version of the exact coefficients; the alias terms are coefficients at
    offsets >= M - count, which decay like |offset|^{-2-alpha}, so the error
    shrinks rapidly as ``oversampling`` grows. Agreement with direct
    quadrature is pinned in the test suite.

    The samples are never formed. For 0 < beta < 1,

        (a + b)^beta = a^beta + b^beta
                       - c int_0^inf (1 - e^{-ta})(1 - e^{-tb}) t^{-beta-1} dt,

    c = beta / Gamma(1 - beta), splits f into two rank-1 terms and an
    integral of rank-1 terms. The integral is discretised by the trapezoidal
    rule in y = ln t, which converges exponentially for this integrand
    (Trefethen & Weideman, SIAM Review 56, 2014): nodes y_l = l * 0.24 on a
    lattice anchored at y = 0 (so no node carries the rounding of a shifted
    start), from -40 / (2 - beta), where the integrand has fallen to about
    a b e^{-40}, to ln(40 / s_1), past which every e^{-t s_p}, p >= 1, is
    below e^{-40} and each node adds w_l (1 - e_0)(1 - e_0)^T; those sum to the
    geometric constant K = w_R / (1 - e^{-beta 0.24}), w_R the weight of the
    first node not taken. With weights w_l = 0.24 e^{-beta y_l} and
    E_lp = 1 - e^{-t_l s_p}, and because the DCT-I maps a constant to 2k e_0,
    the corner is

        [2k (d e_0^T + e_0 d^T) - c (Ehat^T diag(w) Ehat + K u u^T)] / 4k^2,

    d the DCT-I of s^beta, Ehat the DCT-I of each row E_l, u = 2k e_0 - 1,
    each cut to ``count`` entries. The quadrature and truncation errors are
    far below one rounding, so the result is the sampled transform to
    round-off (pinned against the one-shot transform in the test suite).
    At alpha = 2, c is 0 and the first term alone is exact. The work is k+1
    powers, R = 187 .. 247 length-(k+1) DCT-I rows (R grows with alpha and
    k) and one symmetric rank-(R+1) product; the largest transient is the
    R x (k+1) array of rows, 6.5 MiB at count 799 and alpha = 1.5.
    """
    alpha = validate_alpha(alpha, allow_classical=True)
    m = sampling_size(count, oversampling)
    k = m // 2
    beta = alpha / 2.0
    theta = np.pi * np.arange(k + 1) / k
    s = 4.0 * np.sin(theta / 2.0) ** 2
    d = _fft.dct_type1_inplace(s**beta)[:count] / (2.0 * k)
    if beta < 1.0:
        c = beta / math.gamma(1.0 - beta)
        nodes = np.arange(math.ceil(-_LOG_CUT / (2.0 - beta) / _LOG_STEP),
                          math.ceil(math.log(_LOG_CUT / s[1]) / _LOG_STEP))
        y = nodes * _LOG_STEP
        tail = (_LOG_STEP * math.exp(-beta * (nodes[-1] + 1) * _LOG_STEP)
                / -math.expm1(-beta * _LOG_STEP))
        rows = np.multiply.outer(-np.exp(y), s)
        np.negative(np.expm1(rows, out=rows), out=rows)
        rows = _fft.dct_type1_inplace(rows, axis=1)
        # factors sqrt(c w_l) / 2k, and sqrt(c K) / 2k u as one more row
        factors = np.empty((y.size + 1, count))
        np.multiply(rows[:, :count],
                    (np.sqrt(c * _LOG_STEP * np.exp(-beta * y)) / (2.0 * k))[:, None],
                    out=factors[:-1])
        factors[-1] = -math.sqrt(c * tail) / (2.0 * k)
        factors[-1, 0] *= 1.0 - 2.0 * k
        del rows
        # -factors^T factors, one block row of its upper triangle at a time
        # (small BLAS packing buffers, which stay resident); each block's
        # triangle is mirrored below it, so a_ij == a_ji exactly
        quad = np.empty((count, count))
        for j0 in range(0, count, _BLOCK):
            j1 = min(j0 + _BLOCK, count)
            np.matmul(-factors[:, j0:j1].T, factors[:, j0:], out=quad[j0:j1, j0:])
            upper = np.triu(quad[j0:j1, j0:j1])
            quad[j0:j1, j0:j1] = upper + np.triu(upper, 1).T
            quad[j1:, j0:j1] = quad[j0:j1, j1:].T
    else:
        quad = np.zeros((count, count))
    quad[0] += d
    quad[:, 0] += d
    return quad


def coeff_quadrature_oracle(alpha: float, i: int, j: int, tol: float = 1e-10) -> float:
    """Evaluate a single 2D weight a_ij by adaptive quadrature of its
    defining integral (test oracle; slow, intended for small |i|, |j|).

    a_ij = (1/4 pi^2) * integral over the periodic cell of
           (4 sin^2(eta/2) + 4 sin^2(xi/2))^{alpha/2} * exp(-i (i eta + j xi)).

    Evenness kills the sine part and folds the cell onto [0, pi]^2 with a
    factor 4, leaving a cosine-weighted integral evaluated with absolute
    tolerance ``tol``. The integrand has a mild (continuous) cusp at the
    origin only, so no singularity handling is needed for alpha > 1.
    """
    alpha = validate_alpha(alpha, allow_classical=True)
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    i = abs(int(i))
    j = abs(int(j))
    half = alpha / 2.0

    def integrand(eta: float, xi: float) -> float:
        sym = (4.0 * math.sin(eta / 2.0) ** 2 + 4.0 * math.sin(xi / 2.0) ** 2) ** half
        return sym * math.cos(i * eta) * math.cos(j * xi)

    value, estimate = integrate.dblquad(
        integrand, 0.0, math.pi, 0.0, math.pi, epsabs=tol * math.pi**2 / 2.0,
        epsrel=1e-13,
    )
    if estimate > tol * math.pi**2:
        raise QuadratureError(
            f"quadrature for a_({i},{j}) did not reach tol={tol:g} "
            f"(error estimate {estimate:.2e})"
        )
    return value / math.pi**2
