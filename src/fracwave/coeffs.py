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
  construction instead of a tensor product.

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
# transient is the count x (M/2 + 1) first-pass array of
# laplacian_coeffs_2d: at most 2048 x 8193 doubles (128 MiB) for the
# counts a solve may ask for.
DEFAULT_MAX_SAMPLES = 16384

# Symbol-sampling factor of the 2D weights a solve uses (~1e-5 absolute
# accuracy).
OVERSAMPLING = 8

# Sample rows built and transformed at a time by laplacian_coeffs_2d
# (4 MiB per block at M = 8192).
_ROW_BLOCK = 128


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
    symmetric (a_ij = a_ji).

    The weights are the discrete Fourier coefficients of the symbol sampled
    on an M x M uniform grid over the periodic cell, M = smallest power of
    two >= oversampling * count. Because the symbol is real and even in each
    variable, the full-cell inverse FFT collapses to a 2D type-I cosine
    transform of the (M/2 + 1)^2 samples on [0, pi]^2. Only its count x
    count corner is kept, so the transform runs in two pruned passes and
    the full sample grid is never held: sample rows are built a fixed block
    at a time and each row is transformed in place, keeping its first
    ``count`` outputs; a second pass transforms the resulting
    count x (M/2 + 1) array along its rows and crops it. Sampling
    instead of integrating makes this an aliased version of the exact
    coefficients; the alias terms are coefficients at offsets >= M - count,
    which decay like |offset|^{-2-alpha}, so the error shrinks rapidly as
    ``oversampling`` grows. Agreement with direct quadrature is pinned in
    the test suite.
    """
    alpha = validate_alpha(alpha, allow_classical=True)
    m = sampling_size(count, oversampling)
    k = m // 2
    theta = np.pi * np.arange(k + 1) / k
    s = 4.0 * np.sin(theta / 2.0) ** 2
    # first pass: partial[q, p] = DCT-I of sample row p at frequency q < count
    partial = np.empty((count, k + 1))
    block = np.empty((min(_ROW_BLOCK, k + 1), k + 1))
    for start in range(0, k + 1, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, k + 1)
        rows = block[: stop - start]
        np.add.outer(s[start:stop], s, out=rows)
        np.power(rows, alpha / 2.0, out=rows)
        partial[:, start:stop] = _fft.dct_type1_inplace(rows, axis=1)[:, :count].T
    # second pass along the contiguous axis, then crop; the samples are
    # exactly symmetric (s_p + s_q == s_q + s_p), so this is the corner of the
    # one-shot 2D transform as it stands, with no transpose back
    partial = _fft.dct_type1_inplace(partial, axis=1)
    return partial[:, :count] / (4.0 * k * k)


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
