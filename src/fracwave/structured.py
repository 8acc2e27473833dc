"""Structured linear algebra kernels.

Everything the time steppers need reduces to three structured-matrix tools:

* symmetric Toeplitz matvec via circulant embedding,
* a direct solver for symmetric positive definite Toeplitz systems based on
  the Gohberg-Semencul representation of the inverse: one Levinson solve
  gives c = H^{-1} e_1, H^{-1} then factorizes into one circulant and one
  skew-circulant built from c, both diagonal in Fourier space and applied
  in place, so every subsequent solve costs exactly four FFTs of length
  next_fast_len(N) (a bad N is embedded in a larger Toeplitz system and
  corrected by a rank-k update, k = next_fast_len(N) - N),
* a block-Toeplitz-Toeplitz-block (BTTB) matvec via 2D circulant embedding,
  applied by pruned transforms (the N rows along axis 1, then axis 0, each
  zero-padded to L by the transform itself; the inverse passes in the
  opposite order, keeping N rows before the last one), so no L x L
  zero-padded field is built,
  plus a 2D sine-transform (tau algebra) preconditioner and a PCG loop
  for the systems that are BTTB but not factorable.

Dense constructions live only in the test suite; all operators here are
matrix-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.linalg.blas

from . import _fft
from .coeffs import validate_alpha
from .errors import SolverError, ValidationError

__all__ = [
    "SymToeplitz",
    "GSData",
    "BttbOperator",
    "TauSpec",
    "PcgReport",
    "gs_precompute",
    "gs_solve",
    "bttb_build",
    "bttb_apply",
    "tau_spec_2d",
    "tau_apply",
    "pcg",
]


# ---------------------------------------------------------------------------
# Toeplitz matvec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymToeplitz:
    """Symmetric Toeplitz matrix stored as its first column.

    Entry (i, j) equals ``first_col[|i - j|]``. The matvec embeds the matrix
    into a circulant of FFT-friendly size >= 2N whose first column reads
    [t_0, t_1, .., t_{N-1}, 0 .., 0, t_{N-1}, .., t_1] and keeps that
    circulant's (real) spectrum cached.
    """

    first_col: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    _length: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        col = np.asarray(self.first_col, dtype=float)
        if col.ndim != 1 or col.shape[0] < 1:
            raise ValidationError("first_col must be a nonempty 1D real vector")
        n = col.shape[0]
        length = _fft.next_fast_real_len(2 * n)
        kernel = np.zeros(length)
        kernel[:n] = col
        kernel[length - n + 1:] = col[1:][::-1]
        object.__setattr__(self, "first_col", col)
        object.__setattr__(self, "_spectrum", _fft.rfft(kernel))
        object.__setattr__(self, "_length", length)

    @property
    def n(self) -> int:
        return self.first_col.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Multiply by the Toeplitz matrix; columns of a matrix input are
        treated as independent vectors.

        The columns are transformed as the contiguous rows of v.T (copied
        unless v is F-ordered), zero-padded to the embedding length by the
        transform itself.
        """
        v = np.asarray(v, dtype=float)
        n = self.n
        if v.shape[0] != n:
            raise ValidationError(f"length mismatch: matrix {n}, vector {v.shape[0]}")
        spec = _fft.rfft(np.ascontiguousarray(v.T), axis=-1, n=self._length)
        spec *= self._spectrum
        return _fft.irfft(spec, n=self._length, axis=-1)[..., :n].T


# ---------------------------------------------------------------------------
# Gohberg-Semencul solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GSData:
    """Precomputed data representing the inverse of an SPD Toeplitz matrix.

    With c = H^{-1} e_1 and p_k = c_{k-1} (1-based), the inverse of an
    order-m symmetric Toeplitz matrix acts as

        H^{-1} v = Re(v3) + J Im(v3),
        v1 = (v + i J v) / (2 p_1),
        v2 = S v1   (skew-circulant with first column s = [p_1, -p_m, .., -p_2]),
        v3 = C v2   (circulant with first column c),

    where J is the index-reversal. Both structured factors are diagonal in
    Fourier space, so one solve costs exactly four FFTs of length
    m = next_fast_len(N). For N < m the factors are those of H', the
    order-m SPD Toeplitz extension of H with zero reflection coefficients
    beyond order N: the first column of H'^{-1} is c padded with k = m - N
    zeros. With H'^{-1} = [[G11, G12], [G21, G22]] (G11 of order N), the
    block-inverse identity gives

        H^{-1} v = y1 - F y2,   [y1; y2] = H'^{-1} [v; 0],   F = G12 G22^{-1},

    and ``correction`` stores F (N x k, F-ordered; N x 0 when N is a fast
    length). ``q_scaled`` = Q / (2 p_1) folds the scale of v1 into the
    first skew-circulant diagonal; ``q_conj`` is Q*.
    """

    n: int
    p1: float
    lambda_c: np.ndarray
    lambda_s: np.ndarray
    q_scaled: np.ndarray
    q_conj: np.ndarray
    correction: np.ndarray

    @property
    def length(self) -> int:
        return self.lambda_c.shape[0]


def gs_precompute(first_col: np.ndarray) -> GSData:
    """Solve H c = e_1 once and package the structured inverse.

    H is the symmetric Toeplitz matrix with first column ``first_col``. The
    one-time solve is the direct Levinson recursion (O(N^2), exact up to
    round-off), whose result the Gohberg-Semencul formula packages at the
    fast length m (see :class:`GSData`). A positive p_1 = c_0 is a hard
    requirement: the (1,1) entry of the inverse of an SPD matrix is
    positive, so p_1 <= 0 (or a singular leading minor) signals a non-SPD
    input. Each Schur complement of the extension H' is then 1/p_1 > 0, so
    H' is SPD as well. For N < m the last k columns of H'^{-1}, which give
    the correction F, come from one batched sweep of the k trailing unit
    vectors.
    """
    col = np.asarray(first_col, dtype=float)
    if col.ndim != 1 or col.shape[0] < 1:
        raise ValidationError("first_col must be a nonempty 1D real vector")
    n = col.shape[0]
    e1 = np.zeros(n)
    e1[0] = 1.0
    try:
        c = scipy.linalg.solve_toeplitz(col, e1)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Levinson solve on the Toeplitz factor failed ({exc}); "
                          "matrix is not symmetric positive definite") from exc
    p1 = float(c[0])
    if p1 <= 0.0:
        raise SolverError(f"first entry of the inverse column is {p1:.3e} <= 0; "
                          "matrix is not symmetric positive definite")
    length = _fft.next_fast_len(n)
    padded = np.zeros(length)
    padded[:n] = c
    s = np.empty(length)
    s[0] = p1
    s[1:] = -padded[1:][::-1]
    q_diag = np.exp(-1j * np.pi * np.arange(length) / length)
    data = GSData(
        n=n,
        p1=p1,
        lambda_c=np.fft.fft(padded),
        lambda_s=np.fft.fft(q_diag * s),
        q_scaled=q_diag / (2.0 * p1),
        q_conj=q_diag.conj(),
        correction=np.empty((n, 0), order="F"),
    )
    k = length - n
    if k == 0:
        return data
    w = np.zeros((k, length), dtype=complex)
    w.real[:, n:] = np.eye(k)
    w.imag = w.real[:, ::-1]
    w = _gs_transforms(data, w)
    # row j is column N + j of the symmetric H'^{-1}: [G21 G22] by rows
    tail = w.real + w.imag[:, ::-1]
    g22, g21 = tail[:, n:], tail[:, :n]
    # F^T = G22^{-1} G21, stored C-ordered so that F = F^T.T is F-ordered
    f_t = scipy.linalg.solve(g22, g21, assume_a="pos")
    return replace(data, correction=np.ascontiguousarray(f_t).T)


def _gs_transforms(data: GSData, w: np.ndarray) -> np.ndarray:
    """The four transforms of the order-m inverse, in place on the rows of
    w = x + i J x: Q / (2 p_1), lambda_s, Q* and lambda_c between them.
    The rows of Re(w) + J Im(w) are then the solves."""
    w *= data.q_scaled
    w = _fft.cfft(w, axis=-1, overwrite_x=True)
    w *= data.lambda_s
    w = _fft.cifft(w, axis=-1, overwrite_x=True)
    w *= data.q_conj
    w = _fft.cfft(w, axis=-1, overwrite_x=True)
    w *= data.lambda_c
    return _fft.cifft(w, axis=-1, overwrite_x=True)


def gs_solve(data: GSData, v: np.ndarray) -> np.ndarray:
    """Apply the structured inverse: returns H^{-1} v.

    ``v`` may be a vector or an N x cols matrix of right-hand sides; the
    batched form still performs four (batched) FFT calls of length
    m = next_fast_len(N) in total, keeping the four-transforms-per-column
    budget. The columns are swept as the contiguous rows of one complex
    working copy of v.T, zero-padded to m: v fills the first N real slots
    of each row and J v the last N imaginary slots (transforms over
    strided columns are markedly slower). The transforms and diagonals
    update it in place; the result y1 - F y2 (see :class:`GSData`) is the
    transpose of a C-ordered array, the rank-k correction applied to it in
    place by one BLAS update.
    """
    v = np.asarray(v, dtype=float)
    n, length = data.n, data.length
    if v.shape[0] != n:
        raise ValidationError(f"length mismatch: solver {n}, vector {v.shape[0]}")
    rows = v.T
    # x + i J x for x = [v; 0], with J reversing each row of length m
    w = np.zeros(rows.shape[:-1] + (length,), dtype=complex)
    w.real[..., :n] = rows
    w.imag[..., length - n:] = rows[..., ::-1]
    w = _gs_transforms(data, w)
    reversed_imag = w.imag[..., ::-1]
    out = w.real[..., :n] + reversed_imag[..., :n]
    if length > n:
        y2 = w.real[..., n:] + reversed_imag[..., n:]
        # out^T -= F y2^T; out^T is F-ordered N x cols, so BLAS updates it
        # in place and returns it
        corrected = scipy.linalg.blas.dgemm(
            -1.0, data.correction, np.atleast_2d(y2).T, 1.0,
            np.atleast_2d(out).T, overwrite_c=True)
        out = corrected.T.reshape(out.shape)
    return out.T


# ---------------------------------------------------------------------------
# BTTB operator via 2D circulant embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BttbOperator:
    """Block-Toeplitz-Toeplitz-block operator on N x N fields.

    The doubly Toeplitz matrix with entries scale * a_{|i-p|, |j-q|} embeds
    into a block-circulant-circulant-block matrix on an L x L torus
    (L fast length >= 2N), where it is diagonal in 2D Fourier space. The
    embedded kernel is real and even, so the spectrum (L x (L/2 + 1), the
    rfft2 half plane) is real and applications return real fields. An
    application never builds the zero-padded L x L field: it transforms
    the N rows along axis 1 and then axis 0, each pass padding to L
    itself, multiplies by the spectrum, and runs the inverse passes in the
    opposite order, keeping N rows before the last pass and N columns
    after it.
    """

    n: int
    length: int
    spectrum: np.ndarray

    def apply(self, u: np.ndarray) -> np.ndarray:
        return bttb_apply(self, u)


def bttb_build(quadrant: np.ndarray, n: int, scale: float = 1.0) -> BttbOperator:
    """Build the BTTB operator for a coefficient quadrant and grid size n."""
    quad = np.asarray(quadrant, dtype=float)
    if quad.shape[0] < n or quad.shape[1] < n:
        raise ValidationError(
            f"coefficient quadrant {quad.shape} too small for grid size {n}"
        )
    length = _fft.next_fast_real_len(2 * n)
    offsets = np.minimum(np.arange(length), length - np.arange(length))
    inside = offsets <= n - 1
    kernel = np.zeros((length, length))
    kernel[np.ix_(inside, inside)] = quad[np.ix_(offsets[inside], offsets[inside])]
    # the embedded kernel is palindromic in both dimensions, so its transform
    # is real; dropping the round-off imaginary part keeps the apply exact
    spectrum = _fft.rfft2(kernel).real * scale
    return BttbOperator(n=n, length=length, spectrum=spectrum)


def bttb_apply(op: BttbOperator, u: np.ndarray) -> np.ndarray:
    """Apply the BTTB operator to an N x N field by pruned 2D FFTs (the
    pass order is in :class:`BttbOperator`)."""
    u = np.asarray(u, dtype=float)
    n, length = op.n, op.length
    if u.shape != (n, n):
        raise ValidationError(f"field shape {u.shape} does not match grid ({n}, {n})")
    spec = _fft.cfft(_fft.rfft(u, axis=1, n=length), axis=0, n=length,
                     overwrite_x=True)
    spec *= op.spectrum
    rows = _fft.cifft(spec, axis=0, overwrite_x=True)[:n]
    return _fft.irfft(rows, n=length, axis=1)[:, :n]


# ---------------------------------------------------------------------------
# tau (sine-transform algebra) preconditioners
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauSpec:
    """Eigenvalues d_pq of a preconditioner for the BTTB systems of the
    unfactored scheme, diagonalized by the orthonormal 2D DST-I. All
    eigenvalues are >= 1 by construction (1 + nonnegative symbol sample)."""

    eigenvalues: np.ndarray


def tau_spec_2d(alpha: float, n: int, factor: float) -> TauSpec:
    """Eigenvalues d_pq = 1 + factor * (s_p + s_q)^{alpha/2} with
    s_p = 4 sin^2(theta_p / 2), theta_p = p pi / (N+1): the sine-transform
    analogue of I + factor * (2D fractional Laplacian), matching its symbol
    at the grid frequencies, diagonal in the tensor DST-I basis."""
    validate_alpha(alpha, allow_classical=True)
    if factor < 0:
        raise ValidationError(f"factor must be >= 0, got {factor}")
    theta = np.pi * np.arange(1, n + 1) / (n + 1)
    s = 4.0 * np.sin(theta / 2.0) ** 2
    return TauSpec(1.0 + factor * (s[:, None] + s[None, :]) ** (alpha / 2.0))


def tau_apply(spec: TauSpec, v: np.ndarray) -> np.ndarray:
    """Apply the inverse preconditioner to an N x N field: sine transform,
    divide by the eigenvalues, transform back."""
    v = np.asarray(v, dtype=float)
    if v.shape != spec.eigenvalues.shape:
        raise ValidationError(
            f"field shape {v.shape} does not match spectrum {spec.eigenvalues.shape}"
        )
    coeff = _fft.dst_type1_ortho(v, axes=(0, 1))
    return _fft.dst_type1_ortho(coeff / spec.eigenvalues, axes=(0, 1))


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcgReport:
    iterations: int
    final_relative_residual: float
    converged: bool


def pcg(
    apply_a: Callable[[np.ndarray], np.ndarray],
    apply_m_inv: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = 1e-11,
    max_iter: int = 500,
    x0: np.ndarray | None = None,
    ax0: np.ndarray | None = None,
) -> tuple[np.ndarray, PcgReport]:
    """Preconditioned conjugate gradients on an SPD operator.

    Works on arrays of any shape (fields included); inner products are full
    contractions. Convergence is declared when the preconditioned residual
    norm sqrt(<r, M^{-1} r>) drops below tol times its value for the zero
    initial guess, i.e. tol * sqrt(<b, M^{-1} b>), making the criterion
    independent of the (possibly warm) starting point. A zero right-hand
    side returns zeros immediately with 0 iterations. ``ax0``, when given
    with ``x0``, is A x0 already computed by the caller: the warm-start
    residual b - ax0 then costs no application of A, and each iteration
    costs one.
    """
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    b = np.asarray(b, dtype=float)
    zb = apply_m_inv(b)
    scale = np.sqrt(float(np.vdot(b, zb).real))
    if scale == 0.0:
        return np.zeros_like(b), PcgReport(0, 0.0, True)

    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float, copy=True)
    if x0 is None:
        r = b.copy()
    else:
        r = b - (apply_a(x) if ax0 is None else ax0)
        del ax0  # the caller's A x0 need not live through the iterations
    z = apply_m_inv(r)
    rho = float(np.vdot(r, z).real)
    rel = np.sqrt(max(rho, 0.0)) / scale
    if rel <= tol:
        return x, PcgReport(0, rel, True)
    p = z.copy()
    for it in range(1, max_iter + 1):
        ap = apply_a(p)
        denom = float(np.vdot(p, ap).real)
        if denom <= 0.0:
            raise SolverError("conjugate gradients met a nonpositive curvature "
                              "direction; operator is not positive definite")
        step = rho / denom
        x += step * p
        r -= step * ap
        z = apply_m_inv(r)
        rho_next = float(np.vdot(r, z).real)
        rel = np.sqrt(max(rho_next, 0.0)) / scale
        if rel <= tol:
            return x, PcgReport(it, rel, True)
        p = z + (rho_next / rho) * p
        rho = rho_next
    return x, PcgReport(max_iter, rel, False)
