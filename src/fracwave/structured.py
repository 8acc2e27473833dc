"""Structured linear algebra kernels.

Everything the time steppers and their diagnostics need reduces to three
structured-matrix tools:

* a direct solver for symmetric positive definite Toeplitz systems based on
  the Gohberg-Semencul representation of the inverse: one Levinson solve
  gives c = H^{-1} e_1, H^{-1} then factorizes into one circulant and one
  skew-circulant built from c, both diagonal in Fourier space and applied
  in place, so every subsequent solve costs exactly four FFTs of length
  next_fast_len(N) (a bad N is embedded in a larger Toeplitz system and
  corrected by a rank-k update, k = next_fast_len(N) - N),
* a block-Toeplitz-Toeplitz-block (BTTB) matvec via 2D circulant embedding
  on an even L x L torus, its real spectrum stored as the (L/2 + 1)^2
  quarter that a 2D DCT-I of the quadrant gives, and applied by pruned
  transforms over column and row blocks of a fixed byte budget, so no
  L x L array is ever built: the fractional Laplacian and the separable
  delta_x + delta_y of the energy norms are both applied this way,
* a 2D sine-transform (tau algebra) preconditioner and a PCG loop for the
  systems that are BTTB but not factorable.

Dense constructions live only in the test suite; all operators here are
matrix-free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.linalg.blas

from . import _fft
from .coeffs import validate_alpha
from .errors import SolverError, ValidationError

__all__ = [
    "GSData",
    "BttbOperator",
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

# Bytes of working array that one column block of the BTTB apply's axis-0
# passes (L x width complex) or one row block of its last pass (rows x L
# real) may hold: about one core's L2 cache.
_BLOCK_BYTES = 2 * 2**20


@dataclass(frozen=True)
class BttbOperator:
    """Block-Toeplitz-Toeplitz-block operator on N x N fields.

    The doubly Toeplitz matrix with entries scale * a_{|i-p|, |j-q|} embeds
    into a block-circulant-circulant-block matrix on an L x L torus, L = 2K
    with K = next_fast_real_len(N) >= N, where it is diagonal in 2D Fourier
    space. The embedded kernel is real and even in both axes, so its
    spectrum is real and even too: row (or column) L - p equals row p.
    ``spectrum`` holds only the (K + 1) x (K + 1) quarter of frequencies
    0 ... K in each axis, the 2D DCT-I of the quadrant zero-padded to
    (K + 1) x (K + 1) (Martucci 1994); frequencies K + 1 ... L - 1 read it
    through the reversed view ``spectrum[K - 1:0:-1]``.

    An application never builds the zero-padded L x L field. It transforms
    the N rows along axis 1 (N x (K + 1) complex). Then, one column block
    at a time, it copies the block's columns into one reused L-row buffer
    zero-padded below row N, runs the axis-0 transform, the spectrum
    product and the inverse in place, and writes the block's first N rows
    back. The inverse along axis 1 runs over row blocks into the N x N
    result. A block holds at most ``_BLOCK_BYTES`` of working array (but
    no fewer than eight columns or one row).
    """

    n: int
    length: int
    spectrum: np.ndarray

    def apply(self, u: np.ndarray) -> np.ndarray:
        return bttb_apply(self, u)


def bttb_build(quadrant: np.ndarray, n: int, scale: float = 1.0) -> BttbOperator:
    """Build the BTTB operator for a coefficient quadrant and grid size n:
    the quarter spectrum as one DCT-I along each axis of the zero-padded
    n x n corner of the quadrant, in place (see :class:`BttbOperator`)."""
    quad = np.asarray(quadrant, dtype=float)
    if quad.shape[0] < n or quad.shape[1] < n:
        raise ValidationError(
            f"coefficient quadrant {quad.shape} too small for grid size {n}"
        )
    half = _fft.next_fast_real_len(n)
    quarter = np.zeros((half + 1, half + 1))
    quarter[:n, :n] = quad[:n, :n]
    quarter = _fft.dct_type1_inplace(quarter, axis=1)
    quarter = _fft.dct_type1_inplace(quarter, axis=0)
    quarter *= scale
    return BttbOperator(n=n, length=2 * half, spectrum=quarter)


def bttb_apply(op: BttbOperator, u: np.ndarray) -> np.ndarray:
    """Apply the BTTB operator to an N x N field by pruned, blocked 2D FFTs
    (the passes are in :class:`BttbOperator`).

    The result is a C-contiguous N x N array that owns its memory: each
    row block of the last pass is cropped into it, so no N x L array is
    kept or pinned."""
    u = np.asarray(u, dtype=float)
    n, length = op.n, op.length
    if u.shape != (n, n):
        raise ValidationError(f"field shape {u.shape} does not match grid ({n}, {n})")
    half = length // 2
    quarter = op.spectrum
    mirror = quarter[half - 1:0:-1]
    spec = _fft.rfft(u, axis=1, n=length)
    width = min(half + 1, max(8, _BLOCK_BYTES // (16 * length)))
    buffer = np.empty(length * width, dtype=complex)
    for start in range(0, half + 1, width):
        cols = slice(start, min(start + width, half + 1))
        # the block's columns of spec, zero-padded to L rows in the buffer
        block = buffer[:length * (cols.stop - start)].reshape(length, -1)
        block[:n] = spec[:, cols]
        block[n:] = 0.0
        block = _fft.cfft(block, axis=0, overwrite_x=True)
        block[:half + 1] *= quarter[:, cols]
        block[half + 1:] *= mirror[:, cols]
        spec[:, cols] = _fft.cifft(block, axis=0, overwrite_x=True)[:n]
    del buffer, block  # free before the last pass allocates its own blocks
    out = np.empty((n, n))
    rows = max(1, _BLOCK_BYTES // (8 * length))
    for start in range(0, n, rows):
        out[start:start + rows] = _fft.irfft(spec[start:start + rows], n=length,
                                             axis=1)[:, :n]
    return out


# ---------------------------------------------------------------------------
# tau (sine-transform algebra) preconditioners
# ---------------------------------------------------------------------------

def tau_spec_2d(alpha: float, n: int, factor: float) -> np.ndarray:
    """Eigenvalues d_pq = 1 + factor * (s_p + s_q)^{alpha/2} with
    s_p = 4 sin^2(theta_p / 2), theta_p = p pi / (N+1), of a preconditioner
    for the BTTB systems of the unfactored scheme: the sine-transform
    analogue of I + factor * (2D fractional Laplacian), matching its symbol
    at the grid frequencies, diagonal in the orthonormal tensor DST-I
    basis. All are >= 1 (1 + nonnegative symbol sample)."""
    validate_alpha(alpha, allow_classical=True)
    if factor < 0:
        raise ValidationError(f"factor must be >= 0, got {factor}")
    theta = np.pi * np.arange(1, n + 1) / (n + 1)
    s = 4.0 * np.sin(theta / 2.0) ** 2
    return 1.0 + factor * (s[:, None] + s[None, :]) ** (alpha / 2.0)


def tau_apply(eigenvalues: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the inverse preconditioner with the ``tau_spec_2d`` eigenvalues
    to an N x N field: sine transform, divide by the eigenvalues, transform
    back. The division runs in place on the first transform's output, and
    the second transform may overwrite that buffer, so an apply allocates
    no more than its two transforms need."""
    v = np.asarray(v, dtype=float)
    if v.shape != eigenvalues.shape:
        raise ValidationError(
            f"field shape {v.shape} does not match spectrum {eigenvalues.shape}"
        )
    coeff = _fft.dst_type1_ortho(v, axes=(0, 1))
    coeff /= eigenvalues
    return _fft.dst_type1_ortho(coeff, axes=(0, 1), overwrite_x=True)


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
    x0: np.ndarray,
    ax0: np.ndarray,
    m_inv_ax0: np.ndarray,
    tol: float = 1e-11,
    max_iter: int = 500,
) -> tuple[np.ndarray, PcgReport, np.ndarray, np.ndarray]:
    """Preconditioned conjugate gradients on an SPD operator, continued
    from x0 with its A x0 (``ax0``) and M^{-1} A x0 (``m_inv_ax0``) made by
    the caller. A cold start passes zeros for all three.

    Works on arrays of any shape (fields included); inner products are full
    contractions. Convergence is declared when the preconditioned residual
    norm sqrt(<r, M^{-1} r>) drops below tol times its value for the zero
    initial guess, i.e. tol * sqrt(<b, M^{-1} b>), making the criterion
    independent of the (possibly warm) starting point; tol lies in (0, 1),
    since at 1 or more the zero guess itself would pass. A zero right-hand
    side returns zeros immediately with 0 iterations. The start's residual
    b - ax0 and its preconditioned form M^{-1} b - m_inv_ax0 cost no
    apply, so a solve applies M^{-1} once outside its iterations (for the
    scale), and each iteration applies A and M^{-1} once.

    Returns x, the report, A x and M^{-1} A x, formed at exit as b - r (in
    r's memory) and M^{-1} b - z from the recursive residual r and its
    preconditioned z, with no application. They differ from fresh applies
    by the round-off the iterations accumulate (van der Vorst & Ye 2000)
    and by any error ``ax0`` and ``m_inv_ax0`` brought in.

    The iterations update x, r and p in place, with one scratch array per
    solve, and never write into an array the callables returned, so either
    may return its input.
    """
    if not 0 < tol < 1:
        raise ValidationError(f"tol must lie in (0, 1), got {tol}")
    b = np.asarray(b, dtype=float)
    zb = apply_m_inv(b)
    scale = np.sqrt(float(np.vdot(b, zb).real))
    if scale == 0.0:
        return (np.zeros_like(b), PcgReport(0, 0.0, True), np.zeros_like(b),
                np.zeros_like(b))

    x = np.array(x0, dtype=float, copy=True)
    r = b - ax0
    z = zb - m_inv_ax0
    del ax0, m_inv_ax0  # the caller's arrays need not live through the loop
    rho = float(np.vdot(r, z).real)
    rel = np.sqrt(max(rho, 0.0)) / scale
    it = 0
    p = z.copy()
    scratch = np.empty_like(b)
    while it < max_iter and rel > tol:
        it += 1
        ap = apply_a(p)
        denom = float(np.vdot(p, ap).real)
        if denom <= 0.0:
            raise SolverError("conjugate gradients met a nonpositive curvature "
                              "direction; operator is not positive definite")
        step = rho / denom
        x += np.multiply(step, p, out=scratch)
        r -= np.multiply(step, ap, out=scratch)
        z = apply_m_inv(r)
        rho_next = float(np.vdot(r, z).real)
        rel = np.sqrt(max(rho_next, 0.0)) / scale
        p *= rho_next / rho
        p += z
        rho = rho_next
    m_inv_ax = zb - z  # before r is overwritten: z may be r itself
    return x, PcgReport(it, rel, bool(rel <= tol)), np.subtract(b, r, out=r), m_inv_ax
