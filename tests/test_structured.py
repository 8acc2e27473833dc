"""Structured linear algebra against dense references.

Every fast path (Toeplitz, the four-FFT inverse representation,
block-Toeplitz application, sine-transform preconditioner, PCG) is checked
against an explicit dense matrix built entry by entry.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _oracles as oracle
from fracwave import _fft
from fracwave.coeffs import laplacian_coeffs_2d, riesz_coeffs_1d
from fracwave.errors import SolverError
from fracwave.structured import (
    BttbOperator,
    SymToeplitz,
    bttb_apply,
    bttb_build,
    gs_precompute,
    gs_solve,
    pcg,
    tau_apply,
    tau_spec_2d,
)


def dst1(v: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I of a vector: tau_apply's transform along one axis."""
    return _fft.dst_type1_ortho(v, axes=(-1,))


def _h_first_col(alpha: float, n: int, factor: float) -> np.ndarray:
    col = factor * riesz_coeffs_1d(alpha, n)
    col[0] += 1.0
    return col


class TestSkewCirculant:
    """The dense skew-circulant oracle the inverse tests compare against."""

    def test_wrapped_entries_flip_sign(self):
        # n=3, s=[0,1,0]: the superdiagonal corner picks up -s[1]
        s = np.array([0.0, 1.0, 0.0])
        dense = oracle.dense_skew_circulant(s)
        assert dense[0, 2] == -1.0
        assert dense[1, 0] == 1.0
        assert dense[0, 1] == 0.0


class TestSymToeplitz:
    def test_matches_dense(self, rng):
        for n in (1, 2, 7, 40):
            col = rng.standard_normal(n)
            v = rng.standard_normal(n)
            got = SymToeplitz(first_col=col).matvec(v)
            want = oracle.dense_sym_toeplitz(col) @ v
            np.testing.assert_allclose(got, want, atol=1e-11)

    def test_batched_columns(self, rng):
        n, k = 17, 5
        col = rng.standard_normal(n)
        v = rng.standard_normal((n, k))
        got = SymToeplitz(first_col=col).matvec(v)
        want = oracle.dense_sym_toeplitz(col) @ v
        np.testing.assert_allclose(got, want, atol=1e-11)

    def test_second_difference_stencil(self):
        # first col [2,-1,0,...] acting on all-ones leaves 1 at the ends only
        col = np.zeros(6)
        col[0], col[1] = 2.0, -1.0
        out = SymToeplitz(col).matvec(np.ones(6))
        np.testing.assert_allclose(out, [1, 0, 0, 0, 0, 1], atol=1e-13)

    @given(hnp.arrays(np.float64, st.integers(2, 24),
                      elements=st.floats(-5, 5, allow_nan=False)))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, col):
        n = col.size
        t = SymToeplitz(first_col=col)
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        lhs = t.matvec(2.0 * u - 3.0 * v)
        rhs = 2.0 * t.matvec(u) - 3.0 * t.matvec(v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestGsInverse:
    def test_identity_matrix(self, rng):
        n = 16
        col = np.zeros(n)
        col[0] = 1.0
        data = gs_precompute(col)
        b = rng.standard_normal(n)
        np.testing.assert_allclose(gs_solve(data, b), b, atol=1e-12)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_matches_dense_solve(self, alpha, rng):
        n = 48
        col = _h_first_col(alpha, n, 0.7)
        data = gs_precompute(col)
        b = rng.standard_normal(n)
        want = np.linalg.solve(oracle.dense_sym_toeplitz(col), b)
        np.testing.assert_allclose(gs_solve(data, b), want, atol=1e-11)
        # the paper's H (h = 1/10, tau = 1/20, N = 199): the column
        # c = H^{-1} e_1 behind the inverse is exact up to round-off, and the
        # spectrum is that of c padded with exact zeros to next_fast_len(N)
        n, h, tau = 199, 0.1, 0.05
        col = _h_first_col(alpha, n, 0.5 * tau * tau * h ** (-alpha))
        data = gs_precompute(col)
        assert data.length == 200
        c = np.fft.ifft(data.lambda_c).real
        want = np.linalg.solve(oracle.dense_sym_toeplitz(col), np.eye(n)[:, 0])
        assert np.linalg.norm(c[:n] - want) <= 1e-14 * np.linalg.norm(want)
        levinson = scipy.linalg.solve_toeplitz(col, np.eye(n)[:, 0])
        padded = np.concatenate([levinson, np.zeros(data.length - n)])
        np.testing.assert_array_equal(data.lambda_c, np.fft.fft(padded))

    def test_round_trip(self, rng):
        n = 33
        col = oracle.random_spd_toeplitz(n, rng)
        data = gs_precompute(col)
        t = SymToeplitz(first_col=col)
        b = rng.standard_normal(n)
        np.testing.assert_allclose(t.matvec(gs_solve(data, b)), b, atol=1e-10)

    def test_batched_matches_loop(self, rng):
        n, k = 21, 6
        col = _h_first_col(1.5, n, 1.3)
        data = gs_precompute(col)
        b = rng.standard_normal((n, k))
        got = gs_solve(data, b)
        for j in range(k):
            np.testing.assert_allclose(got[:, j], gs_solve(data, b[:, j]),
                                       atol=1e-12)

    def test_exactly_four_ffts(self, rng):
        # 64 is a fast length: no padding, no correction
        n = 64
        col = _h_first_col(1.5, n, 0.9)
        data = gs_precompute(col)
        assert data.length == n
        assert data.correction.shape == (n, 0)
        for width in (None, 3, 17):
            b = rng.standard_normal(n) if width is None else rng.standard_normal((n, width))
            _fft.COUNTER.reset()
            _fft.COUNTER.enabled = True
            try:
                gs_solve(data, b)
            finally:
                _fft.COUNTER.enabled = False
            assert _fft.COUNTER.calls == 4
            cols = 1 if width is None else width
            assert _fft.COUNTER.transforms == 4 * cols

    def test_memory_layout_does_not_matter(self, rng):
        # the solve copies its input into its own transposed working array,
        # so C-ordered, F-ordered and transposed-view inputs give the same
        # bits at the same four-call budget
        n, k = 40, 7
        col = _h_first_col(1.5, n, 0.9)
        data = gs_precompute(col)
        b = rng.standard_normal((n, k))
        results = []
        for v in (b, np.asfortranarray(b), np.ascontiguousarray(b.T).T):
            _fft.COUNTER.reset()
            _fft.COUNTER.enabled = True
            try:
                results.append(gs_solve(data, v))
            finally:
                _fft.COUNTER.enabled = False
            assert _fft.COUNTER.calls == 4
        for got in results[1:]:
            np.testing.assert_array_equal(got, results[0])
        want = np.linalg.solve(oracle.dense_sym_toeplitz(col), b)
        np.testing.assert_allclose(results[0], want, atol=1e-12)

    def test_skew_spectrum_nonzero_and_matches_dense_eigs(self, rng):
        # the skew-circulant factor must be invertible; its spectrum is
        # checked against dense eigenvalues for every n up to 64. It is
        # built at next_fast_len(n) from the zero-padded inverse column
        # (n = 17 pads to 18)
        for n in (4, 17, 64):
            col = _h_first_col(1.7, n, 1.1)
            data = gs_precompute(col)
            assert np.min(np.abs(data.lambda_s)) > 1e-12
            m = data.length
            s = np.zeros(m)
            s[0] = data.p1
            # remaining entries of the skew-circulant first column
            c = np.zeros(m)
            c[:n] = np.linalg.solve(oracle.dense_sym_toeplitz(col), np.eye(n)[:, 0])
            s[1:] = -c[1:][::-1]
            dense = oracle.dense_skew_circulant(s)
            got = np.sort_complex(np.round(data.lambda_s, 9))
            want = np.sort_complex(np.round(np.linalg.eigvals(dense), 9))
            np.testing.assert_allclose(got, want, atol=1e-7)

    @pytest.mark.parametrize("n", [61, 97, 199, 1021, 1816])
    @pytest.mark.parametrize("kind", ["riesz-1.1", "riesz-1.5", "riesz-1.9",
                                      "random"])
    def test_non_fast_length_matches_dense(self, n, kind, rng):
        # N is embedded at next_fast_len(N) > N (1816 pads by k = 32) and
        # corrected by a rank-k update, still at four calls and 4 * cols
        # transforms; the input layout does not change a bit of the result
        if kind == "random":
            col = oracle.random_spd_toeplitz(n, rng)
        else:
            col = _h_first_col(float(kind.split("-")[1]), n, 0.9)
        data = gs_precompute(col)
        assert data.length == _fft.next_fast_len(n) > n
        assert data.correction.shape == (n, data.length - n)
        cols = 5
        b = rng.standard_normal((n, cols))
        results = []
        for v in (b, np.asfortranarray(b), np.ascontiguousarray(b.T).T):
            _fft.COUNTER.reset()
            _fft.COUNTER.enabled = True
            try:
                results.append(gs_solve(data, v))
            finally:
                _fft.COUNTER.enabled = False
            assert _fft.COUNTER.calls == 4
            assert _fft.COUNTER.transforms == 4 * cols
        for got in results[1:]:
            np.testing.assert_array_equal(got, results[0])
        want = np.linalg.solve(oracle.dense_sym_toeplitz(col), b)
        err = np.linalg.norm(results[0] - want) / np.linalg.norm(want)
        assert err <= 1e-12
        single = gs_solve(data, b[:, 0])
        assert single.shape == (n,)
        np.testing.assert_allclose(single, results[0][:, 0], rtol=0, atol=1e-14
                                   * np.abs(results[0][:, 0]).max())

    def test_first_unit_solve_positive(self):
        col = _h_first_col(1.2, 40, 2.0)
        data = gs_precompute(col)
        assert data.p1 > 0.0

    def test_indefinite_matrix_rejected(self):
        col = np.zeros(8)
        col[1] = 1.0  # zero diagonal: not positive definite
        with pytest.raises(SolverError):
            gs_precompute(col)


class TestBttb:
    @pytest.mark.parametrize("alpha", [1.1, 1.9])
    def test_matches_dense_full_stencil(self, alpha, rng):
        n = 7
        quad = laplacian_coeffs_2d(alpha, n, oversampling=16)
        op = bttb_build(quad, n, scale=0.37)
        dense = oracle.dense_cross_2d(quad, n, scale=0.37)
        u = rng.standard_normal((n, n))
        got = bttb_apply(op, u)
        want = oracle.unvec_f(dense @ oracle.vec_f(u), n)
        np.testing.assert_allclose(got, want, atol=1e-11)

    def test_matches_dense_cross_stencil(self, rng):
        n = 6
        # delta_x + delta_y: 2 a_0 at the centre, the 1D weights along the
        # two axes, zero elsewhere
        w = riesz_coeffs_1d(1.5, n)
        quad = np.zeros((n, n))
        quad[0, :] = w
        quad[:, 0] = w
        quad[0, 0] = 2.0 * w[0]
        op = bttb_build(quad, n, scale=1.0)
        dense = oracle.dense_riesz_sum_2d(1.5, n)
        u = rng.standard_normal((n, n))
        got = bttb_apply(op, u)
        want = oracle.unvec_f(dense @ oracle.vec_f(u), n)
        np.testing.assert_allclose(got, want, atol=1e-11)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 33])
    def test_matches_padded_reference(self, n, rng):
        # n = 7 and n = 33 embed into L = 15 and L = 72, both > 2n
        quad = laplacian_coeffs_2d(1.5, n)
        op = bttb_build(quad, n, scale=2.3)
        u = rng.standard_normal((n, n))
        want = oracle.padded_bttb_apply(op, u)
        got = bttb_apply(op, u)
        assert got.shape == (n, n)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_classical_five_point(self):
        # alpha = 2: interior action is the negated 5-point Laplacian
        n = 8
        quad = laplacian_coeffs_2d(2.0, n, oversampling=16)
        op = bttb_build(quad, n, scale=1.0)
        u = np.zeros((n, n))
        u[4, 4] = 1.0
        out = bttb_apply(op, u)
        assert out[4, 4] == pytest.approx(4.0, abs=1e-10)
        assert out[3, 4] == pytest.approx(-1.0, abs=1e-10)
        assert out[4, 3] == pytest.approx(-1.0, abs=1e-10)
        assert out[3, 3] == pytest.approx(0.0, abs=1e-10)

    def test_symmetric_and_positive(self, rng):
        n = 9
        quad = laplacian_coeffs_2d(1.5, n)
        op = bttb_build(quad, n, scale=1.0)
        u = rng.standard_normal((n, n))
        v = rng.standard_normal((n, n))
        lhs = np.vdot(bttb_apply(op, u), v)
        rhs = np.vdot(u, bttb_apply(op, v))
        assert lhs == pytest.approx(rhs, rel=1e-11)
        quad_form = np.vdot(u, bttb_apply(op, u))
        assert quad_form > 0.0

    def test_operator_metadata(self):
        n = 5
        op = bttb_build(laplacian_coeffs_2d(1.5, n), n, scale=2.0)
        assert isinstance(op, BttbOperator)
        assert op.n == n
        assert op.length >= 2 * n


class TestExactOperator:
    """The BTTB stencil against the closed form of (-Delta)^{alpha/2} of a
    Gaussian on (-10, 10)^2, where the paper claims O(h^2)."""

    # max error at h = 1/16
    FINEST_ERROR = {1.1: 1.586e-3, 1.5: 3.329e-3, 1.9: 6.608e-3}

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_second_order_on_gaussian(self, alpha):
        errors = []
        for per_unit in (2, 4, 8, 16):
            h = 1.0 / per_unit
            n = 20 * per_unit - 1
            x = -10.0 + h * np.arange(1, n + 1)
            r2 = x[:, None] ** 2 + x[None, :] ** 2
            op = bttb_build(laplacian_coeffs_2d(alpha, n), n, h ** -alpha)
            exact = oracle.frac_laplacian_of_gaussian(alpha, r2)
            errors.append(np.max(np.abs(op.apply(np.exp(-r2)) - exact)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 1.9), orders
        assert errors[-1] == pytest.approx(self.FINEST_ERROR[alpha], rel=0.01)


class TestSineTransform:
    def test_involution(self, rng):
        for n in (1, 2, 9, 32):
            v = rng.standard_normal(n)
            np.testing.assert_allclose(dst1(dst1(v)), v, atol=1e-12)

    def test_matches_naive_sum(self, rng):
        # orthonormal DST-I: y_p = sqrt(2/(n+1)) sum_k v_k sin(pi p k / (n+1))
        n = 6
        v = rng.standard_normal(n)
        k = np.arange(1, n + 1)
        want = np.array([np.sqrt(2.0 / (n + 1))
                         * np.sum(v * np.sin(np.pi * p * k / (n + 1)))
                         for p in k])
        np.testing.assert_allclose(dst1(v), want, atol=1e-12)

    def test_diagonalizes_second_difference(self, rng):
        n = 10
        col = np.zeros(n)
        col[0], col[1] = 2.0, -1.0
        t = oracle.dense_sym_toeplitz(col)
        s = np.column_stack([dst1(e) for e in np.eye(n)])
        d = s @ t @ s
        theta = np.pi * np.arange(1, n + 1) / (n + 1)
        np.testing.assert_allclose(np.diag(d), 4.0 * np.sin(theta / 2.0) ** 2,
                                   atol=1e-12)
        np.testing.assert_allclose(d - np.diag(np.diag(d)), 0.0, atol=1e-12)


class TestTauPreconditioner:
    def test_eigenvalues_at_least_one(self):
        for alpha in (1.1, 1.9):
            spec = tau_spec_2d(alpha, 20, factor=0.25)
            assert np.all(spec.eigenvalues >= 1.0)

    def test_zero_factor_is_identity(self, rng):
        spec = tau_spec_2d(1.5, 12, factor=0.0)
        v = rng.standard_normal((12, 12))
        np.testing.assert_allclose(tau_apply(spec, v), v, atol=1e-12)

    def test_classical_closed_form(self, rng):
        # alpha = 2: the sine transform diagonalizes the 5-point Laplacian,
        # so the preconditioner inverts I + factor * (5-point Laplacian)
        n, factor = 7, 0.5
        spec = tau_spec_2d(2.0, n, factor)
        t1 = oracle.dense_sym_toeplitz(np.r_[2.0, -1.0, np.zeros(n - 2)])
        five_point = np.kron(np.eye(n), t1) + np.kron(t1, np.eye(n))
        a_dense = np.eye(n * n) + factor * five_point
        b = rng.standard_normal((n, n))
        x = oracle.unvec_f(a_dense @ oracle.vec_f(b), n)
        np.testing.assert_allclose(tau_apply(spec, x), b, atol=1e-10)

    def test_apply_inverts_dense_matrix(self, rng):
        n, alpha, factor = 5, 1.6, 0.8
        spec = tau_spec_2d(alpha, n, factor)
        s = np.column_stack([dst1(e) for e in np.eye(n)])
        s2 = np.kron(s, s)
        dense = s2 @ np.diag(oracle.vec_f(spec.eigenvalues)) @ s2
        v = rng.standard_normal((n, n))
        want = oracle.unvec_f(np.linalg.solve(dense, oracle.vec_f(v)), n)
        np.testing.assert_allclose(tau_apply(spec, v), want, atol=1e-11)

    def test_2d_tensor_structure(self, rng):
        n, alpha, factor = 6, 1.4, 0.6
        spec = tau_spec_2d(alpha, n, factor)
        theta = np.pi * np.arange(1, n + 1) / (n + 1)
        s1 = 4.0 * np.sin(theta / 2.0) ** 2
        want = 1.0 + factor * (s1[:, None] + s1[None, :]) ** (alpha / 2.0)
        np.testing.assert_allclose(spec.eigenvalues, want, atol=1e-13)


class TestPcg:
    def test_identity_converges_immediately(self, rng):
        b = rng.standard_normal(20)
        x, report = pcg(lambda v: v, lambda v: v, b, tol=1e-12)
        np.testing.assert_allclose(x, b, atol=1e-12)
        assert report.iterations == 1
        assert report.converged

    def test_zero_rhs_returns_zero(self):
        x, report = pcg(lambda v: 2.0 * v, lambda v: v, np.zeros(7), tol=1e-12)
        assert np.all(x == 0.0)
        assert report.iterations == 0
        assert report.converged

    def test_exact_warm_start(self, rng):
        n = 15
        col = oracle.random_spd_toeplitz(n, rng)
        t = SymToeplitz(first_col=col)
        b = rng.standard_normal(n)
        x_star = np.linalg.solve(oracle.dense_sym_toeplitz(col), b)
        x, report = pcg(t.matvec, lambda v: v, b, tol=1e-10, x0=x_star)
        assert report.iterations <= 1
        np.testing.assert_allclose(x, x_star, atol=1e-9)

    def test_dense_2d_system(self, rng):
        # full (I + c L) solve on a 16x16 grid against numpy.linalg.solve
        n, alpha, h, tau = 16, 1.5, 0.2, 0.05
        factor = 0.5 * tau * tau * h ** (-alpha)
        lap = oracle.dense_laplacian_2d(alpha, n, h ** (-alpha))
        a_dense = np.eye(n * n) + 0.5 * tau * tau * lap
        quad = laplacian_coeffs_2d(alpha, n)
        op = bttb_build(quad, n, scale=0.5 * tau * tau * h ** (-alpha))
        spec = tau_spec_2d(alpha, n, factor)
        b = rng.standard_normal((n, n))

        def apply_a(u):
            return u + bttb_apply(op, u)

        x, report = pcg(apply_a, lambda r: tau_apply(spec, r), b, tol=1e-13,
                        max_iter=200)
        want = oracle.unvec_f(np.linalg.solve(a_dense, oracle.vec_f(b)), n)
        assert report.converged
        np.testing.assert_allclose(x, want, atol=1e-10)

    def test_indefinite_operator_rejected(self, rng):
        b = rng.standard_normal(6)
        with pytest.raises(SolverError):
            pcg(lambda v: -v, lambda v: v, b, tol=1e-12)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_preconditioned_iterations_stay_small(self, alpha):
        # the baseline's (I + c L) system: 5 iterations at n=64 with the 2D
        # sine-transform preconditioner (10-27 without); the bound is the
        # contract, with slack for different BLAS/FFT stacks
        n, h, tau = 64, 0.1, 0.1
        factor = 0.5 * tau * tau * h ** (-alpha)
        op = bttb_build(laplacian_coeffs_2d(alpha, n), n, scale=factor)
        spec = tau_spec_2d(alpha, n, factor)
        b = np.random.default_rng(512).standard_normal((n, n))
        _, report = pcg(lambda u: u + bttb_apply(op, u),
                        lambda r: tau_apply(spec, r), b, tol=1e-13, max_iter=60)
        assert report.converged
        assert report.iterations <= 8
