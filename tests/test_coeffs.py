"""Coefficient tables: recurrence, transform-based 2D table, quadrature oracle.

The frozen numbers below were produced by two independent routes and agree:

* 1D: the closed Gamma-function form evaluated with ``math.gamma``
* 2D: adaptive quadrature (``coeff_quadrature_oracle``) at tol=1e-12
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from fracwave.coeffs import (
    QuadratureError,
    coeff_quadrature_oracle,
    laplacian_coeffs_2d,
    riesz_coeffs_1d,
    validate_alpha,
)
from fracwave.errors import ValidationError

# (alpha, k) -> (-1)^k Gamma(alpha+1) / (Gamma(alpha/2-k+1) Gamma(alpha/2+k+1))
GAMMA_1D = {
    (1.1, 0): 1.3245198651370389,
    (1.1, 1): -0.46999091988733621,
    (1.1, 2): -0.082939574097765187,
    (1.1, 5): -0.011339195673990976,
    (1.1, 20): -0.00061004869908392104,
    (1.5, 0): 1.5737874653547947,
    (1.5, 1): -0.67448034229491194,
    (1.5, 2): -0.061316394754082945,
    (1.5, 5): -0.0054721725295405798,
    (1.5, 20): -0.00016749063861871237,
    (1.9, 0): 1.9031656067116298,
    (1.9, 1): -0.92718324429540888,
    (1.9, 2): -0.015714970242295071,
    (1.9, 5): -0.00088682372291748034,
    (1.9, 20): -1.5381255155931845e-05,
}

# (alpha, i, j) -> adaptive double quadrature of the 2D symbol, tol=1e-12
QUAD_2D = {
    (1.1, 0, 0): 2.056343949863995,
    (1.1, 1, 0): -0.32490783003159607,
    (1.1, 1, 1): -0.048539176206764414,
    (1.1, 2, 1): -0.013506529947278717,
    (1.1, 3, 2): -0.0030701300353891737,
    (1.1, 4, 4): -0.00076907211975076886,
    (1.5, 0, 0): 2.7470661362816475,
    (1.5, 1, 0): -0.55402517480783242,
    (1.5, 1, 1): -0.044076905594116977,
    (1.5, 2, 1): -0.010080354313202628,
    (1.5, 3, 2): -0.0018594177921877927,
    (1.5, 4, 4): -0.00038765839644905081,
    (1.9, 0, 0): 3.7064113761108293,
    (1.9, 1, 0): -0.89253411469478117,
    (1.9, 1, 1): -0.013629749151060086,
    (1.9, 2, 1): -0.0025043774353206072,
    (1.9, 3, 2): -0.00037145053431835953,
    (1.9, 4, 4): -6.4279134823505454e-05,
}


def direct_gamma(alpha: float, k: int) -> float:
    return ((-1) ** k * math.gamma(alpha + 1.0)
            / (math.gamma(alpha / 2.0 - k + 1.0) * math.gamma(alpha / 2.0 + k + 1.0)))


class TestRiesz1D:
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_matches_gamma_formula(self, alpha):
        w = riesz_coeffs_1d(alpha, 21)
        for k in range(21):
            assert w[k] == pytest.approx(direct_gamma(alpha, k), abs=1e-13)

    def test_frozen_values(self):
        for (alpha, k), ref in GAMMA_1D.items():
            w = riesz_coeffs_1d(alpha, k + 1)
            assert w[k] == pytest.approx(ref, rel=1e-13)

    def test_classical_limit(self):
        # alpha = 2 must collapse to the second-difference stencil
        w = riesz_coeffs_1d(2.0, 6)
        assert w[0] == pytest.approx(2.0, abs=1e-14)
        assert w[1] == pytest.approx(-1.0, abs=1e-14)
        assert np.all(np.abs(w[2:]) < 1e-14)

    @given(alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
           count=st.integers(2, 200))
    @settings(max_examples=60, deadline=None)
    def test_sign_pattern(self, alpha, count):
        w = riesz_coeffs_1d(alpha, count)
        assert w[0] > 0
        assert np.all(w[1:] < 0)
        assert np.all(np.isfinite(w))
        # magnitudes decay monotonically after the first off-diagonal
        assert np.all(np.diff(-w[1:]) <= 0)

    def test_truncated_sum_vanishes(self):
        # the symbol is 0 at frequency 0, so a_0 + 2 sum_k a_k -> 0
        for alpha in (1.1, 1.5, 1.9):
            prev = None
            for count in (256, 1024, 4096):
                w = riesz_coeffs_1d(alpha, count)
                s = abs(w[0] + 2.0 * w[1:].sum())
                if prev is not None:
                    assert s < prev
                prev = s
            assert prev < 1e-4

    def test_count_property(self):
        assert riesz_coeffs_1d(1.5, 7).shape == (7,)


class TestLaplacian2D:
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_matches_quadrature_fixture(self, alpha):
        quad = laplacian_coeffs_2d(alpha, 5, oversampling=64)
        for (a, i, j), ref in QUAD_2D.items():
            if a == alpha:
                assert quad[i, j] == pytest.approx(ref, abs=1e-8)

    def test_live_quadrature_agreement(self):
        # spot-check the transform against live adaptive quadrature
        quad = laplacian_coeffs_2d(1.5, 3, oversampling=64)
        for i, j in ((0, 0), (2, 1)):
            ref = coeff_quadrature_oracle(1.5, i, j, tol=1e-10)
            assert quad[i, j] == pytest.approx(ref, abs=1e-8)

    def test_classical_limit_is_five_point(self):
        quad = laplacian_coeffs_2d(2.0, 4, oversampling=16)
        assert quad[0, 0] == pytest.approx(4.0, abs=1e-12)
        assert quad[1, 0] == pytest.approx(-1.0, abs=1e-12)
        assert quad[0, 1] == pytest.approx(-1.0, abs=1e-12)
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 0] = mask[0, 1] = False
        assert np.all(np.abs(quad[mask]) < 1e-12)

    def test_symmetry_and_signs(self):
        quad = laplacian_coeffs_2d(1.3, 6, oversampling=16)
        assert np.array_equal(quad, quad.T)
        assert quad[0, 0] > 0
        off = quad.copy()
        off[0, 0] = 0.0
        assert np.all(off <= 1e-12)
        # exact across the blocks the quadrant is mirrored in
        quad = laplacian_coeffs_2d(1.3, 300)
        assert np.array_equal(quad, quad.T)

    def test_oversampling_refines(self):
        ref = laplacian_coeffs_2d(1.1, 5, oversampling=256)
        errs = [np.max(np.abs(laplacian_coeffs_2d(1.1, 5, oversampling=o) - ref))
                for o in (8, 32, 128)]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("alpha", [1.001, 1.05, 1.1, 1.5, 1.9, 1.95, 1.999, 2.0])
    def test_matches_one_shot_transform(self, alpha):
        # the exponential sum is checked where its integral is hardest: alpha
        # near both ends, few nodes (M = 2 at count 1, oversampling 2), the
        # widest node range (oversampling 256), blocks of 128 rows mirrored
        # (counts 129, 130, 399)
        cases = [(count, 8) for count in (1, 3, 63, 64, 65, 129, 130)]
        cases += [(count, o) for count in (1, 2, 5) for o in (2, 16, 64, 256)]
        if alpha in (1.1, 1.5, 1.9):
            cases.append((399, 8))
        for count, o in cases:
            got = laplacian_coeffs_2d(alpha, count, oversampling=o)
            want = oracle.one_shot_laplacian_coeffs_2d(alpha, count, oversampling=o)
            assert got.shape == (count, count)
            assert np.max(np.abs(got - want)) <= 1e-15, (count, o)

    def test_never_holds_the_sample_grid(self):
        # N = 799 samples a 4097 x 4097 grid (128 MiB, twice over in the
        # one-shot form); the exponential sum holds its ~210 x 4097 DCT-I
        # rows (6.5 MiB) and the 799 x 799 result, so a count x 4097 first
        # pass (25 MiB) would break the bound
        tracemalloc.start()
        try:
            laplacian_coeffs_2d(1.5, 799)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20

    def test_count_and_shape(self):
        assert laplacian_coeffs_2d(1.5, 9).shape == (9, 9)

    def test_sampling_budget_enforced(self):
        with pytest.raises(ValidationError):
            laplacian_coeffs_2d(1.5, 9000, oversampling=8)


class TestValidation:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.5, float("nan")])
    def test_alpha_open_interval(self, alpha):
        with pytest.raises(ValidationError):
            validate_alpha(alpha)

    def test_alpha_classical_allowed_when_requested(self):
        validate_alpha(2.0, allow_classical=True)
        with pytest.raises(ValidationError):
            validate_alpha(2.0000001, allow_classical=True)

    def test_count_positive(self):
        with pytest.raises(ValidationError):
            riesz_coeffs_1d(1.5, 0)
        with pytest.raises(ValidationError):
            laplacian_coeffs_2d(1.5, 0)
