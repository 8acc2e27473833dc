"""Benchmark reproduction gate.

Nine checks, each asserting a published-value or structural contract with a
pinned tolerance. Every check registers a PASS/FAIL line that pytest prints
in the terminal summary, so the whole gate is readable at a glance:

    pytest tests/test_acceptance.py -q

Runtime is dominated by the three table reproductions (several minutes
total on one core). ``pytest -m "not acceptance"`` skips this module for
quick development loops.
"""

import math
import time

import numpy as np
import pytest

import _oracles as oracle
from conftest import record_acceptance
from fracwave import _fft
from fracwave.coeffs import (
    coeff_quadrature_oracle,
    laplacian_coeffs_2d,
    riesz_coeffs_1d,
)
from fracwave.harness import (
    EnergyTrace,
    discrete_energy,
    inner_product,
    refinement_rows,
    splitting_gap,
)
from fracwave.problems import Grid2D, example_problem, resolve_nonlinearity
from fracwave.stepper import (
    build_operators,
    nonadi_first_step,
    nonadi_step,
    run,
    sadi_first_step,
    sadi_step,
)
from fracwave.structured import gs_precompute, gs_solve
from test_stepper import DenseScheme, gaussian_problem

pytestmark = pytest.mark.acceptance

# Published space-refinement benchmark (sine-Gordon, tau = 1/100, t = 5):
# h in {1, 1/2, 1/4, 1/8}, per-alpha errors and the orders between rows.
TABLE_SPACE = {
    1.1: ([6.3150e-2, 1.3930e-2, 3.5042e-3, 9.0305e-4],
          [2.1806, 1.9910, 1.9562]),
    1.5: ([8.1276e-2, 2.0729e-2, 5.1991e-3, 1.3009e-3],
          [1.9712, 1.9953, 1.9988]),
    1.9: ([1.0716e-1, 2.7583e-2, 6.9475e-3, 1.7379e-3],
          [1.9579, 1.9892, 1.9991]),
}

# Published time-refinement rows (sine-Gordon, h = 1/40, t = 5, alpha = 1.5).
TABLE_TIME_ERRORS = (8.9900e-3, 2.2583e-3)
TABLE_TIME_ORDER = 1.9931

# Published time-refinement head row (Klein-Gordon, h = 1/50, t = 8,
# alpha = 1.1): error at tau = 4/25 and the order at tau = 2/25.
TABLE_KG_ERROR = 2.2313e-1
TABLE_KG_ORDER = 1.9463


def test_01_space_convergence_table():
    """Full space-refinement table: 3 alphas x 4 rows, errors 2%, orders 0.03."""
    worst_rel, worst_ord = 0.0, 0.0
    t0 = time.time()
    for alpha, (ref_errors, ref_orders) in TABLE_SPACE.items():
        problem = example_problem("sine-gordon", alpha)
        rows = refinement_rows(problem, "space", [1.0, 0.5, 0.25, 0.125],
                               1.0 / 100.0, 5.0)
        for k, row in enumerate(rows):
            worst_rel = max(worst_rel,
                            abs(row.error - ref_errors[k]) / ref_errors[k])
            if k > 0:
                worst_ord = max(worst_ord, abs(row.order - ref_orders[k - 1]))
    ok = worst_rel <= 0.02 and worst_ord <= 0.03
    record_acceptance(
        "1 space-refinement table (sine-Gordon, 3 alphas)", ok,
        f"max error dev {worst_rel:.2%}, max order dev {worst_ord:.4f}, "
        f"{time.time() - t0:.0f}s")
    assert worst_rel <= 0.02
    assert worst_ord <= 0.03


def test_02_time_convergence_spot():
    """Time-refinement rows at the production grid: errors 2%, order 0.03."""
    problem = example_problem("sine-gordon", 1.5)
    rows = refinement_rows(problem, "time", [0.1, 0.05], 1.0 / 40.0, 5.0)
    rels = [abs(rows[k].error - TABLE_TIME_ERRORS[k]) / TABLE_TIME_ERRORS[k]
            for k in range(2)]
    dev = abs(rows[1].order - TABLE_TIME_ORDER)
    ok = max(rels) <= 0.02 and dev <= 0.03
    record_acceptance(
        "2 time-refinement spot check (sine-Gordon, N=799)", ok,
        f"errors {rows[0].error:.4e}/{rows[1].error:.4e}, "
        f"order {rows[1].order:.4f}")
    assert max(rels) <= 0.02
    assert dev <= 0.03


def test_03_klein_gordon_spot():
    """Cubic-model head row: error 2%, pre-asymptotic order 0.05."""
    problem = example_problem("klein-gordon", 1.1)
    rows = refinement_rows(problem, "time", [4.0 / 25.0, 2.0 / 25.0],
                           1.0 / 50.0, 8.0)
    rel = abs(rows[0].error - TABLE_KG_ERROR) / TABLE_KG_ERROR
    dev = abs(rows[1].order - TABLE_KG_ORDER)
    ok = rel <= 0.02 and dev <= 0.05
    record_acceptance(
        "3 time-refinement spot check (Klein-Gordon, N=999)", ok,
        f"error {rows[0].error:.4e} (dev {rel:.2%}), "
        f"order {rows[1].order:.4f}")
    assert rel <= 0.02
    assert dev <= 0.05


def test_04_dense_oracle_equivalence():
    """Fast steps match explicit-matrix solves of the same recurrences."""
    # split scheme, first and general step, N = 12
    problem = gaussian_problem(alpha=1.3, kappa=0.9)
    grid = Grid2D(a=problem.a, b=problem.b, n=12)
    tau = 0.05
    dense = DenseScheme(problem, grid, tau)
    ops = build_operators(problem, grid, tau)
    g = resolve_nonlinearity(problem.nonlinearity)

    state = sadi_first_step(problem, ops)
    up, uc = dense.sadi_first()
    rel_first = (np.linalg.norm(state.u_curr - uc)
                 / np.linalg.norm(uc))
    state = sadi_step(state, ops, g)
    uc2 = dense.sadi_general(up, uc)
    rel_general = np.linalg.norm(state.u_curr - uc2) / np.linalg.norm(uc2)

    # unfactored scheme, N = 16
    problem_b = gaussian_problem(alpha=1.7, kappa=1.1)
    grid_b = Grid2D(a=problem_b.a, b=problem_b.b, n=16)
    dense_b = DenseScheme(problem_b, grid_b, tau)
    ops_b = build_operators(problem_b, grid_b, tau)
    g_b = resolve_nonlinearity(problem_b.nonlinearity)
    state_b = nonadi_first_step(problem_b, ops_b, tol=1e-13)
    up_b, uc_b = dense_b.nonadi_first()
    state_b = nonadi_step(state_b, ops_b, g_b, tol=1e-13)
    uc_b2 = dense_b.nonadi_general(up_b, uc_b)
    rel_nonadi = np.linalg.norm(state_b.u_curr - uc_b2) / np.linalg.norm(uc_b2)

    ok = rel_first <= 1e-10 and rel_general <= 1e-10 and rel_nonadi <= 1e-9
    record_acceptance(
        "4 dense-oracle step equivalence", ok,
        f"split {max(rel_first, rel_general):.1e}, "
        f"unfactored {rel_nonadi:.1e}")
    assert rel_first <= 1e-10
    assert rel_general <= 1e-10
    assert rel_nonadi <= 1e-9


def test_05_structured_inverse():
    """50 random SPD Toeplitz inverses: 1e-9 accuracy, 4 FFTs per solve."""
    rng = np.random.default_rng(1905)
    sizes = (5, 32, 128)
    worst = 0.0
    fft_counts = set()
    for trial in range(50):
        n = sizes[trial % len(sizes)]
        col = oracle.random_spd_toeplitz(n, rng)
        data = gs_precompute(col)
        b = rng.standard_normal(n)
        _fft.COUNTER.reset()
        _fft.COUNTER.enabled = True
        try:
            x = gs_solve(data, b)
        finally:
            _fft.COUNTER.enabled = False
        fft_counts.add(_fft.COUNTER.calls)
        want = np.linalg.solve(oracle.dense_sym_toeplitz(col), b)
        worst = max(worst, np.linalg.norm(x - want) / np.linalg.norm(want))
    ok = worst <= 1e-9 and fft_counts == {4}
    record_acceptance(
        "5 structured Toeplitz inverse (50 matrices)", ok,
        f"worst rel err {worst:.1e}, FFT calls per solve {sorted(fft_counts)}")
    assert worst <= 1e-9
    assert fft_counts == {4}


def test_06_energy_conservation():
    """Linear model: relative drift of the step energy below 1e-10."""
    worst = 0.0
    for alpha in (1.1, 1.5, 1.9):
        problem = example_problem("zero", alpha)
        grid = Grid2D(problem.a, problem.b, 64)
        for ratio in (1, 5, 25):
            tau = ratio * grid.h
            ops = build_operators(problem, grid, tau)
            values = []
            run(problem, grid, tau, 200, ops=ops,
                recorder=lambda s: values.append(discrete_energy(s, ops)))
            drift = EnergyTrace(values=np.asarray(values)).relative_drift()
            worst = max(worst, drift)
    ok = worst <= 1e-10
    record_acceptance(
        "6 energy conservation (g=0, N=64, 200 steps)", ok,
        f"worst relative drift {worst:.1e}")
    assert worst <= 1e-10


def test_07_splitting_defect_nonnegative():
    """Separable-sum norm dominates the 2D-stencil norm on random fields."""
    rng = np.random.default_rng(7)
    worst = 0.0  # most negative normalized gap seen
    for alpha in (1.1, 1.5, 1.9):
        problem = example_problem("zero", alpha)
        grid = Grid2D(problem.a, problem.b, 32)
        ops = build_operators(problem, grid, 0.1)
        for _ in range(1000):
            w = rng.standard_normal((32, 32))
            gap = splitting_gap(w, ops)
            scale = inner_product("A_tilde", w, w, ops)
            worst = min(worst, gap / scale)
    ok = worst >= -1e-11
    record_acceptance(
        "7 norm-splitting inequality (3000 random fields)", ok,
        f"most negative normalized gap {worst:.1e}")
    assert worst >= -1e-11


def test_08_coefficient_fidelity():
    """Stencil tables against quadrature and Gamma-function references."""
    worst_2d = 0.0
    for alpha in (1.1, 1.5, 1.9):
        quad = laplacian_coeffs_2d(alpha, 5, oversampling=64)
        for i in range(5):
            for j in range(i + 1):  # table is symmetric
                ref = coeff_quadrature_oracle(alpha, i, j, tol=1e-10)
                worst_2d = max(worst_2d, abs(quad[i, j] - ref))
    worst_1d = 0.0
    for alpha in (1.1, 1.5, 1.9):
        w = riesz_coeffs_1d(alpha, 21)
        for k in range(21):
            ref = ((-1) ** k * math.gamma(alpha + 1.0)
                   / (math.gamma(alpha / 2.0 - k + 1.0)
                      * math.gamma(alpha / 2.0 + k + 1.0)))
            worst_1d = max(worst_1d, abs(w[k] - ref) / abs(ref))
    ok = worst_2d <= 1e-8 and worst_1d <= 1e-12
    record_acceptance(
        "8 coefficient fidelity (2D quadrature, 1D Gamma)", ok,
        f"2D abs {worst_2d:.1e}, 1D rel {worst_1d:.1e}")
    assert worst_2d <= 1e-8
    assert worst_1d <= 1e-12


def test_09_performance_ordering():
    """Factored sweeps beat the preconditioned 2D solves on the big grid."""
    problem = example_problem("sine-gordon", 1.5)
    grid = Grid2D.from_spacing(problem.a, problem.b, 1.0 / 8.0)
    totals = {}
    for scheme in ("sadi", "nonadi"):
        _, info = run(problem, grid, 1.0 / 100.0, 500, scheme=scheme)
        totals[scheme] = info.total_seconds
    ok = totals["sadi"] < totals["nonadi"]
    record_acceptance(
        "9 split scheme faster than unfactored (N=159, 500 steps)", ok,
        f"split {totals['sadi']:.1f}s vs unfactored {totals['nonadi']:.1f}s")
    assert totals["sadi"] < totals["nonadi"]
