"""Fast built-in consistency suite behind the ``selftest`` CLI subcommand.

Every check is deterministic (fixed seeds, no wall-clock content), sized to
finish in seconds, and independent of the pytest tree. The checks verify
the load-bearing identities end to end: transform conventions, coefficient
generation against direct quadrature, the structured inverse, the factored
sweeps, the time-step equations verified as residuals of their defining
difference equations, and the conservation/inequality diagnostics.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from . import _fft
from .coeffs import coeff_quadrature_oracle, laplacian_coeffs_2d, riesz_coeffs_1d
from .harness import EnergyTrace, discrete_energy, inner_product, splitting_gap
from .problems import Grid2D, Problem, resolve_nonlinearity, sech
from .stepper import (
    SCHEME_NAMES,
    build_operators,
    nonadi_first_step,
    nonadi_step,
    run,
    sadi_first_step,
    sadi_step,
)
from .structured import bttb_apply, bttb_build, gs_precompute, gs_solve

__all__ = ["run_selftest"]


class _CheckFailure(AssertionError):
    pass


def _require(cond: bool, detail: str) -> None:
    if not cond:
        raise _CheckFailure(detail)


def _check_fft_convention() -> None:
    rng = np.random.default_rng(7)
    v = rng.standard_normal(32)
    back = np.fft.ifft(np.fft.fft(v)).real
    _require(np.max(np.abs(back - v)) < 1e-13, "fft/ifft round trip broken")
    e1 = np.zeros(8)
    e1[0] = 1.0
    lam = np.fft.fft(e1)
    _require(np.max(np.abs(lam - 1.0)) < 1e-14,
             "forward transform is not unnormalized (fft(e1) != ones)")


def _check_coeff_recurrence() -> None:
    for alpha in (1.1, 1.5, 1.9):
        w = riesz_coeffs_1d(alpha, 21)
        for k in range(21):
            direct = ((-1.0) ** k * math.gamma(alpha + 1.0)
                      / (math.gamma(alpha / 2.0 - k + 1.0)
                         * math.gamma(alpha / 2.0 + k + 1.0)))
            _require(abs(w[k] - direct) <= 1e-12 * abs(direct),
                     f"recurrence vs direct ratio mismatch at alpha={alpha}, k={k}")
        _require(w[0] > 0 and np.all(w[1:] < 0), f"sign pattern broken at alpha={alpha}")


def _check_coeff_quadrature() -> None:
    quad = laplacian_coeffs_2d(1.5, 3, oversampling=64)
    for (i, j) in ((0, 0), (1, 1), (2, 0)):
        oracle = coeff_quadrature_oracle(1.5, i, j, tol=1e-10)
        _require(abs(quad[i, j] - oracle) < 1e-8,
                 f"2D coefficient ({i},{j}) off by {abs(quad[i, j] - oracle):.2e}")


def _check_classical_stencil() -> None:
    # the 5-point stencil leaves one per missing neighbour of the constant
    # field: zero inside, one on an edge, two at a corner
    quad = np.zeros((10, 10))
    quad[0, 0], quad[0, 1], quad[1, 0] = 4.0, -1.0, -1.0
    out = bttb_apply(bttb_build(quad, 10), np.ones((10, 10)))
    expected = np.zeros((10, 10))
    for edge in (expected[0], expected[-1], expected[:, 0], expected[:, -1]):
        edge += 1.0
    _require(np.max(np.abs(out - expected)) < 1e-13,
             "5-point stencil action on the constant field is wrong")


def _check_dst_transform() -> None:
    rng = np.random.default_rng(11)
    v = rng.standard_normal(6)
    y = _fft.dst_type1_ortho(v, axes=(0,))
    _require(np.max(np.abs(_fft.dst_type1_ortho(y, axes=(0,)) - v)) < 1e-13,
             "sine transform not involutive")
    n = 6
    j = np.arange(1, n + 1)
    naive = np.array([
        math.sqrt(2.0 / (n + 1)) * sum(v[k] * math.sin(math.pi * (k + 1) * p / (n + 1))
                                       for k in range(n))
        for p in j
    ])
    _require(np.max(np.abs(y - naive)) < 1e-12,
             "sine transform disagrees with the direct sine sum")


def _check_gs_inverse() -> None:
    # n = 31 sweeps at the fast length 32 with its rank-1 correction
    rng = np.random.default_rng(13)
    for n in (32, 31):
        col = -np.abs(rng.standard_normal(n))
        col[0] = np.abs(col).sum() + 1.0
        data = gs_precompute(col)
        v = rng.standard_normal(n)
        _fft.COUNTER.enabled = True
        _fft.COUNTER.reset()
        x = gs_solve(data, scipy.linalg.toeplitz(col) @ v)
        calls = _fft.COUNTER.calls
        _fft.COUNTER.enabled = False
        _require(calls == 4, f"structured solve at n={n} used {calls} FFTs instead of 4")
        _require(np.linalg.norm(x - v) <= 1e-10 * np.linalg.norm(v),
                 f"solve(H v) does not return v at n={n}")


def _small_ops(n: int = 12, tau: float = 0.05, nonlinearity: str = "sine_gordon"):
    problem = Problem(
        a=-10.0, b=10.0, alpha=1.5, kappa=1.0, nonlinearity=nonlinearity,
        phi1=lambda x, y: np.exp(-(x * x + y * y) / 4.0),
        phi2=lambda x, y: sech(np.sqrt(x * x + y * y)),
    )
    grid = Grid2D(problem.a, problem.b, n)
    ops = build_operators(problem, grid, tau)
    return problem, grid, ops


def _check_step_equation_residuals() -> None:
    problem, grid, ops = _small_ops()
    tau, kappa = ops.tau_step, ops.kappa
    # dense delta_x (along axis 0) and delta_y (along axis 1), an oracle
    # independent of the sweeps' structured inverse
    riesz = scipy.linalg.toeplitz(ops.riesz_weights)
    delta_x = lambda w: riesz @ w
    delta_y = lambda w: w @ riesz
    lap = ops.lap.apply
    g = resolve_nonlinearity(problem.nonlinearity)

    state1 = sadi_first_step(problem, ops)
    u0, u1 = state1.u_prev, state1.u_curr
    phi2_field = problem.initial_fields(grid)[1]
    res_first = (
        (u1 - u0 - tau * phi2_field) / (0.5 * tau * tau)
        + kappa * (delta_x(u1) + delta_y(u1))
        + 0.5 * kappa * kappa * tau * tau * delta_x(delta_y(u1 - u0))
        + kappa * (lap(u0) - delta_x(u0) - delta_y(u0))
        - g(u0)
    )
    scale = np.max(np.abs(u1 - u0)) / (0.5 * tau * tau)
    _require(np.max(np.abs(res_first)) <= 1e-9 * max(scale, 1.0),
             "first-step update does not satisfy its difference equation")

    state2 = sadi_step(state1, ops, g)
    u2 = state2.u_curr
    second_diff = u2 - 2.0 * u1 + u0
    res = (
        second_diff / (tau * tau)
        + 0.5 * kappa * (delta_x(u2 + u0) + delta_y(u2 + u0))
        + 0.25 * kappa * kappa * tau * tau * delta_x(delta_y(second_diff))
        + kappa * (lap(u1) - delta_x(u1) - delta_y(u1))
        - g(u1)
    )
    scale = max(np.max(np.abs(second_diff)) / (tau * tau), 1.0)
    _require(np.max(np.abs(res)) <= 1e-9 * scale,
             "general step does not satisfy its difference equation")


def _check_baseline_residual() -> None:
    problem, grid, ops = _small_ops()
    tau, kappa = ops.tau_step, ops.kappa
    g = resolve_nonlinearity(problem.nonlinearity)
    state1 = nonadi_first_step(problem, ops, tol=1e-12)
    state2 = nonadi_step(state1, ops, g, tol=1e-12)
    u0, u1, u2 = state1.u_prev, state1.u_curr, state2.u_curr
    lap = ops.lap.apply
    first = (u1 - u0 - tau * problem.initial_fields(grid)[1]) / (0.5 * tau * tau)
    second = (u2 - 2 * u1 + u0) / (tau * tau)
    for step, diff, res in (
            ("first", first, first + kappa * lap(u1) - g(u0)),
            ("general", second, second + 0.5 * kappa * lap(u2 + u0) - g(u1))):
        _require(np.max(np.abs(res)) <= 1e-7 * max(np.max(np.abs(diff)), 1.0),
                 f"baseline {step} step does not satisfy its difference equation")


def _check_zero_preservation() -> None:
    problem = Problem(a=-10.0, b=10.0, alpha=1.5, nonlinearity="sine_gordon")
    grid = Grid2D(-10.0, 10.0, 10)
    state, _ = run(problem, grid, 0.1, 5)
    _require(float(np.max(np.abs(state.u_curr))) == 0.0,
             "zero data with g(0)=0 must stay exactly zero")


def _check_splitting_gap() -> None:
    rng = np.random.default_rng(17)
    for alpha in (1.1, 1.9):
        problem = Problem(a=-10.0, b=10.0, alpha=alpha)
        grid = Grid2D(-10.0, 10.0, 24)
        ops = build_operators(problem, grid, 0.1)
        for _ in range(25):
            w = rng.standard_normal((24, 24))
            gap = splitting_gap(w, ops)
            bound = -1e-11 * inner_product("A_tilde", w, w, ops)
            _require(gap >= bound,
                     f"splitting defect negative beyond round-off: {gap:.3e}")


def _check_energy_conservation() -> None:
    problem, grid, ops = _small_ops(24, 4.0, "zero")  # tau = 5 h
    for scheme in SCHEME_NAMES:
        energies: list[float] = []
        run(problem, grid, ops.tau_step, 40, scheme=scheme, ops=ops,
            recorder=lambda s: energies.append(discrete_energy(s, ops)))
        drift = EnergyTrace(values=np.asarray(energies)).relative_drift()
        _require(drift <= 1e-10, f"{scheme} energy drift {drift:.2e} exceeds 1e-10")


def run_selftest() -> tuple[bool, str]:
    """Run all checks; returns (all_passed, report_text).

    The report is deterministic: fixed seeds, fixed order, no timings.
    """
    checks = [
        ("fft_convention", _check_fft_convention),
        ("coeff_recurrence_vs_direct", _check_coeff_recurrence),
        ("coeff_2d_vs_quadrature", _check_coeff_quadrature),
        ("classical_stencil_action", _check_classical_stencil),
        ("sine_transform", _check_dst_transform),
        ("structured_inverse_four_ffts", _check_gs_inverse),
        ("step_equation_residuals", _check_step_equation_residuals),
        ("baseline_equation_residual", _check_baseline_residual),
        ("zero_preservation", _check_zero_preservation),
        ("splitting_defect_nonnegative", _check_splitting_gap),
        ("energy_conservation", _check_energy_conservation),
    ]
    lines: list[str] = []
    failed = 0
    for name, fn in checks:
        try:
            fn()
        except _CheckFailure as exc:
            lines.append(f"FAIL {name}: {exc}")
            failed += 1
        except Exception as exc:  # noqa: BLE001 - selftest must not crash
            lines.append(f"FAIL {name}: unexpected {type(exc).__name__}: {exc}")
            failed += 1
        else:
            lines.append(f"PASS {name}")
    lines.append(f"selftest: {len(checks) - failed} passed, {failed} failed")
    return failed == 0, "\n".join(lines) + "\n"
