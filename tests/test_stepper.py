"""Time stepping against dense linear-algebra references.

The dense oracle assembles the split system (I x H)(H x I) and the
unfactored system (I + c L) as explicit matrices in column-major ordering
and advances the same recurrences with ``numpy.linalg.solve``. The fast
stepper must match to solver tolerance.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import _oracles as oracle
from fracwave import _fft, stepper
from fracwave.errors import BlowUpError, ValidationError
from fracwave.harness import (EnergyTrace, discrete_energy, inner_product,
                              splitting_gap)
from fracwave.problems import (CUSTOM_INITIAL_DATA, Grid2D, Problem,
                               example_problem, resolve_nonlinearity, sech)
from fracwave.stepper import (
    SCHEME_NAMES,
    SchemeState,
    adi_solve,
    build_operators,
    check_scales,
    nonadi_first_step,
    nonadi_step,
    run,
    sadi_first_step,
    sadi_step,
)
from fracwave.structured import tau_apply


def gaussian_problem(alpha=1.5, kappa=1.0, nonlinearity="sine_gordon"):
    return Problem(
        a=-4.0, b=4.0, alpha=alpha, kappa=kappa, nonlinearity=nonlinearity,
        phi1=lambda x, y: np.exp(-(x ** 2 + y ** 2)),
        phi2=lambda x, y: np.exp(-2.0 * ((x - 0.5) ** 2 + y ** 2)),
        label="gaussian",
    )


class DenseScheme:
    """Reference integrator built from explicit matrices."""

    def __init__(self, problem, grid, tau):
        n = grid.n
        self.n = n
        self.tau = tau
        self.kappa = problem.kappa
        self.g = resolve_nonlinearity(problem.nonlinearity)
        hmat, lap, ikh, hki = oracle.dense_sadi_system(
            problem.alpha, n, grid.h, tau, problem.kappa)
        self.lap = lap
        self.split = ikh @ hki
        self.unfactored = np.eye(n * n) + 0.5 * tau * tau * problem.kappa * lap
        u0, phi2 = problem.initial_fields(grid)
        self.u0, self.phi2 = u0, phi2

    def _vec(self, u):
        return oracle.vec_f(u)

    def _mat(self, v):
        return oracle.unvec_f(v, self.n)

    def sadi_first(self):
        tau, kap = self.tau, self.kappa
        b = tau * self._vec(self.phi2) + 0.5 * tau * tau * self._vec(self.g(self.u0))
        b -= 0.5 * tau * tau * kap * (self.lap @ self._vec(self.u0))
        hat = np.linalg.solve(self.split, b)
        return self.u0, self._mat(self._vec(self.u0) + hat)

    def sadi_general(self, u_prev, u_curr):
        tau, kap = self.tau, self.kappa
        b = tau * tau * self._vec(self.g(u_curr))
        b -= tau * tau * kap * (self.lap @ self._vec(u_curr))
        hat = np.linalg.solve(self.split, b)
        return self._mat(hat + 2.0 * self._vec(u_curr) - self._vec(u_prev))

    def nonadi_first(self):
        tau = self.tau
        b = (self._vec(self.u0) + tau * self._vec(self.phi2)
             + 0.5 * tau * tau * self._vec(self.g(self.u0)))
        return self.u0, self._mat(np.linalg.solve(self.unfactored, b))

    def nonadi_general(self, u_prev, u_curr):
        tau, kap = self.tau, self.kappa
        c = 0.5 * tau * tau * kap
        b = (2.0 * self._vec(u_curr) - self._vec(u_prev)
             + tau * tau * self._vec(self.g(u_curr))
             - c * (self.lap @ self._vec(u_prev)))
        return self._mat(np.linalg.solve(self.unfactored, b))


class TestSadiVsDense:
    @pytest.mark.parametrize("alpha", [1.1, 1.9])
    def test_three_steps_match(self, alpha):
        problem = gaussian_problem(alpha=alpha, kappa=0.8)
        grid = Grid2D(a=problem.a, b=problem.b, n=12)
        tau = 0.05
        dense = DenseScheme(problem, grid, tau)
        ops = build_operators(problem, grid, tau)
        g = resolve_nonlinearity(problem.nonlinearity)

        state = sadi_first_step(problem, ops)
        up, uc = dense.sadi_first()
        np.testing.assert_allclose(state.u_curr, uc, atol=1e-11)

        for _ in range(2):
            state = sadi_step(state, ops, g)
            up, uc = uc, dense.sadi_general(up, uc)
            np.testing.assert_allclose(state.u_curr, uc, atol=1e-10)

    def test_separable_rhs_factorizes(self, rng):
        # (I + c dx)(I + c dy) X = f g^T  =>  X = (H^{-1} f)(H^{-1} g)^T
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=10)
        ops = build_operators(problem, grid, 0.05)
        f, gvec = rng.standard_normal(10), rng.standard_normal(10)
        hmat, _, _, _ = oracle.dense_sadi_system(problem.alpha, 10, grid.h,
                                                 0.05, problem.kappa)
        want = np.outer(np.linalg.solve(hmat, f), np.linalg.solve(hmat, gvec))
        np.testing.assert_allclose(adi_solve(ops, np.outer(f, gvec)), want,
                                   atol=1e-11)

    def test_adi_solve_costs_eight_ffts(self, rng):
        # two sweeps of the four-FFT Gohberg-Semencul solve, nothing else
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=14)
        ops = build_operators(problem, grid, 0.05)
        _fft.COUNTER.reset()
        _fft.COUNTER.enabled = True
        try:
            adi_solve(ops, rng.standard_normal((14, 14)))
        finally:
            _fft.COUNTER.enabled = False
        assert _fft.COUNTER.calls == 8
        assert _fft.COUNTER.transforms == 8 * 14

    def test_adi_solve_non_fast_length(self, rng):
        # N = 39 sweeps at next_fast_len(39) = 40 with the rank-1 correction:
        # still the dense Kronecker solve, at eight counted calls
        problem = gaussian_problem()
        n, tau = 39, 0.05
        grid = Grid2D(a=problem.a, b=problem.b, n=n)
        ops = build_operators(problem, grid, tau)
        assert ops.gs.length == 40
        b = rng.standard_normal((n, n))
        _fft.COUNTER.reset()
        _fft.COUNTER.enabled = True
        try:
            got = adi_solve(ops, b)
        finally:
            _fft.COUNTER.enabled = False
        assert _fft.COUNTER.calls == 8
        assert _fft.COUNTER.transforms == 8 * n
        _, _, ikh, hki = oracle.dense_sadi_system(problem.alpha, n, grid.h,
                                                  tau, problem.kappa)
        want = oracle.unvec_f(np.linalg.solve(ikh @ hki, oracle.vec_f(b)), n)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    def test_diagonal_matrix_entries_exceed_one(self):
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=20)
        ops = build_operators(problem, grid, 0.1)
        # H = I + c T with c > 0: the sign pattern of the stored Riesz
        # weights (T's first column) puts H's diagonal above one and its
        # off-diagonals below 0
        assert ops.riesz_weights[0] > 0.0
        assert np.all(ops.riesz_weights[1:] < 0.0)
        assert ops.gs.p1 > 0.0


class TestNonAdiVsDense:
    def test_three_steps_match(self):
        problem = gaussian_problem(alpha=1.4, kappa=1.2)
        grid = Grid2D(a=problem.a, b=problem.b, n=16)
        tau = 0.04
        dense = DenseScheme(problem, grid, tau)
        ops = build_operators(problem, grid, tau)
        g = resolve_nonlinearity(problem.nonlinearity)

        state = nonadi_first_step(problem, ops, tol=1e-13)
        up, uc = dense.nonadi_first()
        np.testing.assert_allclose(state.u_curr, uc, atol=1e-9)

        for _ in range(2):
            state = nonadi_step(state, ops, g, tol=1e-13)
            up, uc = uc, dense.nonadi_general(up, uc)
            np.testing.assert_allclose(state.u_curr, uc, atol=1e-9)

    def test_pcg_iteration_log_grows(self):
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=12)
        ops = build_operators(problem, grid, 0.05)
        g = resolve_nonlinearity(problem.nonlinearity)
        first = nonadi_first_step(problem, ops)
        second = nonadi_step(first, ops, g)
        assert first.pcg_iterations >= 1
        assert second.pcg_iterations >= 1
        assert sadi_first_step(problem, ops).pcg_iterations is None


class TestSchemeRelations:
    def test_split_and_unfactored_agree_to_higher_order(self):
        # the factored operator is I + c(dx+dy) + c^2 dx dy while the
        # unfactored one uses the genuine 2D stencil L != dx+dy, so a single
        # first step separates the schemes at O(tau^3): halving tau shrinks
        # the gap by a factor approaching 8 from below
        problem = gaussian_problem(alpha=1.5)
        grid = Grid2D(a=problem.a, b=problem.b, n=12)
        diffs = []
        for tau in (0.1, 0.05, 0.025):
            ops = build_operators(problem, grid, tau)
            s1 = sadi_first_step(problem, ops)
            s2 = nonadi_first_step(problem, ops, tol=1e-14)
            diffs.append(np.max(np.abs(s1.u_curr - s2.u_curr)))
        assert diffs[0] > 0.0
        ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
        for r in ratios:
            assert 6.0 < r < 8.5
        assert ratios[1] > ratios[0]

    def test_first_steps_solve_one_equation(self, monkeypatch):
        # both first steps solve M (u^1 - u^0) = tau phi2 + B(u^0) / 2, each
        # with its own M, from one right-hand side: sadi hands it on as its
        # first m_du, and the baseline's u^1 - u^0 under I + c L, fresh or
        # carried, gives it back within the bound of
        # test_carried_m_du_is_a_compact_apply_of_m. The baseline solves to
        # 1e-13, below which its stopping error lies (9.4e-17 of the scale
        # seen; 3.9e-14 at the default 1e-11). A displaced start
        # (u^0 != 0) is the case in which its right-hand side holds M u^0
        problem = example_problem("klein-gordon", 1.5)
        grid = Grid2D(a=problem.a, b=problem.b, n=39)
        tau = 0.05
        ops = build_operators(problem, grid, tau)
        u0, phi2 = problem.initial_fields(grid)
        assert np.max(np.abs(u0)) > 1.0
        b0, _ = stepper.rhs_general(
            u0, ops, resolve_nonlinearity(problem.nonlinearity))
        want = 0.5 * b0 + tau * phi2
        # each first step samples the data and makes B(u^0) once
        calls = {"initial_fields": 0, "rhs_general": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(Problem, "initial_fields")
        counted(stepper, "rhs_general")
        sadi = sadi_first_step(problem, ops)
        np.testing.assert_array_equal(sadi.m_du, want)
        np.testing.assert_array_equal(sadi.u_prev, u0)
        assert calls == {"initial_fields": 1, "rhs_general": 1}
        baseline = nonadi_first_step(problem, ops, tol=1e-13)
        assert calls == {"initial_fields": 2, "rhs_general": 2}
        np.testing.assert_array_equal(baseline.u_prev, u0)
        du = baseline.u_curr - baseline.u_prev
        norm_m = (1.0 + 2.0 * ops.c * ops.riesz_weights[0]) ** 2
        scale = max(norm_m * np.max(np.abs(du)),
                    np.max(np.abs(nonadi_m(ops, baseline.u_curr))))
        for m_du in (nonadi_m(ops, du), baseline.m_du):
            assert np.max(np.abs(m_du - want)) <= 1e-13 * scale

    def test_kappa_zero_is_pointwise_recurrence(self):
        # with kappa = 0 the spatial operator drops out entirely:
        # u^1 = u^0 + tau phi2 + (tau^2/2) g(u^0), then plain leapfrog
        problem = gaussian_problem(alpha=1.5, kappa=0.0)
        grid = Grid2D(a=problem.a, b=problem.b, n=9)
        tau = 0.07
        g = resolve_nonlinearity(problem.nonlinearity)
        u0, phi2 = problem.initial_fields(grid)
        for scheme in ("sadi", "nonadi"):
            state, _ = run(problem, grid, tau, 3, scheme=scheme)
            u1 = u0 + tau * phi2 + 0.5 * tau * tau * g(u0)
            u2 = 2.0 * u1 - u0 + tau * tau * g(u1)
            u3 = 2.0 * u2 - u1 + tau * tau * g(u2)
            np.testing.assert_allclose(state.u_curr, u3, atol=1e-11)

    def test_zero_data_stays_zero(self):
        problem = Problem(
            a=-2.0, b=2.0, alpha=1.3, kappa=1.0, nonlinearity="sine_gordon",
            phi1=lambda x, y: np.zeros_like(x),
            phi2=lambda x, y: np.zeros_like(x),
            label="null",
        )
        grid = Grid2D(a=-2.0, b=2.0, n=11)
        for scheme in ("sadi", "nonadi"):
            state, info = run(problem, grid, 0.1, 5, scheme=scheme)
            assert np.all(state.u_curr == 0.0)
            # every baseline solve starts at the exact answer and takes no
            # iteration, yet each one is still counted
            solves = 5 if scheme == "nonadi" else 0
            assert (info.pcg_solves, info.pcg_total_iterations) == (solves, 0)
            if scheme == "nonadi":
                # M u^n and M du as handed on by the zero right-hand
                # side's solve
                assert np.all(state.m_du == 0.0) and np.all(state.m_curr == 0.0)

    def test_linearity_without_forcing(self):
        # g = 0 makes each step linear in the initial data
        base = dict(a=-3.0, b=3.0, alpha=1.6, kappa=1.0, nonlinearity="zero")
        pa = Problem(phi1=lambda x, y: np.exp(-x ** 2 - y ** 2),
                     phi2=lambda x, y: np.zeros_like(x), label="a", **base)
        pb = Problem(phi1=lambda x, y: np.sin(x) * np.exp(-y ** 2),
                     phi2=lambda x, y: np.zeros_like(x), label="b", **base)
        pab = Problem(phi1=lambda x, y: (np.exp(-x ** 2 - y ** 2)
                                         + np.sin(x) * np.exp(-y ** 2)),
                      phi2=lambda x, y: np.zeros_like(x), label="ab", **base)
        grid = Grid2D(a=-3.0, b=3.0, n=14)
        sa, _ = run(pa, grid, 0.05, 4)
        sb, _ = run(pb, grid, 0.05, 4)
        sab, _ = run(pab, grid, 0.05, 4)
        np.testing.assert_allclose(sab.u_curr, sa.u_curr + sb.u_curr,
                                   atol=1e-11)

    def test_perturbation_response_scales_linearly(self):
        base = gaussian_problem(nonlinearity="zero")
        grid = Grid2D(a=base.a, b=base.b, n=14)
        s0, _ = run(base, grid, 0.05, 6)
        norms = []
        for eps in (1e-3, 1e-6):
            pert = Problem(
                a=base.a, b=base.b, alpha=base.alpha, kappa=base.kappa,
                nonlinearity="zero",
                phi1=lambda x, y, e=eps: (np.exp(-(x ** 2 + y ** 2))
                                          + e * np.cos(x + y)),
                phi2=base.phi2, label="pert",
            )
            sp, _ = run(pert, grid, 0.05, 6)
            norms.append(np.linalg.norm(sp.u_curr - s0.u_curr))
        assert norms[0] / norms[1] == pytest.approx(1e3, rel=1e-4)


class TestRunLoop:
    def test_recorder_sees_every_level(self):
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=8)
        seen = []
        state, info = run(problem, grid, 0.1, 4,
                          recorder=lambda s: seen.append((s.step_index, s.time)))
        assert [s for s, _ in seen] == [1, 2, 3, 4]
        np.testing.assert_allclose([t for _, t in seen],
                                   [0.1, 0.2, 0.3, 0.4], atol=1e-12)
        assert state.step_index == 4
        assert info.steps == 4
        assert info.scheme == "sadi"
        assert info.setup_seconds >= 0.0
        assert info.loop_seconds >= 0.0
        assert info.total_seconds == info.setup_seconds + info.loop_seconds

    def test_single_step_run(self):
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=8)
        state, info = run(problem, grid, 0.1, 1)
        assert state.step_index == 1
        assert info.steps == 1

    def test_prebuilt_operators_reused(self):
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=10)
        ops = build_operators(problem, grid, 0.05)
        s1, _ = run(problem, grid, 0.05, 3, ops=ops)
        s2, _ = run(problem, grid, 0.05, 3)
        np.testing.assert_allclose(s1.u_curr, s2.u_curr, atol=0.0)

    def test_nonadi_info_counts_solves(self):
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=10)
        _, info = run(problem, grid, 0.05, 5, scheme="nonadi")
        assert info.pcg_solves == 5
        assert info.pcg_total_iterations >= 5
        assert info.pcg_max_iterations >= 1

    def test_blow_up_detected(self):
        problem = Problem(
            a=-4.0, b=4.0, alpha=1.5, kappa=1.0, nonlinearity="klein_gordon",
            phi1=lambda x, y: 3.0e11 * np.exp(-(x ** 2 + y ** 2)),
            phi2=lambda x, y: np.zeros_like(x),
            label="hot",
        )
        grid = Grid2D(a=-4.0, b=4.0, n=8)
        with pytest.raises(BlowUpError) as exc:
            run(problem, grid, 0.1, 10)
        assert exc.value.step_index >= 1
        assert exc.value.time > 0.0
        assert exc.value.max_abs > 1e12

    def test_nonadi_tolerance_of_one_refused(self):
        # a relative tolerance of 1 accepted the warm start u^0 at every step
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=8)
        with pytest.raises(ValidationError, match="tol"):
            run(problem, grid, 0.1, 3, scheme="nonadi", step_tol=1.0)

    def test_tau_with_a_subnormal_square_refused(self):
        # the steps and the energy divide by tau^2, which is 0 at 1e-200
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=5)
        with pytest.raises(ValidationError, match="smallest normal double"):
            check_scales(problem, grid, 1e-200)
        check_scales(problem, grid, 1.5e-154)

    def test_callable_nonlinearity_refused(self):
        with pytest.raises(ValidationError, match="unknown nonlinearity"):
            gaussian_problem(nonlinearity=np.sin)

    def test_unknown_scheme_rejected(self):
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=8)
        with pytest.raises(Exception):
            run(problem, grid, 0.1, 2, scheme="magic")

    def test_operators_for_another_problem_refused(self):
        # operators for alpha = 1.5, kappa = 1 on (-10, 10)^2 (h = 1.25)
        # must not integrate alpha = 1.9, kappa = 3 on (-5, 5)^2 (h = 0.625)
        built = example_problem("sine-gordon", 1.5)
        built_grid = Grid2D(built.a, built.b, 15)
        ops = build_operators(built, built_grid, 0.05)
        other = Problem(a=-5.0, b=5.0, alpha=1.9, kappa=3.0,
                        nonlinearity="sine_gordon", phi2=built.phi2)
        other_grid = Grid2D(other.a, other.b, 15)
        cases = [(other, other_grid), (built, other_grid),
                 (replace(built, alpha=1.9), built_grid),
                 (replace(built, kappa=3.0), built_grid)]
        for problem, grid in cases:
            with pytest.raises(ValidationError, match="prebuilt operators"):
                run(problem, grid, 0.05, 2, ops=ops)
        run(built, built_grid, 0.05, 2, ops=ops)

    @pytest.mark.parametrize("built, given", [(0.1, 0.05), (1e-20, 5e-20)])
    def test_operators_for_another_tau_refused(self, built, given):
        # the slack is relative to tau alone, so two steps below 1e-15
        # differ as much as two steps near one do
        problem = example_problem("zero", 1.5)
        grid = Grid2D(problem.a, problem.b, 3)
        ops = build_operators(problem, grid, built)
        with pytest.raises(ValidationError, match="prebuilt operators"):
            run(problem, grid, given, 3, ops=ops)
        state, _ = run(problem, grid, built, 3, ops=ops)
        assert state.time == 3 * built


def nonadi_m(ops, u):
    """M u = (I + c L) u, the baseline's implicit operator."""
    return u + ops.c * ops.lap.apply(u)


def sadi_m(ops, u):
    """M u = (I + c delta_x)(I + c delta_y) u = H u H, H the dense 1D
    sweep matrix (symmetric Toeplitz)."""
    hmat = scipy.linalg.toeplitz(ops.sweep_col)
    return hmat @ u @ hmat


def close_in_max_norm(got, want, rel):
    """max |got - want| <= rel max |want| (a zero want asks for zeros)."""
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestCarriedApplies:
    """Each step hands on the applies it made: the energy pairing a_pair
    from every step that applied L to u_prev (sadi's, and the first
    baseline step), and M u_curr and P^-1 M u_curr from the baseline
    steps, so that a general baseline step applies L only in its PCG
    iterations. Every step hands on M (u_curr - u_prev) with its own
    scheme's M: sadi's from its right-hand sides, the baseline's from the
    M u its solve started and ended with."""

    def test_nonadi_step_applies_only_in_iterations(self, bttb_calls):
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=12)
        ops = build_operators(problem, grid, 0.05)
        g = resolve_nonlinearity(problem.nonlinearity)
        state = nonadi_first_step(problem, ops)
        # the run's one warm-start apply, L u^0
        assert len(bttb_calls) == 1 + state.pcg_iterations
        for _ in range(3):
            del bttb_calls[:]
            nxt = nonadi_step(state, ops, g)
            assert len(bttb_calls) == nxt.pcg_iterations
            # the M u^{n+1} read off the residual is a fresh u + c L u
            assert close_in_max_norm(nxt.m_curr, nonadi_m(ops, nxt.u_curr),
                                     1e-13)
            state = nxt
        # a state without the carried M (built by hand, or by sadi)
        # is refused, naming the step that starts the baseline
        for bare in (replace(state, m_du=None), replace(state, m_curr=None),
                     sadi_first_step(problem, ops)):
            with pytest.raises(ValidationError, match="nonadi_first_step"):
                nonadi_step(bare, ops, g)

    def test_nonadi_step_preconditions_once_outside_iterations(self,
                                                              tau_calls):
        # P^-1 b for the scale; P^-1 M u^n comes with the state, so the
        # warm-start residual needs no apply of its own after the first
        # step, which applies P^-1 to M u^0 for it
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=12)
        ops = build_operators(problem, grid, 0.05)
        g = resolve_nonlinearity(problem.nonlinearity)
        state = nonadi_first_step(problem, ops)
        assert len(tau_calls) == 2 + state.pcg_iterations
        for _ in range(3):
            del tau_calls[:]
            nxt = nonadi_step(state, ops, g)
            assert len(tau_calls) == 1 + nxt.pcg_iterations
            assert all(spec is ops.tau2d for spec in tau_calls)
            state = nxt
        # a state without the carried P^-1 M u is refused
        with pytest.raises(ValidationError, match="nonadi_first_step"):
            nonadi_step(replace(state, pinv_m_curr=None), ops, g)

    @pytest.mark.parametrize("example, n, tau, steps", [
        (None, 12, 0.05, 3),
        ("sine-gordon", 39, 0.01, 2000),
    ], ids=["n12-3steps", "n39-2000steps"])
    def test_carried_m_is_a_compact_apply_of_m(self, example, n, tau, steps):
        # M u carried from the solves' residuals stays at round-off from a
        # fresh apply over a long run
        problem = (gaussian_problem() if example is None
                   else example_problem(example, 1.5))
        grid = Grid2D(a=problem.a, b=problem.b, n=n)
        ops = build_operators(problem, grid, tau)
        states = []
        run(problem, grid, tau, steps, scheme="nonadi", ops=ops,
            recorder=states.append)
        for state in states:
            m = state.m_curr
            # its own N x N memory, not a view of a larger buffer
            assert m.flags.c_contiguous and m.base is None
            assert close_in_max_norm(m, nonadi_m(ops, state.u_curr), 1e-13)
            # P^-1 M u_curr, read off the preconditioned residual
            pinv_m = state.pinv_m_curr
            assert pinv_m.flags.c_contiguous and pinv_m.base is None
            fresh = tau_apply(ops.tau2d, nonadi_m(ops, state.u_curr))
            assert close_in_max_norm(pinv_m, fresh, 1e-13)
        # each level's M is handed on, not recomputed: M du is the solve's
        # M u_curr less the M u_prev the previous state carried
        for before, after in zip(states, states[1:]):
            np.testing.assert_array_equal(after.m_du,
                                          after.m_curr - before.m_curr)
        states = []
        run(problem, grid, tau, 3, scheme="sadi", ops=ops,
            recorder=states.append)
        assert all(s.m_curr is None and s.pinv_m_curr is None
                   and s.a_pair is not None for s in states)

    # Klein-Gordon is left out: at alpha = 1.9, tau = 10 it blows up by
    # step 6
    @pytest.mark.parametrize("example, alpha, n, tau, steps", [
        pytest.param(None, 1.5, 12, 0.05, 3, id="n12-3steps"),
        pytest.param("sine-gordon", 1.5, 39, 0.01, 2000, id="n39-2000steps"),
    ] + [pytest.param(example, alpha, 39, tau, 50,
                      id=f"{example}-alpha{alpha}-tau{tau:g}")
         for example in ("sine-gordon", "zero") for alpha in (1.1, 1.9)
         for tau in (0.01, 1.0, 10.0)])
    def test_carried_m_du_is_a_compact_apply_of_m(self, example, alpha, n,
                                                  tau, steps):
        # M (u_curr - u_prev) carried by each scheme's states (summed from
        # the right-hand sides for sadi, the difference of the carried
        # M u for the baseline) stays at round-off from a fresh apply of
        # the scheme's M over a long run. The round-off is that of the
        # stored levels, which the fresh apply sees and the carried
        # product does not: about eps max|u| a step, a random walk that
        # reaches 2.5e-12 of max|M du| (du ~ tau u_t) after 2000 steps at
        # tau = 0.01 but stays at 3e-14 of max|M u_curr|. At large tau the
        # applies' own rounding, eps ||M|| max|du|, outgrows that scale
        # (2.5e-11 of max|M u_curr| at tau = 10), so the bound is taken at
        # the larger of the two. ||M|| is at most (1 + 2 factor a_0)^2, the
        # row sums of H x H, which also bound those of I + c L: its centre
        # weight is at most 2 a_0, and its off-centre weights, all
        # negative, sum to less than it in magnitude. The worst seen is
        # 3.0e-14 of the bound for sadi (2000 steps), 3.5e-16 for the
        # baseline
        problem = (gaussian_problem() if example is None
                   else example_problem(example, alpha))
        grid = Grid2D(a=problem.a, b=problem.b, n=n)
        ops = build_operators(problem, grid, tau)
        norm_m = (1.0 + 2.0 * ops.c * ops.riesz_weights[0]) ** 2
        runs = {"sadi": [], "nonadi": []}
        for scheme, apply_m in (("sadi", sadi_m), ("nonadi", nonadi_m)):
            run(problem, grid, tau, steps, scheme=scheme, ops=ops,
                recorder=runs[scheme].append)
            for state in runs[scheme]:
                m_du = state.m_du
                # its own N x N memory, not a view of a larger buffer
                assert m_du.flags.c_contiguous and m_du.base is None
                du = state.u_curr - state.u_prev
                scale = max(norm_m * np.max(np.abs(du)),
                            np.max(np.abs(apply_m(ops, state.u_curr))))
                err = np.max(np.abs(m_du - apply_m(ops, du)))
                assert err <= 1e-13 * scale, (scheme, state.step_index)
        # a sadi step from a state without it (built by hand) or with the
        # baseline's M du hands on none
        g = resolve_nonlinearity(problem.nonlinearity)
        for bare in (replace(runs["sadi"][-1], m_du=None),
                     runs["nonadi"][-1]):
            assert sadi_step(bare, ops, g).m_du is None

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_kappa_zero_states_carry_applies(self, scheme):
        # kappa = 0 takes the general step: its states hand on the same
        # applies as any other kappa's
        problem = gaussian_problem(kappa=0.0, nonlinearity="zero")
        grid = Grid2D(a=problem.a, b=problem.b, n=9)
        ops = build_operators(problem, grid, 0.07)
        states = []
        run(problem, grid, 0.07, 4, scheme=scheme, ops=ops,
            recorder=states.append)
        for state in states:
            if scheme == "sadi" or state.step_index == 1:
                want = inner_product("A", state.u_prev, state.u_curr, ops)
                assert state.a_pair == pytest.approx(want, rel=1e-14, abs=0.0)
            else:
                assert state.a_pair is None
            du = state.u_curr - state.u_prev
            if scheme == "nonadi":
                for m, u in ((state.m_du, du), (state.m_curr, state.u_curr)):
                    assert close_in_max_norm(m, nonadi_m(ops, u), 1e-13)
            else:
                assert close_in_max_norm(state.m_du, sadi_m(ops, du), 1e-13)
                assert state.m_curr is None and state.pinv_m_curr is None


class TestStateScheme:
    """Every run state names the scheme that made it, and a step reads no
    carried field that another scheme's state holds."""

    def test_every_run_state_names_its_scheme(self):
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=9)
        for scheme in SCHEME_NAMES:
            states = []
            run(problem, grid, 0.05, 3, scheme=scheme, recorder=states.append)
            assert [s.scheme for s in states] == [scheme] * 3
        z = np.zeros((9, 9))
        assert SchemeState(u_prev=z, u_curr=z, step_index=1,
                           time=0.05).scheme is None

    def test_nonadi_step_refuses_sadi_and_hand_built_states(self):
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=9)
        ops = build_operators(problem, grid, 0.05)
        g = resolve_nonlinearity(problem.nonlinearity)
        first = sadi_first_step(problem, ops)
        by_hand = SchemeState(u_prev=first.u_prev, u_curr=first.u_curr,
                              step_index=1, time=0.05, m_du=first.m_du)
        for state in (first, sadi_step(first, ops, g), by_hand):
            with pytest.raises(ValidationError, match="nonadi_first_step"):
                nonadi_step(state, ops, g)

    def test_sadi_step_from_baseline_state_hands_on_no_m_du(self):
        # the baseline's M du is made with I + c L, not sadi's M, so a sadi
        # step does not extend it, nor do the steps after that one
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=9)
        ops = build_operators(problem, grid, 0.05)
        g = resolve_nonlinearity(problem.nonlinearity)
        baseline, _ = run(problem, grid, 0.05, 2, scheme="nonadi", ops=ops)
        assert baseline.m_du is not None
        crossed = sadi_step(baseline, ops, g)
        assert crossed.scheme == "sadi" and crossed.m_du is None
        assert sadi_step(crossed, ops, g).m_du is None


class TestDihedralSymmetry:
    """The ring and bump data and the discrete operators are invariant under
    x <-> y and under reflection of either axis, so the solution stays so:
    a cheap guard on sadi's two sweeps, the pruned BTTB apply and the
    baseline's carried applies, which act along different axes."""

    @pytest.mark.parametrize("example", ["sine-gordon", "klein-gordon"])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_symmetric_after_100_steps(self, scheme, example):
        problem = example_problem(example, 1.5)
        grid = Grid2D(a=problem.a, b=problem.b, n=79)
        state, _ = run(problem, grid, 0.05, 100, scheme=scheme)
        u = state.u_curr
        bound = 1e-12 * np.max(np.abs(u))
        for image in (u.T, u[::-1], u[:, ::-1]):
            assert np.max(np.abs(u - image)) <= bound


class TestInitialData:
    def test_bump_finite_and_silent_on_a_wide_domain(self):
        # past |r| ~ 26.6 cosh(r^2) overflows and sech of it is exactly 0
        phi1, phi2 = CUSTOM_INITIAL_DATA["bump"]
        problem = Problem(a=-40.0, b=40.0, alpha=1.5, phi1=phi1, phi2=phi2)
        grid = Grid2D(problem.a, problem.b, 79)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u0, v0 = problem.initial_fields(grid)
        assert np.all(np.isfinite(u0)) and np.all(v0 == 0.0)
        assert u0[0, 0] == u0[0, -1] == u0[-1, 0] == u0[-1, -1] == 0.0
        xx, yy = grid.meshgrid()
        r2 = xx * xx + yy * yy
        with np.errstate(over="ignore"):
            inside = np.isfinite(np.cosh(r2))
        assert inside.any() and not inside.all()
        np.testing.assert_array_equal(u0[inside], sech(np.cosh(r2[inside])))


class TestExactTime:
    """Both schemes against the exact solution of the semi-discrete system
    U'' = -kappa L U at N = 39, from the eigendecomposition of the dense L:
    second order in tau at t = 2."""

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_second_order_against_semi_discrete(self, alpha):
        problem = Problem(
            a=-10.0, b=10.0, alpha=alpha, kappa=1.0, nonlinearity="zero",
            phi1=lambda x, y: np.exp(-(x ** 2 + y ** 2)),
            phi2=lambda x, y: 1.0 / np.cosh(np.hypot(x, y)),
        )
        grid = Grid2D(problem.a, problem.b, 39)
        u0, v0 = problem.initial_fields(grid)
        lap = oracle.dense_laplacian_2d(alpha, grid.n, grid.h ** -alpha)
        t_final = 2.0
        exact = oracle.semi_discrete_wave(lap, problem.kappa, u0, v0, t_final)
        taus = (0.1, 0.05, 0.025, 0.0125)
        for scheme in SCHEME_NAMES:
            errors = []
            for tau in taus:
                state, _ = run(problem, grid, tau, round(t_final / tau),
                               scheme=scheme)
                errors.append(grid.h * np.linalg.norm(state.u_curr - exact))
            orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
            assert np.all(orders >= 1.95), (scheme, errors, orders)
            assert errors[-1] < 5e-4, (scheme, errors)


class TestExactTimeNonlinear:
    """Both schemes against the semi-discrete system U'' = -kappa L U + g(U)
    at N = 39, integrated to round-off with the dense L: second order in
    tau at t = 2 for the sine-Gordon and Klein-Gordon benchmarks. The error
    bounds at tau = 0.0125 sit 30-35% above the errors measured when the
    test was written (8.0e-5 to 1.04e-4 sine-Gordon, 5.4e-4 Klein-Gordon)."""

    @pytest.mark.parametrize("example, alpha, schemes, bound", [
        ("sine-gordon", 1.1, SCHEME_NAMES, 1.4e-4),
        ("sine-gordon", 1.5, SCHEME_NAMES, 1.4e-4),
        ("sine-gordon", 1.9, SCHEME_NAMES, 1.4e-4),
        ("klein-gordon", 1.5, ("sadi",), 7e-4),
    ], ids=["sine-gordon-1.1", "sine-gordon-1.5", "sine-gordon-1.9",
            "klein-gordon-1.5"])
    def test_second_order_against_semi_discrete(self, example, alpha,
                                                schemes, bound):
        problem = example_problem(example, alpha)
        grid = Grid2D(problem.a, problem.b, 39)
        u0, v0 = problem.initial_fields(grid)
        lap = oracle.dense_laplacian_2d(alpha, grid.n, grid.h ** -alpha)
        t_final = 2.0
        exact = oracle.semi_discrete_nonlinear(
            lap, problem.kappa, resolve_nonlinearity(problem.nonlinearity),
            u0, v0, t_final)
        taus = (0.1, 0.05, 0.025, 0.0125)
        for scheme in schemes:
            errors = []
            for tau in taus:
                state, _ = run(problem, grid, tau, round(t_final / tau),
                               scheme=scheme)
                errors.append(grid.h * np.linalg.norm(state.u_curr - exact))
            orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
            assert np.all(orders >= 1.95), (scheme, errors, orders)
            assert errors[-1] < bound, (scheme, errors)


class TestSchemeSolvers:
    """Operators hold what both schemes share; a run builds its own
    scheme's solver and not the other's, nor the Riesz sum only a norm
    applies."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from fracwave import stepper

        counts = {"gs": 0, "tau": 0}
        real_gs, real_tau = stepper.gs_precompute, stepper.tau_spec_2d

        def gs_precompute(col):
            counts["gs"] += 1
            return real_gs(col)

        def tau_spec_2d(alpha, n, factor):
            counts["tau"] += 1
            return real_tau(alpha, n, factor)

        monkeypatch.setattr(stepper, "gs_precompute", gs_precompute)
        monkeypatch.setattr(stepper, "tau_spec_2d", tau_spec_2d)
        return counts

    @pytest.mark.parametrize("scheme, want", [("sadi", {"gs": 1, "tau": 0}),
                                              ("nonadi", {"gs": 0, "tau": 1})])
    def test_run_builds_only_its_own_solver(self, scheme, want, builds):
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=10)
        build_operators(problem, grid, 0.05)
        assert builds == {"gs": 0, "tau": 0}
        run(problem, grid, 0.05, 3, scheme=scheme)
        assert builds == want

    @pytest.fixture
    def bttb_builds(self, monkeypatch):
        from fracwave import stepper

        built = []
        real_build = stepper.bttb_build

        def bttb_build(quadrant, n, scale=1.0):
            built.append(n)
            return real_build(quadrant, n, scale)

        monkeypatch.setattr(stepper, "bttb_build", bttb_build)
        return built

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_run_builds_no_energy_operator(self, scheme, bttb_builds):
        # the operators hold L; the Riesz sum is built only when a norm
        # applies it, which a run's energies never do
        problem = gaussian_problem(nonlinearity="zero")
        grid = Grid2D(a=problem.a, b=problem.b, n=10)
        ops = build_operators(problem, grid, 0.05)
        assert len(bttb_builds) == 1
        run(problem, grid, 0.05, 3, scheme=scheme, ops=ops,
            recorder=lambda s: discrete_energy(s, ops))
        assert len(bttb_builds) == 1

    def test_energy_operators_built_once_on_first_apply(self, bttb_builds,
                                                         rng):
        # the Riesz sum of the A_tilde norm, built on the first apply
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=10)
        ops = build_operators(problem, grid, 0.05)
        w = rng.standard_normal((10, 10))
        assert len(bttb_builds) == 1
        splitting_gap(w, ops)
        assert len(bttb_builds) == 2
        splitting_gap(w, ops)
        assert len(bttb_builds) == 2


class TestUnconditionalStability:
    """g = 0 runs far beyond any explicit step limit (alpha = 1.9, h = 1/4,
    so tau h^{-alpha/2} is about 3.7 and 37) keep their energy: each
    scheme's energy is a norm of the level pair, so the levels stay
    bounded."""

    @pytest.mark.parametrize("scheme, bound", [("sadi", 1e-13),
                                               ("nonadi", 1e-11)])
    @pytest.mark.parametrize("tau", [1.0, 10.0])
    def test_energy_held_over_fifty_large_steps(self, scheme, bound, tau):
        problem = example_problem("zero", 1.9)
        grid = Grid2D.from_spacing(problem.a, problem.b, 0.25)
        ops = build_operators(problem, grid, tau)
        values = []
        state, _ = run(problem, grid, tau, 50, scheme=scheme, ops=ops,
                       recorder=lambda s: values.append(
                           discrete_energy(s, ops)))
        assert values[0] > 0.0
        assert EnergyTrace(np.asarray(values)).relative_drift() <= bound
        assert np.all(np.isfinite(state.u_curr))
