"""Time stepping against dense linear-algebra references.

The dense oracle assembles the split system (I x H)(H x I) and the
unfactored system (I + c L) as explicit matrices in column-major ordering
and advances the same recurrences with ``numpy.linalg.solve``. The fast
stepper must match to solver tolerance.
"""

from dataclasses import replace

import numpy as np
import pytest

import _oracles as oracle
from fracwave import _fft
from fracwave.errors import BlowUpError, ValidationError
from fracwave.harness import EnergyTrace, discrete_energy
from fracwave.problems import Grid2D, Problem, example_problem, resolve_nonlinearity
from fracwave.stepper import (
    SCHEME_NAMES,
    SchemeState,
    adi_solve,
    build_operators,
    nonadi_first_step,
    nonadi_step,
    run,
    sadi_first_step,
    sadi_step,
)


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

        state = sadi_first_step(problem, grid, ops)
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
        # operator T puts H's diagonal above one and its off-diagonals below 0
        assert ops.riesz.first_col[0] > 0.0
        assert np.all(ops.riesz.first_col[1:] < 0.0)
        assert ops.gs.p1 > 0.0


class TestNonAdiVsDense:
    def test_three_steps_match(self):
        problem = gaussian_problem(alpha=1.4, kappa=1.2)
        grid = Grid2D(a=problem.a, b=problem.b, n=16)
        tau = 0.04
        dense = DenseScheme(problem, grid, tau)
        ops = build_operators(problem, grid, tau)
        g = resolve_nonlinearity(problem.nonlinearity)

        state = nonadi_first_step(problem, grid, ops, tol=1e-13)
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
        first = nonadi_first_step(problem, grid, ops)
        second = nonadi_step(first, ops, g)
        assert first.pcg_iterations >= 1
        assert second.pcg_iterations >= 1
        assert sadi_first_step(problem, grid, ops).pcg_iterations is None


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
            s1 = sadi_first_step(problem, grid, ops)
            s2 = nonadi_first_step(problem, grid, ops, tol=1e-14)
            diffs.append(np.max(np.abs(s1.u_curr - s2.u_curr)))
        assert diffs[0] > 0.0
        ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
        for r in ratios:
            assert 6.0 < r < 8.5
        assert ratios[1] > ratios[0]

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


class TestCarriedApplies:
    """Each step hands on the fractional-Laplacian apply it made of u_prev:
    the energy pairing a_pair from every step, the field lap_prev from the
    baseline steps only."""

    def test_nonadi_step_applies_once_plus_iterations(self, bttb_calls):
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=12)
        ops = build_operators(problem, grid, 0.05)
        g = resolve_nonlinearity(problem.nonlinearity)
        state = nonadi_first_step(problem, grid, ops)
        assert len(bttb_calls) == 1 + state.pcg_iterations
        for _ in range(3):
            del bttb_calls[:]
            nxt = nonadi_step(state, ops, g)
            assert len(bttb_calls) == 1 + nxt.pcg_iterations
            # without the carried field the step applies L to u_prev itself
            # and lands on the same bits
            bare = nonadi_step(replace(state, lap_prev=None), ops, g)
            assert np.array_equal(bare.u_curr, nxt.u_curr)
            assert bare.pcg_iterations == nxt.pcg_iterations
            assert len(bttb_calls) == 3 + 2 * nxt.pcg_iterations
            state = nxt

    def test_lap_prev_is_a_compact_apply_of_u_prev(self):
        problem = gaussian_problem()
        grid = Grid2D(a=problem.a, b=problem.b, n=12)
        ops = build_operators(problem, grid, 0.05)
        states = []
        run(problem, grid, 0.05, 3, scheme="nonadi", ops=ops,
            recorder=states.append)
        for state in states:
            lap = state.lap_prev
            # its own N x N memory, not a view of the apply's N x L buffer
            assert lap.flags.c_contiguous and lap.base is None
            np.testing.assert_array_equal(lap, ops.lap.apply(state.u_prev))
        run(problem, grid, 0.05, 3, scheme="sadi", ops=ops,
            recorder=states.append)
        assert all(s.lap_prev is None and s.a_pair is not None
                   for s in states[3:])

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_kappa_zero_makes_no_apply(self, scheme, bttb_calls):
        problem = gaussian_problem(kappa=0.0, nonlinearity="zero")
        grid = Grid2D(a=problem.a, b=problem.b, n=9)
        ops = build_operators(problem, grid, 0.07)
        states = []

        def recorder(state):
            states.append(state)
            discrete_energy(state, ops, scheme)

        run(problem, grid, 0.07, 4, scheme=scheme, ops=ops, recorder=recorder)
        assert bttb_calls == []
        assert all(s.a_pair is None and s.lap_prev is None for s in states)


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
    scheme's solver and not the other's."""

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
                           discrete_energy(s, ops, scheme)))
        assert values[0] > 0.0
        assert EnergyTrace(np.asarray(values)).relative_drift() <= bound
        assert np.all(np.isfinite(state.u_curr))
