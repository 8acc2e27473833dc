"""Discrete norms, energy functionals, refinement studies, CSV I/O."""

import importlib.util
import os
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import _oracles as oracle
import fracwave.cli as cli
import fracwave.harness as harness
from fracwave import _fft
from fracwave.errors import ValidationError
from fracwave.harness import (
    CSV_HEADER,
    MAX_STEPS,
    EnergyTrace,
    StudySpec,
    _check_halving,
    _l2h_diff,
    _spec_defaults,
    discrete_energy,
    inner_product,
    plan_run,
    refinement_rows,
    splitting_gap,
    run_study,
    write_rows_csv,
)
from fracwave.problems import (Grid2D, Problem, example_problem,
                               resolve_nonlinearity, whole_steps)
from fracwave.stepper import SchemeState, build_operators, run, sadi_step


def small_problem(alpha=1.5, nonlinearity="zero", amp=1.0):
    return Problem(
        a=-2.0, b=2.0, alpha=alpha, kappa=1.0, nonlinearity=nonlinearity,
        phi1=lambda x, y: amp * np.exp(-3.0 * (x ** 2 + y ** 2)),
        phi2=lambda x, y: np.zeros_like(x),
        label="small",
    )


@pytest.fixture
def ops6():
    problem = small_problem()
    grid = Grid2D(a=-2.0, b=2.0, n=6)
    return problem, grid, build_operators(problem, grid, 0.05)


class TestInnerProduct:
    def test_plain_l2_on_ones(self):
        problem = Problem(
            a=0.0, b=2.5, alpha=1.5, kappa=1.0, nonlinearity="zero",
            phi1=lambda x, y: np.zeros_like(x),
            phi2=lambda x, y: np.zeros_like(x), label="t")
        grid = Grid2D(a=0.0, b=2.5, n=4)
        assert grid.h == pytest.approx(0.5)
        ops = build_operators(problem, grid, 0.1)
        w = np.ones((4, 4))
        # h^2 * sum over 16 unit entries = 0.25 * 16
        assert inner_product("l2", w, w, ops) == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("kind", ["l2", "A", "A_tilde"])
    def test_symmetric_bilinear(self, kind, ops6, rng):
        _, _, ops = ops6
        w1 = rng.standard_normal((6, 6))
        w2 = rng.standard_normal((6, 6))
        a = inner_product(kind, w1, w2, ops)
        b = inner_product(kind, w2, w1, ops)
        assert a == pytest.approx(b, rel=1e-11)

    @pytest.mark.parametrize("kind", ["l2", "A", "A_tilde"])
    def test_positive_definite(self, kind, ops6, rng):
        _, _, ops = ops6
        w = rng.standard_normal((6, 6))
        assert inner_product(kind, w, w, ops) > 0.0
        z = np.zeros((6, 6))
        assert inner_product(kind, z, z, ops) == 0.0

    def test_matches_dense_quadratic_forms(self, ops6, rng):
        problem, grid, ops = ops6
        n, h, alpha = grid.n, grid.h, problem.alpha
        w = rng.standard_normal((n, n))
        v = oracle.vec_f(w)
        h2 = h * h
        sc = h ** (-alpha)

        lap = oracle.dense_laplacian_2d(alpha, n, sc)
        assert inner_product("A", w, w, ops) == pytest.approx(
            h2 * v @ lap @ v, rel=1e-11)

        cross = oracle.dense_riesz_sum_2d(alpha, n, sc)
        assert inner_product("A_tilde", w, w, ops) == pytest.approx(
            h2 * v @ cross @ v, rel=1e-11)

    def test_shape_mismatch_rejected(self, ops6):
        _, _, ops = ops6
        with pytest.raises(ValidationError):
            inner_product("l2", np.ones((6, 6)), np.ones((5, 5)), ops)


class TestSplittingGap:
    def test_nonnegative_on_random_fields(self, ops6, rng):
        _, _, ops = ops6
        for _ in range(50):
            w = rng.standard_normal((6, 6))
            assert splitting_gap(w, ops) >= -1e-11 * inner_product("A_tilde", w, w, ops)

    def test_single_point_field(self, ops6):
        # a lone spike exercises the stencil centers directly
        _, _, ops = ops6
        w = np.zeros((6, 6))
        w[3, 2] = 1.0
        gap = splitting_gap(w, ops)
        assert gap >= 0.0
        # center weights: separable sum 2 a_0 vs 2D symbol value a_00
        assert gap == pytest.approx(
            inner_product("A_tilde", w, w, ops) - inner_product("A", w, w, ops),
            rel=1e-12)


class TestEnergy:
    def test_zero_state_has_zero_energy(self, ops6):
        _, _, ops = ops6
        z = np.zeros((6, 6))
        state = SchemeState(u_prev=z, u_curr=z, step_index=1, time=0.05,
                            m_du=z)
        assert discrete_energy(state, ops) == 0.0

    def test_conserved_without_forcing(self):
        # each scheme conserves its own functional; sadi's direct solves
        # leave round-off only, nonadi's drift is set by the 1e-11 PCG tol
        grid = Grid2D(a=-2.0, b=2.0, n=12)
        cases = [("sadi", alpha, tau, 2e-14)
                 for alpha in (1.1, 1.5, 1.9) for tau in (0.05, 0.1)]
        cases.append(("nonadi", 1.5, 0.05, 1e-12))
        for scheme, alpha, tau, bound in cases:
            problem = small_problem(alpha=alpha, nonlinearity="zero")
            ops = build_operators(problem, grid, tau)
            values = []
            run(problem, grid, tau, 30, scheme=scheme, ops=ops,
                recorder=lambda s: values.append(discrete_energy(s, ops)))
            drift = EnergyTrace(values=np.asarray(values)).relative_drift()
            assert drift <= bound, (scheme, alpha, tau, drift)

    @pytest.mark.parametrize("alpha", [1.3, 1.9])
    @pytest.mark.parametrize("tau", [0.05, 0.5])
    def test_matches_paper_forms(self, alpha, tau, rng):
        # the paper's four-term H_n^2 (sadi) and two-term E_n (nonadi),
        # built from dense matrices, on random level pairs; each state
        # carries its scheme's M du, from the dense H x H or I + c L
        problem = small_problem(alpha=alpha)
        grid = Grid2D(a=-2.0, b=2.0, n=6)
        ops = build_operators(problem, grid, tau)
        n, h2, sc = grid.n, grid.h ** 2, grid.h ** (-alpha)
        kappa, c = problem.kappa, 0.5 * tau * tau * problem.kappa
        lap = oracle.dense_laplacian_2d(alpha, n, sc)
        cross = oracle.dense_riesz_sum_2d(alpha, n, sc)
        t1 = oracle.dense_riesz_1d(alpha, n, sc)
        tensor = np.kron(t1, t1)
        hmat = oracle.dense_sadi_system(alpha, n, grid.h, tau, kappa)[0]
        for _ in range(5):
            u_prev, u_curr = rng.standard_normal((2, n, n))
            a, b = oracle.vec_f(u_curr), oracle.vec_f(u_prev)
            dt = (a - b) / tau
            e_n = h2 * (dt @ dt + 0.5 * kappa * (a @ lap @ a + b @ lap @ b))
            h_n2 = e_n + h2 * (c * (dt @ cross @ dt - dt @ lap @ dt)
                               + c * c * dt @ tensor @ dt)
            for m, want in ((np.kron(hmat, hmat), h_n2),
                            (np.eye(n * n) + c * lap, e_n)):
                state = SchemeState(u_prev=u_prev, u_curr=u_curr,
                                    step_index=1, time=tau,
                                    m_du=oracle.unvec_f(m @ (a - b), n))
                assert discrete_energy(state, ops) == pytest.approx(
                    want, rel=1e-12)

    @pytest.mark.parametrize("scheme, applies", [("sadi", 1), ("nonadi", 1)])
    def test_bttb_applies_per_call(self, scheme, applies, ops6, rng,
                                   bttb_calls):
        # a state built by hand carries no pairing: one apply of L makes
        # it; M du, with either scheme's M, is read off the state
        _, _, ops = ops6
        u_prev, u_curr = rng.standard_normal((2, 6, 6))
        du = u_curr - u_prev
        hmat = scipy.linalg.toeplitz(ops.sweep_col)
        m_du = (hmat @ du @ hmat if scheme == "sadi"
                else du + ops.c * ops.lap.apply(du))
        state = SchemeState(u_prev=u_prev, u_curr=u_curr, step_index=1,
                            time=0.05, scheme=scheme, m_du=m_du)
        del bttb_calls[:]
        energy = discrete_energy(state, ops)
        assert len(bttb_calls) == applies
        assert all(op is ops.lap for op in bttb_calls)
        h2 = ops.grid.h ** 2
        want = (h2 * np.vdot(m_du, du) / 0.05 ** 2
                + ops.kappa * inner_product("A", u_prev, u_curr, ops))
        assert energy == pytest.approx(want, rel=1e-13)

    def test_sadi_energy_refuses_states_without_m_du(self, ops6, rng,
                                                     bttb_calls):
        # a state built by hand without M du, and a sadi step from a
        # baseline run state, which carries the baseline's M du and so
        # hands on none, are refused before any apply
        problem, grid, ops = ops6
        u_prev, u_curr = rng.standard_normal((2, 6, 6))
        by_hand = SchemeState(u_prev=u_prev, u_curr=u_curr, step_index=1,
                              time=0.05)
        baseline, _ = run(problem, grid, ops.tau_step, 2, scheme="nonadi",
                          ops=ops)
        crossed = sadi_step(baseline, ops, resolve_nonlinearity("zero"))
        assert crossed.scheme == "sadi" and crossed.m_du is None
        for state in (by_hand, crossed):
            del bttb_calls[:]
            with pytest.raises(ValidationError, match="run state"):
                discrete_energy(state, ops)
            assert bttb_calls == []

    @pytest.mark.parametrize("scheme, applies", [("sadi", 0), ("nonadi", 1)])
    def test_bttb_applies_on_run_states(self, scheme, applies, ops6,
                                        bttb_calls):
        # every state carries its M du, and sadi states the pairing from
        # the step's own apply of L u^n, so their energy makes no apply; a
        # general baseline step makes no pairing, so its energy makes it
        # (the first step's L u^0 gives one). Either way a baseline step
        # and its energy apply L once plus once per PCG iteration.
        problem, grid, ops = ops6
        counts = []

        def recorder(state):
            before = len(bttb_calls)
            discrete_energy(state, ops)
            counts.append(len(bttb_calls) - before)

        _, info = run(problem, grid, ops.tau_step, 4, scheme=scheme, ops=ops,
                      recorder=recorder)
        if scheme == "sadi":
            assert counts == [applies] * 4
        else:
            assert counts == [0] + [applies] * 3
            assert len(bttb_calls) == 4 + info.pcg_total_iterations

    @pytest.mark.parametrize("scheme", ["sadi", "nonadi"])
    def test_carried_pairing_matches_inner_product(self, scheme):
        problem = small_problem(alpha=1.7)
        grid = Grid2D(a=-2.0, b=2.0, n=12)
        ops = build_operators(problem, grid, 0.05)
        states = []
        run(problem, grid, 0.05, 5, scheme=scheme, ops=ops,
            recorder=states.append)
        for state in states:
            if scheme == "nonadi" and state.step_index > 1:
                # a general baseline step makes no apply of L u^n
                assert state.a_pair is None
            else:
                pair = inner_product("A", state.u_curr, state.u_prev, ops)
                assert state.a_pair == pytest.approx(pair, rel=1e-14, abs=0.0)
            # the same levels without the pairing: the energy applies L
            by_hand = SchemeState(u_prev=state.u_prev, u_curr=state.u_curr,
                                  step_index=state.step_index, time=state.time,
                                  m_du=state.m_du)
            assert discrete_energy(state, ops) == pytest.approx(
                discrete_energy(by_hand, ops), rel=1e-14, abs=0.0)

    def test_trace_drift_metric(self):
        t = EnergyTrace(values=np.array([2.0, 2.0, 2.0]))
        assert t.relative_drift() == 0.0
        t2 = EnergyTrace(values=np.array([2.0, 2.2]))
        assert t2.relative_drift() == pytest.approx(0.1, rel=1e-12)


def plan_steps(t_final, tau):
    return plan_run(small_problem(), Grid2D(-2.0, 2.0, 3), tau, t_final).steps


class TestRefinementMechanics:
    def test_steps_for(self):
        assert plan_steps(5.0, 0.1) == 50
        assert plan_steps(1.0, 0.25) == 4
        with pytest.raises(ValidationError):
            plan_steps(1.0, 0.3)
        for tau in (0.0, -0.1):
            with pytest.raises(ValidationError):
                plan_steps(1.0, tau)
        assert plan_steps(MAX_STEPS * 0.5, 0.5) == MAX_STEPS
        with pytest.raises(ValidationError):
            plan_steps((MAX_STEPS + 1) * 0.5, 0.5)
        with pytest.raises(ValidationError, match="shorter than one step"):
            plan_steps(0.0, 0.5)

    @pytest.mark.parametrize("tau", [1e-9, 1e-3, 1.0, 1e3])
    def test_off_step_time_refused_at_any_step_size(self, tau):
        # the slack is relative to the step count, not to the time: a time
        # of 1.4 or 0.5 steps is refused however small the step
        plan = plan_run(small_problem(), Grid2D(-2.0, 2.0, 3), tau, 4.0 * tau)
        assert plan.step_of(3.0 * tau, "t") == 3
        for steps in (0.5, 1.4, 2.0 + 1e-6):
            with pytest.raises(ValidationError, match="does not land"):
                plan.step_of(steps * tau, "t")
        with pytest.raises(ValidationError, match="does not land"):
            plan_steps(1.4 * tau, tau)

    def test_step_of_refuses_times_outside_the_run(self):
        plan = plan_run(small_problem(), Grid2D(-2.0, 2.0, 3), 0.5, 2.0)
        assert (plan.step_of(0.0, "t"), plan.step_of(2.0, "t")) == (0, 4)
        for t in (-0.5, 2.5):
            with pytest.raises(ValidationError, match="within 0 .. 4 steps"):
                plan.step_of(t, "t")

    def test_plan_unpacks_into_run(self):
        plan = plan_run(small_problem(), Grid2D(-2.0, 2.0, 3), 0.5, 1.0)
        problem, grid, tau, steps = plan
        assert (grid.n, tau, steps) == (3, 0.5, 2)
        state, _ = run(*plan)
        assert state.step_index == 2 and state.time == pytest.approx(1.0)

    def test_spacing_and_step_share_one_rule(self):
        # whole_steps backs both the time-step and the grid-spacing checks
        assert whole_steps(2.0, 0.01) == 200
        assert whole_steps(1.0 + 5e-10, 1.0) == 1
        assert whole_steps(1.0 + 2e-9, 1.0) is None
        assert whole_steps(1.4e-9, 1e-9) is None
        assert whole_steps(float("inf"), 0.1) is None
        assert whole_steps(1e300, 1e-300) is None
        assert Grid2D.from_spacing(-10.0, 10.0, 0.5).n == 39
        for h in (0.3, 8.0, 20.0):  # 66.7 and 2.5 intervals, and only 1
            with pytest.raises(ValidationError, match="integral interval"):
                Grid2D.from_spacing(-10.0, 10.0, h)

    def test_overflowing_domain_refused(self):
        # b - a overflows to inf, so h would be inf at any node count
        with pytest.raises(ValidationError, match="spacing must be finite"):
            Grid2D(-1e308, 1e308, 9)
        assert Grid2D(-1e307, 1e307, 9).h == pytest.approx(2e306)

    def test_check_halving(self):
        _check_halving([0.2, 0.1, 0.05], "tau")
        with pytest.raises(ValidationError):
            _check_halving([0.2, 0.07], "tau")

    def test_l2h_diff(self):
        same = np.ones((3, 3))
        assert _l2h_diff(0.5, same, same) == 0.0
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        b[0, 0] = 3.0
        b[1, 1] = 4.0
        # h * sqrt(9 + 16) = 1 * 5
        assert _l2h_diff(1.0, a, b) == pytest.approx(5.0, rel=1e-14)

    def test_restriction_nodes_align(self):
        coarse = Grid2D(a=-2.0, b=2.0, n=7)
        fine = Grid2D(a=-2.0, b=2.0, n=15)
        xc, xf = coarse.nodes(), fine.nodes()
        np.testing.assert_allclose(xf[1::2], xc, atol=1e-14)


class TestRefinementStudies:
    def test_time_axis_orders_near_two(self):
        problem = small_problem(nonlinearity="sine_gordon")
        rows = refinement_rows(problem, "time", steps=[0.1, 0.05],
                               fixed=4.0 / 8.0, t_final=0.8)
        assert len(rows) == 2
        assert rows[0].order is None
        assert rows[0].error > rows[1].error > 0.0
        assert rows[1].order == pytest.approx(2.0, abs=0.35)
        assert all(r.scheme == "sadi" and r.alpha == 1.5 for r in rows)
        assert rows[0].step == pytest.approx(0.1)
        assert rows[1].step == pytest.approx(0.05)
        assert all(r.cpu_seconds >= 0.0 for r in rows)

    def test_time_rows_share_runs(self):
        # the k-th row compares runs k and k+1, so a prefix of the tau list
        # must reproduce the same leading rows
        problem = small_problem(nonlinearity="zero")
        full = refinement_rows(problem, "time", [0.2, 0.1], 0.5, 0.8)
        head = refinement_rows(problem, "time", [0.2], 0.5, 0.8)
        assert head[0].error == pytest.approx(full[0].error, rel=1e-12)

    def test_space_axis_orders_near_two(self):
        problem = small_problem(nonlinearity="sine_gordon")
        rows = refinement_rows(problem, "space", steps=[0.5, 0.25],
                               fixed=0.01, t_final=0.2)
        assert len(rows) == 2
        assert rows[0].order is None
        assert rows[1].order is not None
        assert rows[0].error > rows[1].error > 0.0
        assert rows[0].step == pytest.approx(0.5)

    def test_zero_errors_give_undefined_order(self):
        # zero data stays zero: every error is 0, and 0 / 0 has no order
        problem = Problem(a=-4.0, b=4.0, alpha=1.5)
        rows = refinement_rows(problem, "time", [0.2, 0.1], 0.5, 0.4)
        assert [r.error for r in rows] == [0.0, 0.0]
        assert rows[0].order is None and np.isnan(rows[1].order)

    def test_space_axis_rejects_non_halving(self):
        problem = small_problem()
        with pytest.raises(ValidationError):
            refinement_rows(problem, "space", [0.5, 0.3], 0.01, 0.1)

    def test_unknown_scheme_rejected(self):
        problem = small_problem()
        with pytest.raises(ValidationError):
            refinement_rows(problem, "time", [0.1], 0.5, 0.2, scheme="magic")

    @pytest.mark.parametrize("axis, steps, match", [
        # h = 1/40 and 1/80 are fine (N = 799, 1599), but the study's last
        # run at h = 1/160 has N = 3199, beyond the coefficient budget
        ("space", [1 / 40, 1 / 80], "N=3199"),
        ("depth", [1 / 40, 1 / 80], "axis must be"),
        ("time", [0.1, 0.03], "halve strictly"),
        ("space", [0.5, 0.3], "halve strictly"),
    ], ids=["oversize-grid", "unknown-axis", "time-not-halving",
            "space-not-halving"])
    def test_oversize_grid_refused_before_the_first_run(self, monkeypatch,
                                                        axis, steps, match):
        calls = []

        def fake_run(problem, grid, *args, **kwargs):
            calls.append(grid.n)
            raise AssertionError(f"a run started at N={grid.n}")

        monkeypatch.setattr(harness, "run", fake_run)
        with pytest.raises(ValidationError, match=match):
            refinement_rows(example_problem("zero", 1.5), axis, steps,
                            0.01, 5.0)
        assert calls == []


class TestRunStudy:
    @pytest.mark.parametrize("axis", ["time", "space"])
    def test_empty_alphas_rejected(self, axis, tmp_path):
        spec = StudySpec(axis=axis, alphas=(), steps=(0.1,), fixed=0.5,
                         t_final=0.2)
        out = tmp_path / "empty.csv"
        with pytest.raises(ValidationError, match="alpha list"):
            run_study(spec, output_path=out)
        assert not out.exists()

    def test_every_alpha_checked_before_the_first_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run",
                            lambda *args, **kwargs: calls.append(args))
        spec = StudySpec(axis="time", example="zero", alphas=(1.5, 2.5),
                         steps=(0.1, 0.05), fixed=4.0, t_final=0.2)
        with pytest.raises(ValidationError, match="alpha"):
            run_study(spec)
        assert calls == []

    def test_every_cell_scale_checked_before_the_first_run(self, tmp_path,
                                                            monkeypatch):
        # both alphas are valid problems; only check_scales refuses alpha =
        # 1.9, whose factor^2 overflows at tau = 0.2, while alpha = 1.1
        # passes at every tau and would run first
        calls = []
        monkeypatch.setattr(harness, "run",
                            lambda *args, **kwargs: calls.append(args))
        spec = StudySpec(axis="time", example="zero", alphas=(1.1, 1.9),
                         steps=(0.2, 0.1), fixed=0.5, t_final=0.4,
                         kappa=1.5e155)
        with pytest.raises(ValidationError, match="alpha=1.9"):
            run_study(spec, tmp_path / "dd" / "rows.csv")
        assert calls == []
        assert not (tmp_path / "dd").exists()

    def test_each_cell_planned_once(self, monkeypatch):
        # two alphas x three runs, planned once for both schemes: six scale
        # checks in harness (build_operators makes its own in stepper)
        calls = []
        real_check = harness.check_scales
        monkeypatch.setattr(harness, "check_scales", lambda *args: (
            calls.append(args) or real_check(*args)))
        spec = StudySpec(axis="time", example="zero", scheme="both",
                         alphas=(1.5, 1.9), steps=(0.2, 0.1), fixed=4.0,
                         t_final=0.4)
        rows = run_study(spec)
        assert len(rows) == 8
        assert len(calls) == 6

    def test_output_directory_made_before_the_first_run(self, tmp_path,
                                                         monkeypatch):
        made = []
        real_run = harness.run
        monkeypatch.setattr(harness, "run", lambda *args, **kwargs: (
            made.append((tmp_path / "new").is_dir()) or real_run(*args, **kwargs)))
        spec = StudySpec(axis="time", example="zero", alphas=(1.5,),
                         steps=(0.1,), fixed=4.0, t_final=0.2)
        run_study(spec, output_path=tmp_path / "new" / "rows.csv")
        assert made == [True, True]
        assert (tmp_path / "new" / "rows.csv").exists()

    def test_unknown_scheme_refused_before_the_directory(self, tmp_path):
        spec = StudySpec(axis="time", example="zero", scheme="magic",
                         alphas=(1.5,), steps=(0.2,), fixed=4.0, t_final=0.4)
        with pytest.raises(ValidationError, match="unknown scheme"):
            run_study(spec, tmp_path / "dd" / "rows.csv")
        assert not (tmp_path / "dd").exists()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="needs two CPUs for two FFT workers")
    def test_fft_worker_count_restored_after_a_refusal(self):
        spec = StudySpec(axis="time", example="zero", scheme="magic",
                         alphas=(1.5,), steps=(0.2,), fixed=4.0, t_final=0.4,
                         threads=2)
        assert _fft._WORKERS == 1
        with pytest.raises(ValidationError, match="unknown scheme"):
            run_study(spec)
        assert _fft._WORKERS == 1

    def test_small_study_both_schemes(self, tmp_path):
        spec = StudySpec(axis="time", example="sine-gordon", scheme="both",
                         alphas=(1.5,), steps=(0.1,), fixed=0.5, t_final=0.4)
        out = tmp_path / "study.csv"
        rows = run_study(spec, output_path=out)
        # one tau entry still needs the companion half-step run: 1 row/scheme
        assert [r.scheme for r in rows] == ["sadi", "nonadi"]
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "sadi"
        assert first[1] == "1.5"
        assert float(first[3]) > 0.0
        assert first[4] == ""  # no order on the leading row

    def test_rows_ordered_scheme_alpha_step(self):
        spec = StudySpec(axis="time", alphas=(1.9, 1.3), steps=(0.2, 0.1),
                         fixed=0.5, t_final=0.4, scheme="sadi",
                         example="sine-gordon")
        rows = run_study(spec)
        assert [(r.alpha, r.step) for r in rows] == [
            (1.9, 0.2), (1.9, 0.1), (1.3, 0.2), (1.3, 0.1)]


# The study defaults of each (example, axis) as (steps, fixed, t_final): the
# paper's tables 3 and 4 for the cubic model, and for the ring model, which
# "zero" shares, the lists the study commands have always run.
_RING_DEFAULTS = {
    "time": (tuple(0.1 / 2**k for k in range(4)), 0.025, 5.0),
    "space": (tuple(1.0 / 2**k for k in range(4)), 0.01, 5.0),
}
STUDY_DEFAULTS = {
    "sine-gordon": _RING_DEFAULTS,
    "zero": _RING_DEFAULTS,
    "klein-gordon": {
        "time": ((4 / 25, 2 / 25, 1 / 25, 1 / 50), 1 / 50, 8.0),
        "space": ((2 / 5, 1 / 5, 1 / 10, 1 / 20), 1 / 125, 8.0),
    },
}
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


class TestPublishedTables:
    @pytest.mark.parametrize("axis", ["time", "space"])
    @pytest.mark.parametrize("example", list(STUDY_DEFAULTS))
    def test_spec_defaults_are_the_published_tables(self, example, axis):
        spec = _spec_defaults(StudySpec(axis=axis, example=example))
        assert (spec.steps, spec.fixed, spec.t_final) == STUDY_DEFAULTS[example][axis]

    @staticmethod
    def table_script():
        path = SCRIPTS / "reproduce_tables.py"
        module_spec = importlib.util.spec_from_file_location("reproduce_tables", path)
        script = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(script)
        return script

    def test_table_script_resolves_to_its_docstring(self, tmp_path, monkeypatch):
        # the script runs each table through the fracwave command, so the
        # specs are recorded where the command hands them on
        seen = {}

        def record(spec, out):
            seen[Path(out).stem] = _spec_defaults(spec)
            Path(out).parent.mkdir(parents=True, exist_ok=True)
            write_rows_csv(out, [])
            return []

        monkeypatch.setattr(cli, "run_study", record)
        script = self.table_script()
        assert script.main(["--out-dir", str(tmp_path)]) == 0
        # e.g. "  3  cubic model, time refinement (h = 1/50, tau = 4/25 ... 1/50, t = 8)"
        listed = re.findall(
            r"^\s+(\d)\s+(ring|cubic) model,\s+(time|space) refinement\s+"
            r"\((\w+) = ([\d/]+),\s+(\w+) = ([\d/]+) \.\.\. ([\d/]+),\s+"
            r"t = (\d+)\)$", script.__doc__, flags=re.MULTILINE)
        assert [row[0] for row in listed] == ["1", "2", "3", "4"]
        models = {"ring": "sine-gordon", "cubic": "klein-gordon"}
        for num, model, axis, fixed, fixed_v, varied, first, last, t in listed:
            spec = seen[f"table{num}"]
            assert (spec.example, spec.axis) == (models[model], axis)
            assert {"time": ("h", "tau"), "space": ("tau", "h")}[axis] == (
                fixed, varied)
            assert spec.fixed == float(Fraction(fixed_v))
            assert spec.steps[0] == float(Fraction(first))
            assert spec.steps[-1] == float(Fraction(last))
            assert spec.t_final == float(t)

    @pytest.mark.parametrize("flags", [
        ["--alphas", "2.5"],
        ["--threads", str((os.cpu_count() or 1) + 1)],
    ], ids=["alpha-beyond-two", "threads-beyond-cpus"])
    def test_refused_table_exits_two_and_makes_no_directory(self, flags,
                                                            tmp_path, capsys):
        out = tmp_path / "X"
        rc = self.table_script().main(["--table", "2", "--scheme", "sadi",
                                       *flags, "--out-dir", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "error:" in captured.err
        assert not out.exists()


class TestStudyCsv:
    def test_csv_formatting(self, tmp_path):
        from fracwave.harness import StudyRow
        rows = [
            StudyRow(scheme="sadi", alpha=1.5, step=0.025,
                     error=8.1276e-2, order=None, cpu_setup=0.5, cpu_loop=1.25),
            StudyRow(scheme="sadi", alpha=1.5, step=0.0125,
                     error=2.0729e-2, order=1.9712, cpu_setup=0.5,
                     cpu_loop=2.5),
        ]
        path = tmp_path / "rows.csv"
        write_rows_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        r0 = lines[1].split(",")
        assert r0[2] == "0.025"
        assert r0[3] == "8.127600e-02"
        assert r0[4] == ""
        r1 = lines[2].split(",")
        assert r1[4] == "1.9712"
        assert float(r1[7]) == pytest.approx(3.0)
