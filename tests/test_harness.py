"""Discrete norms, energy functionals, refinement studies, CSV/spec-file I/O."""

import numpy as np
import pytest

import _oracles as oracle
from fracwave.coeffs import riesz_sum_coeffs_2d
from fracwave.errors import ValidationError
from fracwave.harness import (
    CSV_HEADER,
    EnergyTrace,
    StudySpec,
    _check_halving,
    _l2h_diff,
    _spec_defaults,
    _steps_for,
    discrete_energy,
    error_space_refinement,
    error_time_refinement,
    inner_product,
    splitting_gap,
    parse_number,
    parse_number_list,
    parse_study_file,
    run_study,
    write_rows_csv,
)
from fracwave.problems import Grid2D, Problem
from fracwave.stepper import SchemeState, build_operators, run


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

    @pytest.mark.parametrize("kind", ["l2", "A", "A_tilde", "B"])
    def test_symmetric_bilinear(self, kind, ops6, rng):
        _, _, ops = ops6
        w1 = rng.standard_normal((6, 6))
        w2 = rng.standard_normal((6, 6))
        a = inner_product(kind, w1, w2, ops)
        b = inner_product(kind, w2, w1, ops)
        assert a == pytest.approx(b, rel=1e-11)

    @pytest.mark.parametrize("kind", ["l2", "A", "A_tilde", "B"])
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

        cross = oracle.dense_cross_2d(riesz_sum_coeffs_2d(alpha, n).quadrant,
                                      n, sc)
        assert inner_product("A_tilde", w, w, ops) == pytest.approx(
            h2 * v @ cross @ v, rel=1e-11)

        t1 = oracle.dense_riesz_1d(alpha, n, sc)
        tensor = np.kron(t1, t1)
        assert inner_product("B", w, w, ops) == pytest.approx(
            h2 * v @ tensor @ v, rel=1e-11)

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
        state = SchemeState(u_prev=z, u_curr=z, step_index=1, time=0.05)
        assert discrete_energy(state, ops) == 0.0

    def test_conserved_without_forcing(self):
        # each scheme conserves its own functional
        problem = small_problem(nonlinearity="zero")
        grid = Grid2D(a=-2.0, b=2.0, n=12)
        tau = 0.05
        ops = build_operators(problem, grid, tau)
        for scheme in ("sadi", "nonadi"):
            values = []
            run(problem, grid, tau, 30, scheme=scheme, ops=ops,
                recorder=lambda s: values.append(discrete_energy(s, ops, scheme)))
            trace = EnergyTrace(values=np.asarray(values))
            assert trace.relative_drift() <= 1e-12, scheme

    def test_nonadi_functional_drops_splitting_terms(self, ops6, rng):
        _, _, ops = ops6
        u_prev, u_curr = rng.standard_normal((2, 6, 6))
        state = SchemeState(u_prev=u_prev, u_curr=u_curr, step_index=1, time=0.05)
        tau, kappa = ops.tau_step, ops.kappa
        dt = (u_curr - u_prev) / tau
        split_terms = (0.5 * tau * tau * kappa * splitting_gap(dt, ops)
                       + 0.25 * (kappa * tau * tau) ** 2
                       * inner_product("B", dt, dt, ops))
        assert discrete_energy(state, ops) - discrete_energy(
            state, ops, "nonadi") == pytest.approx(split_terms, rel=1e-10)
        with pytest.raises(ValidationError):
            discrete_energy(state, ops, "magic")

    def test_trace_drift_metric(self):
        t = EnergyTrace(values=np.array([2.0, 2.0, 2.0]))
        assert t.relative_drift() == 0.0
        t2 = EnergyTrace(values=np.array([2.0, 2.2]))
        assert t2.relative_drift() == pytest.approx(0.1, rel=1e-12)


class TestRefinementMechanics:
    def test_steps_for(self):
        assert _steps_for(5.0, 0.1) == 50
        assert _steps_for(1.0, 0.25) == 4
        with pytest.raises(ValidationError):
            _steps_for(1.0, 0.3)
        for tau in (0.0, -0.1):
            with pytest.raises(ValidationError):
                _steps_for(1.0, tau)

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
        rows = error_time_refinement(problem, h_fixed=4.0 / 8.0,
                                     tau_list=[0.1, 0.05], t_final=0.8)
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
        full = error_time_refinement(problem, 0.5, [0.2, 0.1], 0.8)
        head = error_time_refinement(problem, 0.5, [0.2], 0.8)
        assert head[0].error == pytest.approx(full[0].error, rel=1e-12)

    def test_space_axis_orders_near_two(self):
        problem = small_problem(nonlinearity="sine_gordon")
        rows = error_space_refinement(problem, tau_fixed=0.01,
                                      h_list=[0.5, 0.25], t_final=0.2)
        assert len(rows) == 2
        assert rows[0].order is None
        assert rows[1].order is not None
        assert rows[0].error > rows[1].error > 0.0
        assert rows[0].step == pytest.approx(0.5)

    def test_space_axis_rejects_non_halving(self):
        problem = small_problem()
        with pytest.raises(ValidationError):
            error_space_refinement(problem, 0.01, [0.5, 0.3], 0.1)

    def test_unknown_scheme_rejected(self):
        problem = small_problem()
        with pytest.raises(ValidationError):
            error_time_refinement(problem, 0.5, [0.1], 0.2, scheme="magic")


class TestRunStudy:
    def test_empty_alphas_yields_header_only_csv(self, tmp_path):
        spec = StudySpec(axis="time", alphas=(), taus=(0.1,), hs=(0.5,),
                         t_final=0.2)
        out = tmp_path / "empty.csv"
        rows = run_study(spec, output_path=out)
        assert rows == []
        lines = out.read_text().strip().splitlines()
        assert lines == [",".join(CSV_HEADER)]

    def test_small_study_both_schemes(self, tmp_path):
        spec = StudySpec(axis="time", example="sine-gordon", scheme="both",
                         alphas=(1.5,), taus=(0.1,), hs=(0.5,), t_final=0.4)
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
        spec = StudySpec(axis="time", alphas=(1.9, 1.3), taus=(0.2, 0.1),
                         hs=(0.5,), t_final=0.4, scheme="sadi",
                         example="sine-gordon")
        rows = run_study(spec)
        assert [(r.alpha, r.step) for r in rows] == [
            (1.9, 0.2), (1.9, 0.1), (1.3, 0.2), (1.3, 0.1)]


class TestParsing:
    def test_parse_number(self):
        assert parse_number("1/40") == pytest.approx(0.025)
        assert parse_number(" 0.5 ") == 0.5
        assert parse_number("4/25") == pytest.approx(0.16)
        with pytest.raises(ValidationError):
            parse_number("abc")
        with pytest.raises(ValidationError):
            parse_number("1/0")
        for text in ("nan", "inf", "-inf", "1e400", "1/nan"):
            with pytest.raises(ValidationError):
                parse_number(text)

    def test_parse_number_list(self):
        assert parse_number_list("1, 1/2, 0.25") == (1.0, 0.5, 0.25)

    def test_spec_defaults_fill_axes(self):
        spec = _spec_defaults(StudySpec(axis="time"))
        assert len(spec.taus) >= 2
        assert len(spec.hs) == 1
        spec2 = _spec_defaults(StudySpec(axis="space"))
        assert len(spec2.hs) >= 2
        assert len(spec2.taus) == 1

    def test_study_file_round_trip(self, tmp_path):
        text = """
# benchmark configuration
example = sine-gordon
scheme = both
alphas = 1.1, 1.5
taus = 1/10, 1/20
hs = 1/2
t-final = 1
tol = 1e-10
threads = 2
"""
        path = tmp_path / "study.txt"
        path.write_text(text)
        spec = parse_study_file(path, axis="time")
        assert spec.example == "sine-gordon"
        assert spec.scheme == "both"
        assert spec.alphas == (1.1, 1.5)
        assert spec.taus == (0.1, 0.05)
        assert spec.hs == (0.5,)
        assert spec.t_final == 1.0
        assert spec.tol == 1e-10
        assert spec.threads == 2

    def test_study_file_underscore_keys_accepted(self, tmp_path):
        path = tmp_path / "study.txt"
        path.write_text("t_final = 2\nalphas = 1.5\n")
        spec = parse_study_file(path, axis="time")
        assert spec.t_final == 2.0

    def test_study_file_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "study.txt"
        for text in ("volume = 11\n", "timing-strict = yes\n",
                     "oversampling = 8\n"):
            path.write_text(text)
            with pytest.raises(ValidationError):
                parse_study_file(path, axis="time")

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
