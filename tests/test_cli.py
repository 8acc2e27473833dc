"""Command-line interface: files written, exit codes, determinism."""

import argparse
import contextlib
import importlib.util
import io
import os
import tempfile
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracwave.cli as cli
import fracwave.harness as harness
from fracwave import _fft, stepper
from fracwave.cli import main
from fracwave.coeffs import laplacian_coeffs_2d, riesz_coeffs_1d
from fracwave.errors import SolverError, ValidationError
from fracwave.harness import StudySpec, plan_run
from fracwave.problems import Grid2D, example_problem
from fracwave.snapshots import SNAPSHOT_SUFFIXES, read_snapshot_raw


def read_snapshot_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    n = int(data[:, 0].max())
    field = np.zeros((n, n))
    for i, j, v in data:
        field[int(i) - 1, int(j) - 1] = v
    return field


def strip_timing(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("# timing"))


SOLVE_SMALL = ["solve", "--example", "sine-gordon", "--alpha", "1.5",
               "--tau", "0.1", "--t-final", "0.4", "--n", "11"]
STUDY_SMALL = ["--example", "zero", "--alphas", "1.5", "--t-final", "0.4"]


class TestSolve:
    def test_writes_summary_and_snapshots(self, tmp_path, capsys):
        rc = main(SOLVE_SMALL + ["--out-dir", str(tmp_path),
                                 "--snapshots", "0,0.2,0.4"])
        assert rc == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "final_max_abs" in summary
        assert "snapshots_written = 3" in summary
        assert capsys.readouterr().out == summary
        for label in ("0", "0.2", "0.4"):
            snap = tmp_path / f"snap_t{label}.csv"
            assert snap.exists()
            field = read_snapshot_csv(snap)
            assert field.shape == (11, 11)
        # t = 0 snapshot holds the initial displacement: zero for this model
        assert np.all(read_snapshot_csv(tmp_path / "snap_t0.csv") == 0.0)

    def test_deterministic_output(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        args = SOLVE_SMALL + ["--snapshots", "0.4"]
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        s1 = (d1 / "snap_t0.4.csv").read_bytes()
        s2 = (d2 / "snap_t0.4.csv").read_bytes()
        assert s1 == s2
        r1 = strip_timing((d1 / "summary.txt").read_text())
        r2 = strip_timing((d2 / "summary.txt").read_text())
        assert r1 == r2
        assert r1 != (d1 / "summary.txt").read_text()  # timing block present

    def test_raw_format_round_trips(self, tmp_path):
        d1, d2 = tmp_path / "csv", tmp_path / "raw"
        args = SOLVE_SMALL + ["--snapshots", "0.4"]
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--format", "raw", "--out-dir", str(d2)]) == 0
        from_csv = read_snapshot_csv(d1 / "snap_t0.4.csv")
        field, meta = read_snapshot_raw(d2 / "snap_t0.4")
        np.testing.assert_allclose(field, from_csv, atol=1e-15)
        assert int(meta["n"]) == 11
        assert meta["surface"] == "u"
        assert float(meta["t"]) == pytest.approx(0.4)
        assert float(meta["alpha"]) == 1.5

    @pytest.mark.parametrize("fmt", ["csv", "raw"])
    def test_checks_exactly_the_files_it_writes(self, fmt, tmp_path,
                                                monkeypatch):
        # the up-front output check and the snapshot writers name the same
        # files, so a changed suffix on one side alone fails here
        checked = []
        real_prepare = cli.prepare_outputs

        def record(paths):
            paths = list(paths)
            checked.extend(Path(path) for path in paths)
            return real_prepare(paths)

        monkeypatch.setattr(cli, "prepare_outputs", record)
        argv = SOLVE_SMALL + ["--snapshots", "0,0.4", "--format", fmt,
                              "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert sorted(checked) == sorted(tmp_path.iterdir())
        assert len(checked) == 1 + 2 * len(SNAPSHOT_SUFFIXES[fmt])

    def test_surface_transform_applied(self, tmp_path):
        d1, d2 = tmp_path / "u", tmp_path / "s"
        args = SOLVE_SMALL + ["--snapshots", "0.4"]
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--surface", "sin_half_u", "--out-dir", str(d2)]) == 0
        u = read_snapshot_csv(d1 / "snap_t0.4.csv")
        s = read_snapshot_csv(d2 / "snap_t0.4.csv")
        np.testing.assert_allclose(s, np.sin(u / 2.0), atol=1e-12)

    def test_energy_block_only_without_forcing(self, tmp_path):
        rc = main(["solve", "--example", "zero", "--alpha", "1.5",
                   "--tau", "0.1", "--t-final", "0.3", "--n", "9",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "energy_relative_drift" in summary
        drift = float([ln.split("=")[1] for ln in summary.splitlines()
                       if ln.startswith("energy_relative_drift")][0])
        assert drift <= 1e-10

    def test_setup_time_reported(self, tmp_path):
        assert main(SOLVE_SMALL + ["--out-dir", str(tmp_path)]) == 0
        summary = (tmp_path / "summary.txt").read_text()
        setup = [ln for ln in summary.splitlines()
                 if ln.startswith("# timing setup_seconds")]
        assert len(setup) == 1
        assert float(setup[0].split("=")[1]) > 0.0

    def test_setup_time_includes_solver_build(self, tmp_path, capsys,
                                              monkeypatch):
        # the solver is built by run, after the CLI's own operator build
        real = stepper.gs_precompute

        def slow_precompute(col):
            time.sleep(0.05)
            return real(col)

        monkeypatch.setattr(stepper, "gs_precompute", slow_precompute)
        assert main(SOLVE_SMALL + ["--out-dir", str(tmp_path)]) == 0
        setup = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("# timing setup_seconds")]
        assert float(setup[0].split("=")[1]) >= 0.05

    @pytest.mark.parametrize("value, want", [("-1e1", -10.0), ("-1/2", -0.5)])
    def test_negative_value_joined_with_equals(self, value, want):
        # the form the help names for values argparse would take for a flag
        args = cli.build_parser().parse_args(
            ["solve", "--alpha", "1.5", f"--a={value}"])
        assert args.a == want


class TestExitCodes:
    def test_validation_bad_alpha(self, tmp_path, capsys):
        rc = main(["solve", "--example", "sine-gordon", "--alpha", "2.5",
                   "--tau", "0.1", "--t-final", "0.2", "--n", "9",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_validation_non_dividing_spacing(self, tmp_path):
        rc = main(["solve", "--example", "sine-gordon", "--alpha", "1.5",
                   "--tau", "0.1", "--t-final", "0.2", "--h", "0.3",
                   "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_validation_misaligned_snapshot(self, tmp_path):
        rc = main(SOLVE_SMALL + ["--snapshots", "0.33",
                                 "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_off_step_time_at_a_tiny_step_makes_no_directory(self, tmp_path,
                                                              capsys):
        # 1.4 steps of tau = 1e-9: refused, not rounded down to one step
        out = tmp_path / "X"
        rc = main(["solve", "--example", "zero", "--alpha", "1.5", "--n", "3",
                   "--tau", "1e-9", "--t-final", "1.4e-9",
                   "--out-dir", str(out)])
        assert rc == 2
        assert "does not land on a step" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_domain_makes_no_directory(self, tmp_path, capsys):
        # (-1e308, 1e308) has an infinite length: h = inf is refused
        out = tmp_path / "X"
        rc = main(["solve", "--alpha", "1.5", "--a=-1e308", "--b", "1e308",
                   "--n", "9", "--tau", "0.1", "--t-final", "0.2",
                   "--out-dir", str(out)])
        assert rc == 2
        assert "spacing must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_snapshot_times_sharing_a_label_refused(self):
        grid = Grid2D(-10.0, 10.0, 3)
        plan = plan_run(example_problem("zero", 1.5), grid, 1e-6, 2.0)
        assert plan.steps == 2000000
        with pytest.raises(ValidationError, match="1.000001 and 1.000002"):
            cli._snapshot_steps((1.000001, 1.000002), plan)
        # one step asked for twice writes one file: no clash
        plan = plan_run(example_problem("zero", 1.5), grid, 0.5, 2.0)
        assert cli._snapshot_steps((0.0, 0.5, 1.0, 1.0), plan) == {
            0: "0", 1: "0.5", 2: "1"}

    @pytest.mark.parametrize("argv", [
        ["solve", "--scheme", "sadi"],
        ["solve", "--scheme", "nonadi"],
        ["study-time", "--scheme", "both", "--taus", "2e-200,1e-200",
         "--h", "4"],
        ["study-space", "--scheme", "both", "--hs", "4,2", "--tau", "1e-200"],
    ], ids=["solve-sadi", "solve-nonadi", "study-time", "study-space"])
    def test_tau_with_a_subnormal_square_makes_no_directory(self, argv,
                                                            tmp_path, capsys):
        # tau^2 = 0 in floating point: refused before the division by it
        out = tmp_path / "X"
        common = (["--alpha", "1.5", "--n", "5", "--tau", "1e-200"]
                  if argv[0] == "solve" else ["--alphas", "1.5"])
        rc = main(argv + ["--example", "zero", *common, "--t-final", "2e-200",
                          "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "smallest normal double" in err and "Traceback" not in err
        assert not out.exists()

    def test_smallest_accepted_tau_solves(self, tmp_path):
        rc = main(["solve", "--example", "zero", "--alpha", "1.5", "--n", "5",
                   "--tau", "1.5e-154", "--t-final", "3e-154",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "energy_relative_drift" in (tmp_path / "summary.txt").read_text()

    def test_snapshot_label_clash_exits_two_before_any_step(self, tmp_path,
                                                            capsys,
                                                            monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a step ran")
        monkeypatch.setattr(cli, "run", no_run)
        out = tmp_path / "X"
        rc = main(["solve", "--example", "zero", "--alpha", "1.5", "--n", "3",
                   "--tau", "1e-6", "--t-final", "2", "--snapshots",
                   "1.000001,1.000002", "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "1.000001 and 1.000002" in err and "t1" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        SOLVE_SMALL + ["--tau", "nan"],
        SOLVE_SMALL + ["--tau", "0"],
        SOLVE_SMALL + ["--tau", "-1/10"],
        SOLVE_SMALL + ["--t-final", "inf"],
        SOLVE_SMALL + ["--snapshots", "nan"],
        SOLVE_SMALL + ["--threads", "0"],
        ["study-time", "--threads", "0"],
        ["study-time", "--taus", "1/5,0", "--h", "1/2", "--t-final", "0.4"],
        SOLVE_SMALL + ["--tau", "1e-320"],
        SOLVE_SMALL + ["--snapshots", "1e308"],
        ["solve", "--example", "sine-gordon", "--alpha", "1.5", "--h", "1e-320"],
        ["solve", "--example", "sine-gordon", "--alpha", "1.5", "--h", "1e-300"],
        ["study-time", "--taus", "1e-320", "--h", "1/2", "--t-final", "0.4"],
        ["study-space", "--hs", "1e-320", "--tau", "1/10", "--t-final", "0.2"],
        SOLVE_SMALL + ["--setup-tol", "1e-13"],
        SOLVE_SMALL + ["--oversampling", "8"],
        ["study-time", "--oversampling", "8"],
        ["solve", "--example", "zero", "--alpha", "1.5", "--n", "9", "--tau",
         "0.1", "--t-final", "0.3", "--kappa", "1e308"],
        ["solve", "--example", "zero", "--alpha", "1.5", "--n", "9", "--tau",
         "0.1", "--t-final", "0.3", "--kappa", "1e200"],
        SOLVE_SMALL + ["--t-final", "1e300"],
        ["solve", "--alpha", "1.5", "--a", "0", "--b", "1e-300", "--n", "3",
         "--tau", "0.1", "--t-final", "0.2"],
        ["solve", "--alpha", "1.5", "--a", "0", "--b", "4e-200", "--n", "3",
         "--tau", "1e10", "--t-final", "1e10"],
        ["solve", "--alpha", "1.5", "--a", "0", "--b", "4e-200", "--n", "3",
         "--tau", "1e10", "--t-final", "1e10", "--scheme", "nonadi"],
        ["study-time", "--example", "zero", "--alphas", "", "--taus",
         "1/5,1/10", "--h", "1", "--t-final", "0.4"],
        ["study-time", "--example", "zero", "--alphas", "1.5", "--taus", "",
         "--h", "4", "--t-final", "0.1"],
        ["study-space", "--example", "zero", "--alphas", "1.5", "--hs", "",
         "--tau", "0.1", "--t-final", "0.1"],
        ["coeffs", "--kind", "1d", "--alpha", "1.5", "--count",
         "1000000000000"],
    ], ids=["tau-nan", "tau-zero", "tau-negative", "t-final-inf",
            "snapshot-nan", "threads-zero", "study-threads-zero",
            "study-tau-list-zero", "tau-tiny",
            "snapshot-huge", "h-tiny", "h-beyond-budget", "study-tau-tiny",
            "study-h-tiny", "removed-setup-tol", "removed-oversampling",
            "removed-study-oversampling", "kappa-tau2-overflow",
            "kappa-tau2-squared-overflow", "t-final-too-many-steps",
            "h-alpha-overflow", "solver-factor-overflow",
            "solver-factor-overflow-nonadi", "study-alphas-empty",
            "study-taus-empty", "study-hs-empty", "coeffs-count-huge"])
    def test_bad_numeric_input_exits_two(self, argv, tmp_path, capsys):
        if argv[0] != "coeffs":  # coeffs writes to --out, not a directory
            argv = argv + ["--out-dir", str(tmp_path)]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the flag itself
            rc = exc.code
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [10 ** 20, (os.cpu_count() or 1) + 1],
                             ids=["beyond-c-int", "cpu-count-plus-one"])
    @pytest.mark.parametrize("where", ["solve-flag", "study-flag"])
    def test_thread_count_beyond_cpus_exits_two(self, threads, where, tmp_path,
                                                 capsys, monkeypatch):
        # the count must be refused before any transform runs: with the
        # transform library taken away, reaching one raises instead of
        # starting that many threads
        monkeypatch.setattr(_fft, "_sfft", None)
        argv = {
            "solve-flag": SOLVE_SMALL + ["--threads", str(threads)],
            "study-flag": ["study-time", "--taus", "1/5", "--h", "1",
                           "--t-final", "0.4", "--threads", str(threads)],
        }[where]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "FFT worker count" in err and "Traceback" not in err

    def test_solver_failure_maps_to_three(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise SolverError("iteration limit reached")
        monkeypatch.setattr(cli, "run", boom)
        rc = main(SOLVE_SMALL + ["--out-dir", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize("argv, module, name", [
        (SOLVE_SMALL, cli, "build_operators"),
        (["study-time", *STUDY_SMALL, "--taus", "1/5", "--h", "4"], harness,
         "run"),
        (["coeffs", "--alpha", "1.5", "--count", "4"], cli,
         "laplacian_coeffs_2d"),
    ], ids=["solve", "study", "coeffs"])
    def test_out_of_memory_exits_two(self, argv, module, name, tmp_path,
                                     monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 128. MiB")
        monkeypatch.setattr(module, name, exhausted)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 128. MiB\n"

    def test_blow_up_exits_four(self, tmp_path, capsys):
        # kappa = 0 reduces the update to an explicit pointwise recurrence;
        # a huge step on the cubic model then grows past the guard quickly
        rc = main(["solve", "--example", "klein-gordon", "--kappa", "0",
                   "--alpha", "1.5", "--tau", "4", "--t-final", "40",
                   "--n", "15", "--out-dir", str(tmp_path)])
        assert rc == 4
        assert "blow-up" in capsys.readouterr().err

    def test_io_failure_exits_five(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        rc = main(SOLVE_SMALL + ["--out-dir", str(blocker)])
        assert rc == 5

    @pytest.mark.parametrize("argv", [
        SOLVE_SMALL + ["--summary", "{file}/s.txt"],
        SOLVE_SMALL + ["--prefix", "{file}/snap", "--snapshots", "0.4"],
        ["study-time", *STUDY_SMALL, "--taus", "1/5", "--h", "4",
         "--out", "{file}/rows.csv"],
        SOLVE_SMALL + ["--summary", "{dir}"],
        ["study-time", *STUDY_SMALL, "--taus", "1/5", "--h", "4",
         "--out", "{dir}"],
        SOLVE_SMALL + ["--snapshots", "0.2"],
        SOLVE_SMALL + ["--snapshots", "0.2", "--format", "raw"],
    ], ids=["solve-summary", "solve-prefix", "study-out", "solve-summary-dir",
            "study-out-dir", "solve-snapshot-dir", "solve-raw-snapshot-dir"])
    def test_unusable_output_refused_before_the_first_step(self, argv, tmp_path,
                                                           monkeypatch):
        # a path under a regular file, whose directory cannot be made, or
        # an existing directory, which cannot be written as a file: either
        # must surface before any operator is built or run
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        (tmp_path / "a-dir").mkdir()
        # a directory where a snapshot file would go (the csv, or the raw
        # format's .meta sidecar, written after its .f64)
        for name in ("snap_t0.2.csv", "snap_t0.2.meta"):
            (tmp_path / name).mkdir()
        calls = []

        def record(*args, **kwargs):
            calls.append(args)

        for module in (cli, harness):
            monkeypatch.setattr(module, "run", record)
        monkeypatch.setattr(cli, "build_operators", record)
        argv = [a.replace("{file}", str(blocker)).replace(
            "{dir}", str(tmp_path / "a-dir")) for a in argv]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 5
        assert calls == []


    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="needs two CPUs for two FFT workers")
    @pytest.mark.parametrize("argv, code", [
        (SOLVE_SMALL, 0),
        (SOLVE_SMALL + ["--summary", "{file}/s.txt"], 5),
    ], ids=["solve", "solve-refused"])
    def test_fft_worker_count_restored(self, argv, code, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        argv = [a.replace("{file}", str(blocker)) for a in argv]
        assert _fft._WORKERS == 1
        assert main(argv + ["--threads", "2", "--out-dir", str(tmp_path)]) == code
        assert _fft._WORKERS == 1

    def test_missing_output_directories_made(self, tmp_path):
        rc = main(SOLVE_SMALL + ["--summary", "runs/s.txt", "--prefix",
                                 "snaps/deep/snap", "--snapshots", "0.4",
                                 "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "runs" / "s.txt").exists()
        assert (tmp_path / "snaps" / "deep" / "snap_t0.4.csv").exists()

    @pytest.mark.parametrize("argv, rc, left", [
        (["solve", "--example", "sine-gordon", "--alpha", "2.5", "--n", "9",
          "--tau", "0.1", "--t-final", "0.2", "--out-dir", "new"], 2, []),
        (["study-time", *STUDY_SMALL, "--taus", "1/5", "--h", "4",
          "--out", "elsewhere/rows.csv", "--out-dir", "d"], 0, ["elsewhere"]),
        (["solve", "--example", "zero", "--alpha", "1.5", "--n", "9",
          "--tau", "0.1", "--t-final", "0.3", "--kappa", "1e308",
          "--out-dir", "new2"], 2, []),
        (["study-time", *STUDY_SMALL, "--taus", "1/5", "--h", "4",
          "--kappa", "1e308", "--out-dir", "x"], 2, []),
        (["study-time", *STUDY_SMALL, "--taus", "1/5,1/7", "--h", "4",
          "--out-dir", "x"], 2, []),
        # an output path whose last component is empty, '.' or '..' names
        # no file (an empty --summary once wrote a file named "out")
        (SOLVE_SMALL + ["--summary", "", "--out-dir", "out"], 2, []),
        (SOLVE_SMALL + ["--summary", ".", "--out-dir", "out"], 2, []),
        (SOLVE_SMALL + ["--summary", "runs/..", "--out-dir", "out"], 2, []),
        (["study-time", *STUDY_SMALL, "--taus", "1/5", "--h", "4",
          "--out", "runs/."], 2, []),
        # an empty --out is refused, not replaced by the default name
        (["study-time", *STUDY_SMALL, "--taus", "1/5", "--h", "4",
          "--out", ""], 2, []),
        (["coeffs", "--alpha", "2.5", "--count", "4", "--out", "new/c.csv"],
         2, []),
        (["coeffs", "--alpha", "1.5", "--count", "4", "--oversampling", "1",
          "--out", "new/c.csv"], 2, []),
    ], ids=["solve-refused", "study-out-elsewhere", "solve-scale-refused",
            "study-scale-refused", "study-steps-refused", "summary-empty",
            "summary-dot", "summary-dotdot", "study-out-dot",
            "study-out-empty", "coeffs-alpha-refused",
            "coeffs-oversampling-refused"])
    def test_unused_output_directory_not_made(self, argv, rc, left, tmp_path,
                                              monkeypatch):
        # a directory is made only when something is written there, and
        # only after the flags, the operator scales and the output paths
        # are checked
        monkeypatch.chdir(tmp_path)
        assert main(argv) == rc
        assert sorted(p.name for p in tmp_path.iterdir()) == left


class TestDashValues:
    def test_error_names_the_equals_form(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--alpha", "1.5", "--a", "-1/2", "--n", "3",
                  "--tau", "0.1", "--t-final", "0.1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --a: expected one argument" in err
        assert "with '=', e.g. --a=-1e1" in err


class TestStudyCommands:
    def test_study_time_small(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(["study-time", "--example", "sine-gordon",
                   "--alphas", "1.5", "--taus", "1/5", "--h", "1/2",
                   "--t-final", "0.4", "--out", str(out)])
        assert rc == 0
        assert "wrote 1 rows" in capsys.readouterr().err
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("scheme,alpha,step,error,order")
        assert len(lines) == 2
        assert lines[1].split(",")[2] == "0.2"

    def test_study_space_default_output_name(self, tmp_path):
        rc = main(["study-space", "--example", "sine-gordon",
                   "--alphas", "1.5", "--hs", "1/2,1/4", "--tau", "1/10",
                   "--t-final", "0.2", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "study_space.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_scale_refusal_of_a_later_alpha_makes_no_directory(
            self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(harness, "run", no_run)
        out = tmp_path / "X"
        rc = main(["study-time", "--example", "zero", "--alphas", "1.1,1.9",
                   "--taus", "1/5,1/10", "--h", "1/2", "--t-final", "0.4",
                   "--kappa=1.5e155", "--out-dir", str(out)])
        assert rc == 2
        assert "alpha=1.9" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["time", "space"])
    def test_every_spec_field_is_a_study_flag(self, axis, tmp_path,
                                              monkeypatch):
        # each StudySpec field but the axis is set by its flag and reaches
        # run_study; a flag left out keeps the field's default
        seen = []
        monkeypatch.setattr(cli, "run_study",
                            lambda spec, out: seen.append(spec) or [])
        want = {"example": "klein-gordon", "scheme": "both",
                "alphas": (1.25, 1.75), "t_final": 0.4, "kappa": 0.25,
                "threads": 2}
        argv = [f"study-{axis}", "--example", "klein-gordon", "--scheme",
                "both", "--alphas", "5/4,1.75", "--t-final", "2/5",
                "--kappa", "1/4", "--threads", "2"]
        if axis == "time":
            want.update(steps=(0.2, 0.1), fixed=0.5)
            argv += ["--taus", "1/5,1/10", "--h", "1/2"]
        else:
            want.update(steps=(0.5, 0.25), fixed=0.2)
            argv += ["--hs", "1/2,1/4", "--tau", "1/5"]
        assert {f.name for f in fields(StudySpec)} == {"axis", *want}
        out = ["--out-dir", str(tmp_path)]
        assert main(argv + out) == 0
        assert main([f"study-{axis}"] + out) == 0
        assert seen == [StudySpec(axis=axis, **want), StudySpec(axis=axis)]


class TestCoeffsCommand:
    def test_1d_to_stdout(self, capsys):
        rc = main(["coeffs", "--alpha", "1.5", "--count", "3",
                   "--kind", "1d", "--out", "-"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "i,j,value"
        assert len(lines) == 4
        w = riesz_coeffs_1d(1.5, 3)
        for k, line in enumerate(lines[1:]):
            i, j, v = line.split(",")
            assert (int(i), int(j)) == (k, 0)
            assert float(v) == pytest.approx(w[k], rel=1e-15)

    def test_2d_to_file(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["coeffs", "--alpha", "1.5", "--count", "4",
                   "--kind", "2d", "--oversampling", "64", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 17
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(2.7470661362816475, abs=1e-6)

    def test_classical_alpha_allowed(self, capsys):
        rc = main(["coeffs", "--alpha", "2", "--count", "2",
                   "--kind", "1d", "--out", "-"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[1].split(",")[2]) == pytest.approx(2.0, abs=1e-13)

    @pytest.mark.parametrize("kind", ["1d", "2d"])
    @pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
    def test_streamed_rows_match_joined_table(self, kind, to_stdout, tmp_path,
                                              capsys):
        count = 7
        rows = ["i,j,value"]
        if kind == "1d":
            w = riesz_coeffs_1d(1.5, count)
            rows.extend(f"{i},0,{w[i]:.17g}" for i in range(count))
        else:
            quad = laplacian_coeffs_2d(1.5, count)
            for i in range(count):
                rows.extend(f"{i},{j},{quad[i, j]:.17g}" for j in range(count))
        out = tmp_path / "c.csv"
        rc = main(["coeffs", "--alpha", "1.5", "--count", str(count),
                   "--kind", kind, "--out", "-" if to_stdout else str(out)])
        assert rc == 0
        text = capsys.readouterr().out if to_stdout else out.read_text()
        assert text == "\n".join(rows) + "\n"

    def test_streamed_output_stays_small(self, tmp_path):
        # count 256: 65536 rows; joined into one string they peak near
        # 10 MiB, written one offset row at a time under 4 MiB
        tracemalloc.start()
        try:
            rc = main(["coeffs", "--alpha", "1.5", "--count", "256",
                       "--out", str(tmp_path / "c.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak <= 5 * 2**20

    def test_directory_out_refused_before_any_coefficient(self, tmp_path,
                                                           monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "laplacian_coeffs_2d",
                            lambda *args, **kwargs: calls.append(args))
        for out, rc in ((tmp_path, 5), (f"{tmp_path}/runs/.", 2)):
            assert main(["coeffs", "--alpha", "1.5", "--count", "4",
                         "--out", str(out)]) == rc
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_missing_out_directories_made(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["coeffs", "--alpha", "1.5", "--count", "2", "--kind", "1d",
                     "--out", "new/sub/c.csv"]) == 0
        assert (tmp_path / "new" / "sub" / "c.csv").read_text().startswith(
            "i,j,value\n0,0,")

    def test_bad_count_rejected(self):
        assert main(["coeffs", "--alpha", "1.5", "--count", "0",
                     "--kind", "1d", "--out", "-"]) == 2

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--alpha", "1.5", "--count", "3", "--out-dir", "d"],
        ["coeffs", "--alpha", "1.5", "--count", "3", "--verbose"],
        ["coeffs", "--alpha", "1.5", "--count", "3", "--kind", "cross"],
        ["selftest", "--out-dir", "d"],
        ["selftest", "--fault", "coeffs"],
        SOLVE_SMALL + ["--scheme", "nonadi", "--tol", "1e-11"],
        ["study-time", *STUDY_SMALL, "--taus", "1/5", "--h", "4", "--tol", "1e-11"],
        ["study-space", *STUDY_SMALL, "--hs", "4", "--tau", "1/5", "--tol", "1e-11"],
        ["study-time", *STUDY_SMALL, "--taus", "1/5", "--h", "4", "--spec", "s.txt"],
        ["study-space", *STUDY_SMALL, "--hs", "4", "--tau", "1/5", "--spec", "s.txt"],
    ], ids=["coeffs-out-dir", "coeffs-verbose", "coeffs-kind-cross",
            "selftest-out-dir", "selftest-fault", "solve-tol", "study-time-tol",
            "study-space-tol", "study-time-spec", "study-space-spec"])
    def test_removed_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# Flag values for the argv fuzz, as (valid, invalid) pools. The valid
# values keep every run small: grids of at most 8 interior nodes ((-10, 10)
# at h >= 20/9, or --n <= 8; a space study's finest grid is at h/2 with
# h >= 5) and at most 20 steps (t_final <= 1 against steps >= 1/20, a time
# study's last run at half its last tau included). Thread counts are 1, 2
# or values the bound refuses.
ALPHAS = (["1.5", "3/2", "1.1", "1.9"], ["2", "1", "0.5", "nan", "abc", ""])
KAPPAS = (["1", "0", "0.7", "1/3", "1e10"], ["-1", "nan", "inf", "1e308"])
THREADS = (["1", "2"], ["0", "-1", str(10 ** 20),
                        str((os.cpu_count() or 1) + 1)])
SOLVE_TAUS = (["1/10", "0.1", "1/5", "0.05", "1/20"],
              ["0", "-1/10", "nan", "1e-320"])
STUDY_TAUS = (["1/5", "0.2", "1/4", "1/5,1/10", "1/4,1/8"],
              ["1/5,1/4", "0", "-1/5", "nan", ""])
FIXED_TAUS = (["1/5", "0.2", "1/4"], ["0", "-1/5", "nan", "1e-320"])
T_FINALS = (["0.1", "1/5", "2/5", "0.5", "1"],
            ["0", "0.33", "-1", "nan", "inf", "1e300", "abc"])
HS = (["10", "5", "4", "20/6", "2.5", "20/9"],
      ["0.3", "3", "-1", "0", "nan", "1/0", "1e-320"])
STUDY_HS = (["10", "5", "10,5", "20/2,5"], ["10,4", "0.3", "-1", "nan", ""])
SNAP_TIMES = (["0", "0.1", "1/5", "1"], ["0.33", "nan", "-1", "1e308", ""])
EXAMPLES = (["sine-gordon", "klein-gordon", "zero"], ["x"])
OUT_DIRS = (["{dir}"], ["{file}"])


def _value(pool):
    """One value of a (valid, invalid) pool, invalid one time in eight."""
    valid, invalid = pool
    return st.integers(0, 7).flatmap(
        lambda k: st.sampled_from(invalid if k == 0 else valid))


def _optional(flag, pool):
    return st.one_of(st.just([]), _value(pool).map(lambda v: [flag, v]))


@st.composite
def _solve_argv(draw):
    argv = ["solve", "--alpha", draw(_value(ALPHAS))]
    argv += draw(_optional("--kappa", KAPPAS))
    custom_domain = draw(st.booleans())
    if custom_domain:
        argv += draw(st.sampled_from([[], ["--a", "-5"], ["--a=-1/2"],
                                      ["--a", "-1e1"], ["--a", "0"]]))
        argv += draw(_optional("--b", (["10", "1"], ["0", "1e-300"])))
    else:
        argv += draw(_optional("--example", EXAMPLES))
    argv += draw(_optional("--nonlinearity",
                           (["sine_gordon", "klein_gordon", "zero"], ["x"])))
    argv += draw(_optional("--initial", (["ring", "bump", "zero"], ["x"])))
    n_flag = ["--n", draw(_value(([str(n) for n in range(1, 9)],
                                  ["0", "-2", "x", "2.5"])))]
    # a spacing on a custom domain could give a large grid
    h_flag = [] if custom_domain else ["--h", draw(_value(HS))]
    argv += draw(_value(([n_flag, h_flag or n_flag], [n_flag + h_flag])))
    argv += ["--tau", draw(_value(SOLVE_TAUS)),
             "--t-final", draw(_value(T_FINALS))]
    argv += draw(_optional("--scheme", (["sadi", "nonadi"], ["magic"])))
    argv += draw(_optional("--threads", THREADS))
    times = draw(st.lists(_value(SNAP_TIMES), max_size=3))
    if times:
        argv += ["--snapshots", ",".join(times)]
    argv += draw(_optional("--format", (["csv", "raw"], ["x"])))
    argv += draw(_optional("--surface", (["u", "sin_u", "sin_half_u"], ["x"])))
    argv += draw(_optional("--prefix", (["snap", "missing/snap"],
                                        ["{file}/snap"])))
    argv += draw(_optional("--summary", (["summary.txt", "missing/s.txt"],
                                         ["{file}/s.txt"])))
    argv += draw(st.sampled_from([[], ["--verbose"]]))
    return argv + ["--out-dir", draw(_value(OUT_DIRS))]


@st.composite
def _study_argv(draw):
    axis = draw(st.sampled_from(["time", "space"]))
    argv = [f"study-{axis}"]
    # the steps, the fixed step and the horizon are always given: the
    # defaults' runs are large
    if axis == "time":
        argv += ["--taus", draw(_value(STUDY_TAUS)), "--h", draw(_value(HS))]
    else:
        argv += ["--hs", draw(_value(STUDY_HS)),
                 "--tau", draw(_value(FIXED_TAUS))]
    argv += ["--t-final", draw(_value(T_FINALS))]
    for flag, pool in (("--example", EXAMPLES),
                       ("--scheme", (["sadi", "nonadi", "both"], ["magic"])),
                       ("--alphas", (["1.5", "1.1,1.9", "3/2"], ["", "0.5", "x"])),
                       ("--kappa", KAPPAS), ("--threads", THREADS)):
        argv += draw(_optional(flag, pool))
    argv += draw(_optional("--out", (["{dir}/rows.csv", "{dir}/missing/r.csv"],
                                     ["{file}/r.csv"])))
    return argv + ["--out-dir", draw(_value(OUT_DIRS))]


@st.composite
def _coeffs_argv(draw):
    argv = ["coeffs", "--alpha", draw(_value((ALPHAS[0] + ["2"], ALPHAS[1][1:])))]
    argv += ["--count", draw(_value((["1", "2", "7", "40"],
                                     ["0", "-1", "x", "3000", str(10 ** 12)])))]
    argv += draw(_optional("--kind", (["1d", "2d"], ["3d"])))
    argv += draw(_optional("--oversampling",
                           (["2", "8", "64"], ["1", "0", "-3", "100000", "x"])))
    argv += draw(_optional("--out", (["-", "{dir}/c.csv", "{dir}/missing/c.csv"],
                                     ["{dir}", "{file}/c.csv", ""])))
    return argv


ARGV = st.one_of(_solve_argv(), _study_argv(), _coeffs_argv())


class TestArgvFuzz:
    @settings(max_examples=50, deadline=None)
    @given(argv=ARGV)
    def test_exit_code_is_documented(self, argv):
        workers = _fft._WORKERS
        with tempfile.TemporaryDirectory() as tmp:
            blocker = os.path.join(tmp, "occupied")
            with open(blocker, "w") as fh:
                fh.write("not a directory")
            argv = [a.replace("{dir}", tmp).replace("{file}", blocker)
                    for a in argv]
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    try:
                        rc = main(argv)
                    except SystemExit as exc:  # argparse refused the argv
                        rc = exc.code
            finally:
                _fft._WORKERS = workers
        assert rc in (0, 2, 3, 4, 5), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


class TestParsing:
    def test_parse_number(self):
        assert cli._fraction("1/40") == pytest.approx(0.025)
        assert cli._fraction(" 0.5 ") == 0.5
        assert cli._fraction("4/25") == pytest.approx(0.16)
        for text in ("abc", "1/0", "nan", "inf", "-inf", "1e400", "1/nan"):
            with pytest.raises(argparse.ArgumentTypeError):
                cli._fraction(text)

    def test_parse_number_list(self):
        assert cli._fraction_list("1, 1/2, 0.25") == (1.0, 0.5, 0.25)
        assert cli._fraction_list(" , ") == ()
        with pytest.raises(argparse.ArgumentTypeError):
            cli._fraction_list("1,abc")

    @pytest.mark.parametrize("flag, value", [
        ("--tau", "abc"), ("--t-final", "1/0"), ("--kappa", "nan"),
        ("--h", "1e400"), ("--snapshots", "0.1,abc"), ("--snapshots", "1/0"),
    ])
    def test_bad_number_exits_two_through_main(self, flag, value, tmp_path,
                                                capsys):
        argv = ["solve", "--example", "zero", "--alpha", "1.5",
                f"{flag}={value}", "--out-dir", str(tmp_path / "X")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and "Traceback" not in err
        assert not (tmp_path / "X").exists()


class TestFigureScript:
    def test_each_job_names_its_own_summary(self, tmp_path, monkeypatch):
        path = Path(__file__).resolve().parent.parent / "scripts" / "figure_snapshots.py"
        module_spec = importlib.util.spec_from_file_location("figure_snapshots", path)
        script = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(script)
        seen = []
        monkeypatch.setattr(script, "fracwave_main",
                            lambda argv: seen.append(argv) or 0)
        assert script.main(["--quick", "--alphas", "1.5,1.9",
                            "--out-dir", str(tmp_path)]) == 0
        summaries = {}
        for argv in seen:
            prefix = argv[argv.index("--prefix") + 1]
            summaries[prefix] = argv[argv.index("--summary") + 1]
        assert summaries == {
            f"{tag}_alpha{alpha}": f"{tag}_alpha{alpha}_summary.txt"
            for tag in ("ring", "cubic") for alpha in ("1.5", "1.9")}


class TestSelftestCommand:
    def test_passes_and_is_deterministic(self, capsys):
        rc1 = main(["selftest"])
        out1 = capsys.readouterr().out
        rc2 = main(["selftest"])
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert out1 == out2
        check_lines = [ln for ln in out1.splitlines() if ln.startswith("PASS")]
        assert len(check_lines) >= 10
        assert not any(ln.startswith("FAIL") for ln in out1.splitlines())

    def test_fault_injection_is_caught(self, capsys, monkeypatch):
        def corrupted(*args, **kwargs):
            quad = laplacian_coeffs_2d(*args, **kwargs)
            quad[1, 1] += 1e-3
            return quad

        monkeypatch.setattr("fracwave.selftest.laplacian_coeffs_2d", corrupted)
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 1
        fails = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 1
        assert fails[0].startswith("FAIL coeff_2d_vs_quadrature:")
