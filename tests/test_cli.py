"""Command-line interface: files written, exit codes, determinism."""

import tracemalloc

import numpy as np
import pytest

import fracwave.cli as cli
from fracwave.cli import main
from fracwave.coeffs import laplacian_coeffs_2d, riesz_coeffs_1d
from fracwave.errors import SolverError
from fracwave.snapshots import read_snapshot_raw


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

    def test_outdir_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "envdir"))
        assert main(SOLVE_SMALL) == 0
        assert (tmp_path / "envdir" / "summary.txt").exists()

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "envdir"))
        assert main(SOLVE_SMALL + ["--out-dir", str(tmp_path / "flagdir")]) == 0
        assert (tmp_path / "flagdir" / "summary.txt").exists()
        assert not (tmp_path / "envdir").exists()


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

    @pytest.mark.parametrize("argv", [
        SOLVE_SMALL + ["--tau", "nan"],
        SOLVE_SMALL + ["--tau", "0"],
        SOLVE_SMALL + ["--tau", "-1/10"],
        SOLVE_SMALL + ["--t-final", "inf"],
        SOLVE_SMALL + ["--snapshots", "nan"],
        SOLVE_SMALL + ["--threads", "0"],
        ["study-time", "--spec", "{spec}"],
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
        ["study-time", "--spec", "{empty_alphas}"],
        ["coeffs", "--kind", "1d", "--alpha", "1.5", "--count",
         "1000000000000"],
    ], ids=["tau-nan", "tau-zero", "tau-negative", "t-final-inf",
            "snapshot-nan", "threads-zero", "spec-threads-abc",
            "study-threads-zero", "study-tau-list-zero", "tau-tiny",
            "snapshot-huge", "h-tiny", "h-beyond-budget", "study-tau-tiny",
            "study-h-tiny", "removed-setup-tol", "removed-oversampling",
            "removed-study-oversampling", "kappa-tau2-overflow",
            "kappa-tau2-squared-overflow", "t-final-too-many-steps",
            "h-alpha-overflow", "solver-factor-overflow",
            "solver-factor-overflow-nonadi", "study-alphas-empty",
            "spec-alphas-empty", "coeffs-count-huge"])
    def test_bad_numeric_input_exits_two(self, argv, tmp_path, capsys):
        spec = tmp_path / "bad.txt"
        spec.write_text("threads = abc\n")
        empty_alphas = tmp_path / "empty_alphas.txt"
        empty_alphas.write_text("alphas =\ntaus = 1/5\nhs = 1\nt-final = 0.4\n")
        argv = [a.replace("{spec}", str(spec))
                 .replace("{empty_alphas}", str(empty_alphas)) for a in argv]
        if argv[0] != "coeffs":  # coeffs writes to --out, not a directory
            argv = argv + ["--out-dir", str(tmp_path)]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the flag itself
            rc = exc.code
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_solver_failure_maps_to_three(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise SolverError("iteration limit reached")
        monkeypatch.setattr(cli, "run", boom)
        rc = main(SOLVE_SMALL + ["--out-dir", str(tmp_path)])
        assert rc == 3

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

    def test_study_spec_file_with_flag_override(self, tmp_path, monkeypatch):
        spec = tmp_path / "study.txt"
        spec.write_text("example = sine-gordon\nalphas = 1.1\n"
                        "taus = 1/5\nhs = 1/4\nt-final = 0.4\n")
        seen = []
        real_run_study = cli.run_study
        monkeypatch.setattr(cli, "run_study", lambda spec, out: (
            seen.append(spec) or real_run_study(spec, out)))
        out = tmp_path / "o.csv"
        rc = main(["study-time", "--spec", str(spec),
                   "--alphas", "1.9", "--h", "1/2", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert all(r.split(",")[1] == "1.9" for r in rows)
        assert seen[0].hs == (0.5,)  # --h replaced the file's hs = 1/4
        assert seen[0].taus == (0.2,)


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

    def test_bad_count_rejected(self):
        assert main(["coeffs", "--alpha", "1.5", "--count", "0",
                     "--kind", "1d", "--out", "-"]) == 2

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--alpha", "1.5", "--count", "3", "--out-dir", "d"],
        ["coeffs", "--alpha", "1.5", "--count", "3", "--verbose"],
        ["coeffs", "--alpha", "1.5", "--count", "3", "--kind", "cross"],
        ["selftest", "--out-dir", "d"],
    ], ids=["coeffs-out-dir", "coeffs-verbose", "coeffs-kind-cross",
            "selftest-out-dir"])
    def test_removed_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


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

    def test_fault_injection_is_caught(self, capsys):
        rc = main(["selftest", "--fault", "coeffs"])
        out = capsys.readouterr().out
        assert rc == 1
        fails = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 1
        assert "coeff" in fails[0]
