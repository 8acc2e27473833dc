"""Snapshot writers: CSV layout, raw round trips, surface transforms."""

import io
import tracemalloc

import numpy as np
import pytest

from fracwave.errors import ValidationError
from fracwave.snapshots import (
    SNAPSHOT_SUFFIXES,
    SURFACE_NAMES,
    apply_surface,
    read_snapshot_raw,
    snapshot_files,
    write_index_csv,
    write_snapshot_csv,
    write_snapshot_raw,
)


class TestCsv:
    def test_layout_and_precision(self, tmp_path, rng):
        field = rng.standard_normal((3, 3))
        path = tmp_path / "field.csv"
        write_snapshot_csv(path, field)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "i,j,value"
        assert len(lines) == 10
        # indices are 1-based, values survive a full float64 round trip
        i, j, v = lines[1].split(",")
        assert (i, j) == ("1", "1")
        assert float(v) == field[0, 0]
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        got = np.zeros((3, 3))
        for row in data:
            got[int(row[0]) - 1, int(row[1]) - 1] = row[2]
        np.testing.assert_array_equal(got, field)

    @pytest.mark.parametrize("shape", [(3, 4), (1, 5), (5, 1), (1, 1), (2, 0)])
    @pytest.mark.parametrize("base", [0, 1])
    def test_rows_match_per_entry_formatting(self, shape, base, rng):
        # the row templates write the bytes one format per entry writes,
        # signed zero, subnormals and the extremes included
        specials = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.pi]
        table = rng.standard_normal(shape)
        table.flat[:len(specials)] = specials[:table.size]
        want = "i,j,value\n" + "".join(
            "%d,%d,%.17g\n" % (i, j, v)
            for i, row in enumerate(table.tolist(), start=base)
            for j, v in enumerate(row, start=base))
        out = io.StringIO()
        write_index_csv(out, table, base)
        assert out.getvalue() == want

    def test_streamed_rows_stay_small(self, tmp_path, rng):
        # the field is 2.4 MB of text; built as one string it peaks at
        # about 12 MiB
        field = rng.standard_normal((300, 300))
        tracemalloc.start()
        try:
            write_snapshot_csv(tmp_path / "field.csv", field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestRaw:
    def test_bit_exact_round_trip(self, tmp_path):
        field = np.array([[0.0, -0.0, 5e-324],
                          [np.pi, -1.0 / 3.0, 1e300],
                          [2.0 ** -1022, 1.5, -7.25]])
        base = tmp_path / "snap_t2.5"  # dotted label must survive
        write_snapshot_raw(base, field, h=0.5, t=2.5, alpha=1.5, kappa=1.0,
                           nonlinearity="sine_gordon", surface="u")
        assert (tmp_path / "snap_t2.5.f64").exists()
        assert (tmp_path / "snap_t2.5.meta").exists()
        back, meta = read_snapshot_raw(base)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, field)
        assert np.signbit(back[0, 1])
        assert int(meta["n"]) == 3
        assert float(meta["h"]) == 0.5
        assert meta["nonlinearity"] == "sine_gordon"

    def test_meta_records_configuration(self, tmp_path):
        field = np.zeros((2, 2))
        base = tmp_path / "run_t0"
        write_snapshot_raw(base, field, h=0.25, t=0.0, alpha=1.9, kappa=2.0,
                           nonlinearity="zero", surface="sin_u")
        _, meta = read_snapshot_raw(base)
        assert float(meta["alpha"]) == 1.9
        assert float(meta["kappa"]) == 2.0
        assert meta["surface"] == "sin_u"
        assert float(meta["t"]) == 0.0


class TestSurface:
    def test_kinds(self, rng):
        u = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(apply_surface("u", u), u)
        np.testing.assert_allclose(apply_surface("sin_u", u), np.sin(u),
                                   atol=1e-15)
        np.testing.assert_allclose(apply_surface("sin_half_u", u),
                                   np.sin(u / 2.0), atol=1e-15)
        assert set(SURFACE_NAMES) == {"u", "sin_u", "sin_half_u"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            apply_surface("cos_u", np.zeros((2, 2)))


class TestSnapshotFiles:
    """``snapshot_files`` lists what one snapshot of a format makes, the
    files ``solve`` checks before it runs."""

    @pytest.mark.parametrize("fmt", sorted(SNAPSHOT_SUFFIXES))
    def test_each_writer_makes_exactly_its_listed_files(self, fmt, tmp_path):
        stem = tmp_path / "snap_t2.5"  # a dotted label keeps its dot
        listed = snapshot_files(stem, fmt)
        assert [path.name for path in listed] == [
            "snap_t2.5" + suffix for suffix in SNAPSHOT_SUFFIXES[fmt]]
        if fmt == "csv":
            write_snapshot_csv(*listed, np.eye(3))
        else:
            write_snapshot_raw(stem, np.eye(3), h=0.5, t=2.5, alpha=1.5,
                               kappa=1.0, nonlinearity="zero")
        assert sorted(tmp_path.iterdir()) == sorted(listed)
