"""Snapshot output: grid fields written as CSV or raw binary blocks.

Formats (both bit-exact and documented so external tools can read them):

* CSV: header ``i,j,value``; one row per node in row-major order; i and j
  are 1-based interior node indices (node coordinate = a + i h); values
  carry 17 significant digits, enough to round-trip a float64. The
  ``coeffs`` command writes its weight tables in the same format with
  0-based offsets.
* raw: ``<name>.f64`` holds the N x N field as little-endian float64 in
  row-major order (i outer, j inner), and ``<name>.meta`` is a small
  ``key = value`` text sidecar with n, h, t, alpha, kappa, nonlinearity,
  surface.

An optional pointwise surface transform is applied before writing:
``u`` (identity), ``sin_u`` (sin u), or ``sin_half_u`` (sin(u/2)); the two
sine variants are the customary ways to display ring waves of the
sine-Gordon equation.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ValidationError

__all__ = [
    "SURFACE_NAMES",
    "SNAPSHOT_SUFFIXES",
    "apply_surface",
    "snapshot_files",
    "write_index_csv",
    "write_snapshot_csv",
    "write_snapshot_raw",
    "read_snapshot_raw",
]

SURFACE_NAMES = ("u", "sin_u", "sin_half_u")
# The files one snapshot of each format makes, as suffixes of its stem.
SNAPSHOT_SUFFIXES = {"csv": (".csv",), "raw": (".f64", ".meta")}


def apply_surface(surface: str, u: np.ndarray) -> np.ndarray:
    if surface == "u":
        return u
    if surface == "sin_u":
        return np.sin(u)
    if surface == "sin_half_u":
        return np.sin(0.5 * u)
    raise ValidationError(
        f"unknown surface {surface!r}; available: {', '.join(SURFACE_NAMES)}"
    )


def write_index_csv(fh, table: np.ndarray, base: int) -> None:
    """Write a 2D table to the text stream ``fh`` as ``i,j,value`` CSV rows,
    indices counted from ``base``. One table row per write, so the text is
    never held whole: a 2048 x 2048 table as one string takes hundreds of
    MiB. Each row is one ``%`` format of a template joined from per-column
    ``j,%.17g`` tails made once per call."""
    table = np.asarray(table, dtype=float)
    fh.write("i,j,value\n")
    tails = ["%d,%%.17g\n" % j for j in range(base, base + table.shape[1])]
    if not tails:
        return
    for i, row in enumerate(table, start=base):
        lead = "%d," % i
        fh.write((lead + lead.join(tails)) % tuple(row.tolist()))


def write_snapshot_csv(path, field: np.ndarray) -> None:
    """Write ``field`` to ``path`` in the CSV format, 1-based node indices."""
    with open(path, "w") as fh:
        write_index_csv(fh, field, base=1)


def snapshot_files(stem, fmt: str) -> list[Path]:
    """The files one snapshot in format ``fmt`` makes at ``stem``, named by
    appending (not Path.with_suffix) so that dots in labels like snap_t2.5
    survive."""
    stem = Path(stem)
    return [stem.parent / (stem.name + s) for s in SNAPSHOT_SUFFIXES[fmt]]


def write_snapshot_raw(
    path,
    field: np.ndarray,
    *,
    h: float,
    t: float,
    alpha: float,
    kappa: float,
    nonlinearity: str,
    surface: str = "u",
) -> None:
    """Write ``path``.f64 (data) and ``path``.meta (text sidecar)."""
    field = np.asarray(field, dtype=float)
    data_path, meta_path = snapshot_files(path, "raw")
    data = field.astype("<f8", copy=False)
    data_path.write_bytes(data.tobytes(order="C"))
    meta = "\n".join([
        f"n = {field.shape[0]}",
        f"h = {h:.17g}",
        f"t = {t:.17g}",
        f"alpha = {alpha:.17g}",
        f"kappa = {kappa:.17g}",
        f"nonlinearity = {nonlinearity}",
        f"surface = {surface}",
        "dtype = float64 little-endian row-major",
    ])
    meta_path.write_text(meta + "\n")


def read_snapshot_raw(path) -> tuple[np.ndarray, dict[str, str]]:
    """Read back a raw snapshot pair (inverse of write_snapshot_raw)."""
    data_path, meta_path = snapshot_files(path, "raw")
    meta: dict[str, str] = {}
    for line in meta_path.read_text().splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            meta[key.strip()] = val.strip()
    n = int(meta["n"])
    raw = data_path.read_bytes()
    field = np.frombuffer(raw, dtype="<f8").reshape(n, n)
    return field, meta
