"""Diagnostics and benchmark harness: discrete norms, the conserved energy
functional, self-refinement error studies, and CSV table generation.

Error metrics (self-refinement, no exact solution needed):

    time axis:   Error1(tau, h) = sqrt(h^2 sum |u^M(tau, h) - u^{2M}(tau/2, h)|^2)
    space axis:  Error2(tau, h) = sqrt(h^2 sum |u^M_ij(tau, h) - u^M_{2i,2j}(tau, h/2)|^2)

with observed order log2 of consecutive error ratios. Halving h turns N
interior nodes into 2N + 1, so coarse node i coincides with fine node 2i
and the comparison needs no interpolation. Both studies run through one
driver, ``_refinement_rows``: it takes the list of (grid, tau) runs and a
restriction of the finer final field onto the coarser grid (identity for
time, every other node for space) and turns consecutive runs into rows.
Each run builds its own operators and, in its set-up, only its scheme's
solver.

The linear (g = 0) schemes conserve discrete energies. For the level pair
(w^n, w^{n+1}), dt = (w^{n+1} - w^n)/tau and c = tau^2 kappa / 2, the paper
writes the splitting scheme's as

    H_n^2 = ||dt||^2 + c (||dt||_Atilde^2 - ||dt||_A^2)
          + (kappa / 2) (||w^{n+1}||_A^2 + ||w^n||_A^2) + c^2 ||dt||_B^2

with the quadratic forms of the fractional Laplacian A, the separable Riesz
sum Atilde = delta_x + delta_y and the Riesz product B = delta_x delta_y.
Atilde - A is nonnegative (tested on its own), which makes H_n^2 a norm. The
unfactored baseline conserves E_n, the first and third terms alone. Since
(kappa / 2)(||w^{n+1}||_A^2 + ||w^n||_A^2) - c ||dt||_A^2 = kappa (w^{n+1}, w^n)_A
and I + c Atilde + c^2 B = (I + c delta_x)(I + c delta_y), both reduce to

    (M dt, dt) + kappa (A w^{n+1}, w^n),

M the scheme's implicit operator: (I + c delta_x)(I + c delta_y) for sadi,
I + c L for nonadi. ``discrete_energy`` evaluates this form with the M that
``stepper.lookup_scheme`` gives for the scheme name, the operator nonadi's
PCG solves with; it builds no solver. The pairing h^2 (A w^n, w^{n+1})
comes with the states of a run (``SchemeState.a_pair``, from the apply the
step made), so a call costs two 1D Toeplitz sweeps and no BTTB apply for
sadi, and one BTTB apply for nonadi. On a state built by hand it costs one
more apply for the pairing; kappa = 0 needs no apply.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _fft
from .errors import ValidationError
from .problems import EXAMPLE_DEFAULTS, Grid2D, Problem, example_problem
from .stepper import (SCHEME_NAMES, RunInfo, SchemeState, StepOperators,
                      lookup_scheme, run)

__all__ = [
    "NORM_KINDS",
    "EnergyTrace",
    "StudyRow",
    "StudySpec",
    "STUDY_FIELDS",
    "inner_product",
    "splitting_gap",
    "discrete_energy",
    "error_time_refinement",
    "error_space_refinement",
    "run_study",
    "write_rows_csv",
    "parse_study_file",
    "parse_number",
    "parse_number_list",
]

log = logging.getLogger(__name__)

NORM_KINDS = ("l2", "A", "A_tilde")
# Longest run accepted (the paper's longest is 1000 steps).
MAX_STEPS = 10 ** 7


def inner_product(kind: str, w1: np.ndarray, w2: np.ndarray, ops: StepOperators) -> float:
    """Discrete inner product h^2 sum(T w1 * w2), T the identity (l2), the
    fractional Laplacian (A) or the separable Riesz sum (A_tilde)."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w1.shape != w2.shape:
        raise ValidationError(f"field shapes differ: {w1.shape} vs {w2.shape}")
    if kind == "l2":
        tw1 = w1
    elif kind == "A":
        tw1 = ops.lap.apply(w1)
    elif kind == "A_tilde":
        tw1 = ops.delta_x(w1) + ops.delta_y(w1)
    else:
        raise ValidationError(f"unknown norm kind {kind!r}; kinds: {NORM_KINDS}")
    h = ops.grid.h
    return h * h * float(np.vdot(tw1, w2).real)


def splitting_gap(w: np.ndarray, ops: StepOperators) -> float:
    """Return ||w||_Atilde^2 - ||w||_A^2, the nonnegative splitting defect."""
    return inner_product("A_tilde", w, w, ops) - inner_product("A", w, w, ops)


@dataclass(frozen=True)
class EnergyTrace:
    """Squared energy values H_n^2, one entry per recorded step."""

    values: np.ndarray

    def relative_drift(self) -> float:
        v = self.values
        if v.size == 0 or v[0] == 0.0:
            return 0.0
        return float(np.max(np.abs(v - v[0])) / abs(v[0]))


def discrete_energy(
    state: SchemeState, ops: StepOperators, scheme: str = "sadi"
) -> float:
    """Evaluate the energy ``scheme`` conserves for g = 0 on the level pair
    held by ``state``: H_n^2 for sadi, E_n for nonadi, both as
    (M dt, dt) + kappa (A u^{n+1}, u^n) with M the scheme's implicit operator.
    The pairing is the state's ``a_pair`` when it carries one."""
    dt = (state.u_curr - state.u_prev) / ops.tau_step
    m_dt = lookup_scheme(scheme).apply_m(ops, dt)
    energy = inner_product("l2", m_dt, dt, ops)
    if ops.kappa == 0.0:
        return energy
    a_pair = state.a_pair
    if a_pair is None:
        a_pair = inner_product("A", state.u_prev, state.u_curr, ops)
    return energy + ops.kappa * a_pair


# ---------------------------------------------------------------------------
# refinement studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyRow:
    """One table line: error at (alpha, step) plus the run's timings.

    ``step`` is tau for time studies and h for space studies; ``order`` is
    None on the first line of each refinement column. cpu_setup covers
    coefficient generation and solver precomputation for the run at this
    row's step; cpu_loop covers time stepping; cpu_seconds is their sum.
    """

    scheme: str
    alpha: float
    step: float
    error: float
    order: float | None
    cpu_setup: float
    cpu_loop: float

    @property
    def cpu_seconds(self) -> float:
        return self.cpu_setup + self.cpu_loop


def _step_index(t: float, tau: float, what: str) -> int:
    """Return k with k tau = t, rejecting a t that is not on a step."""
    ratio = t / tau
    if not np.isfinite(ratio):
        raise ValidationError(
            f"{what} {t:g} is not a finite number of steps of tau={tau:g}"
        )
    k = round(ratio)
    if abs(k * tau - t) > 1e-9 * max(1.0, abs(t)):
        raise ValidationError(
            f"{what} {t:g} does not land on a step of tau={tau:g}"
        )
    return k


def _steps_for(t_final: float, tau: float) -> int:
    if not tau > 0:
        raise ValidationError(f"tau must be positive, got {tau}")
    m = _step_index(t_final, tau, "t_final")
    if m < 1:
        raise ValidationError(
            f"t_final {t_final:g} is shorter than one step of tau={tau:g}"
        )
    if m > MAX_STEPS:
        raise ValidationError(
            f"t_final {t_final:g} needs {m:.3g} steps of tau={tau:g}, "
            f"more than the largest supported {MAX_STEPS:.0e}"
        )
    return m


def _l2h_diff(h: float, u_coarse: np.ndarray, u_fine_restricted: np.ndarray) -> float:
    d = u_coarse - u_fine_restricted
    return float(np.sqrt(h * h * np.sum(d * d)))


def _check_halving(values: Sequence[float], what: str) -> None:
    if len(values) < 1:
        raise ValidationError(f"{what} list must not be empty")
    if not all(v > 0 for v in values):
        raise ValidationError(f"{what} list must be positive: {list(values)}")
    for a, b in zip(values, values[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise ValidationError(f"{what} list must halve strictly: {a} -> {b}")


def _refinement_rows(
    problem: Problem,
    scheme: str,
    steps: Sequence[float],
    runs: Sequence[tuple[Grid2D, float]],
    t_final: float,
    restrict: Callable[[np.ndarray], np.ndarray],
    step_tol: float,
) -> list[StudyRow]:
    """Run every (grid, tau) in ``runs`` and turn consecutive finals into rows.

    Row k compares the final field of run k with that of run k + 1 mapped
    onto run k's grid by ``restrict``; its timings are run k's. ``steps``
    holds the row labels, one fewer than the runs.
    """
    counts = [_steps_for(t_final, tau) for _, tau in runs]
    finals: list[np.ndarray] = []
    infos: list[RunInfo] = []
    for (grid, tau), m_steps in zip(runs, counts):
        log.info("run %s alpha=%g h=%g tau=%g (%d steps, N=%d)",
                 scheme, problem.alpha, grid.h, tau, m_steps, grid.n)
        state, info = run(problem, grid, tau, m_steps, scheme=scheme,
                          step_tol=step_tol)
        finals.append(state.u_curr)
        infos.append(info)
    rows: list[StudyRow] = []
    prev_error: float | None = None
    for k, step in enumerate(steps):
        err = _l2h_diff(runs[k][0].h, finals[k], restrict(finals[k + 1]))
        order = None if prev_error is None else float(np.log2(prev_error / err))
        rows.append(StudyRow(
            scheme=scheme, alpha=problem.alpha, step=step, error=err, order=order,
            cpu_setup=infos[k].setup_seconds, cpu_loop=infos[k].loop_seconds,
        ))
        prev_error = err
    return rows


def error_time_refinement(
    problem: Problem,
    h_fixed: float,
    tau_list: Sequence[float],
    t_final: float,
    scheme: str = "sadi",
    step_tol: float = 1e-11,
) -> list[StudyRow]:
    """Error/order rows along a halving tau list at fixed h.

    Each row compares the final field at tau with the one at tau/2 on the
    same grid; because the list halves, consecutive rows share runs, so a
    K-row study costs K+1 runs. Timings reported per row belong to the run
    at that row's tau.
    """
    _check_halving(tau_list, "tau")
    grid = Grid2D.from_spacing(problem.a, problem.b, h_fixed)
    taus = list(tau_list) + [tau_list[-1] / 2.0]
    return _refinement_rows(problem, scheme, tau_list,
                            [(grid, tau) for tau in taus], t_final,
                            lambda u: u, step_tol)


def error_space_refinement(
    problem: Problem,
    tau_fixed: float,
    h_list: Sequence[float],
    t_final: float,
    scheme: str = "sadi",
    step_tol: float = 1e-11,
) -> list[StudyRow]:
    """Error/order rows along a halving h list at fixed tau.

    Each row compares the final field at h against the h/2 field restricted
    to the coincident (even-index) nodes. Consecutive rows share runs like
    in the time study.
    """
    _check_halving(h_list, "h")
    hs = list(h_list) + [h_list[-1] / 2.0]
    grids = [Grid2D.from_spacing(problem.a, problem.b, h) for h in hs]
    for coarse, fine in zip(grids, grids[1:]):
        if fine.n != 2 * coarse.n + 1:
            raise ValidationError(
                f"grids N={coarse.n} and N={fine.n} have no coincident nodes"
            )
    return _refinement_rows(problem, scheme, h_list,
                            [(grid, tau_fixed) for grid in grids], t_final,
                            lambda u: u[1::2, 1::2], step_tol)


# ---------------------------------------------------------------------------
# study specification and CSV output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudySpec:
    """A batch of refinement studies over schemes and fractional orders.

    ``axis`` selects the refinement direction: "time" varies ``taus`` at
    the single fixed h in ``hs``; "space" varies ``hs`` at the single fixed
    tau in ``taus``.
    """

    axis: str
    example: str = "sine-gordon"
    scheme: str = "sadi"
    alphas: tuple[float, ...] = (1.1, 1.5, 1.9)
    taus: tuple[float, ...] = ()
    hs: tuple[float, ...] = ()
    t_final: float | None = None
    tol: float = 1e-11
    kappa: float = 1.0
    threads: int = 1


def _spec_defaults(spec: StudySpec) -> StudySpec:
    """Fill unset step lists / horizon with the benchmark configurations."""
    tau_d, h_d, t_d = EXAMPLE_DEFAULTS.get(spec.example, (0.01, 0.025, 5.0))
    taus, hs = spec.taus, spec.hs
    if spec.axis == "time":
        if not taus:
            taus = tuple(0.1 / 2**k for k in range(4))
        if not hs:
            hs = (h_d,)
    elif spec.axis == "space":
        if not hs:
            hs = tuple(1.0 / 2**k for k in range(4))
        if not taus:
            taus = (tau_d,)
    else:
        raise ValidationError(f"axis must be 'time' or 'space', got {spec.axis!r}")
    t_final = spec.t_final if spec.t_final is not None else t_d
    return replace(spec, taus=taus, hs=hs, t_final=t_final)


def run_study(spec: StudySpec, output_path=None) -> list[StudyRow]:
    """Execute a study spec; optionally write rows to a CSV file.

    Cells run sequentially in declaration order (scheme, then alpha, then
    step). A scheme other than "both" is looked up by the first run.
    """
    spec = _spec_defaults(spec)
    _fft.set_fft_workers(spec.threads)
    schemes = SCHEME_NAMES if spec.scheme == "both" else (spec.scheme,)
    if spec.axis == "time" and len(spec.hs) != 1:
        raise ValidationError("time study needs exactly one fixed h")
    if spec.axis == "space" and len(spec.taus) != 1:
        raise ValidationError("space study needs exactly one fixed tau")
    if not spec.alphas:
        raise ValidationError("alpha list must not be empty")

    rows: list[StudyRow] = []
    for scheme in schemes:
        for alpha in spec.alphas:
            problem = example_problem(spec.example, alpha, kappa=spec.kappa)
            if spec.axis == "time":
                rows.extend(error_time_refinement(
                    problem, spec.hs[0], spec.taus, spec.t_final,
                    scheme=scheme, step_tol=spec.tol,
                ))
            else:
                rows.extend(error_space_refinement(
                    problem, spec.taus[0], spec.hs, spec.t_final,
                    scheme=scheme, step_tol=spec.tol,
                ))
    if output_path is not None:
        write_rows_csv(output_path, rows)
    return rows


CSV_HEADER = ("scheme", "alpha", "step", "error", "order",
              "cpu_setup", "cpu_loop", "cpu_seconds")


def write_rows_csv(path, rows: Iterable[StudyRow]) -> None:
    """Write study rows as CSV; the first row of each column has an empty
    order cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([
                row.scheme,
                f"{row.alpha:g}",
                f"{row.step:.12g}",
                f"{row.error:.6e}",
                "" if row.order is None else f"{row.order:.4f}",
                f"{row.cpu_setup:.4f}",
                f"{row.cpu_loop:.4f}",
                f"{row.cpu_seconds:.4f}",
            ])


# ---------------------------------------------------------------------------
# flat key = value study files
# ---------------------------------------------------------------------------

def parse_number(text: str) -> float:
    """Parse a finite decimal or a p/q fraction (the benchmark steps are
    naturally fractions like 1/40)."""
    text = text.strip()
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"bad number {text!r}") from None
    if not np.isfinite(value):
        raise ValidationError(f"number must be finite, got {text!r}")
    return value


def parse_number_list(text: str) -> tuple[float, ...]:
    items = [t for t in (p.strip() for p in text.split(",")) if t]
    return tuple(parse_number(t) for t in items)


def _parse_threads(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"bad thread count {text!r}") from None


# StudySpec fields a study file or a study flag may set, with the parser of
# a file value (flags parse their values through argparse).
STUDY_FIELDS = {
    "example": str,
    "scheme": str,
    "alphas": parse_number_list,
    "taus": parse_number_list,
    "hs": parse_number_list,
    "t_final": parse_number,
    "tol": parse_number,
    "threads": _parse_threads,
}


def parse_study_file(path, axis: str) -> StudySpec:
    """Read a flat ``key = value`` study file.

    Keys are the STUDY_FIELDS names; '-' may stand for '_'. Lists are
    comma separated; numbers may be fractions. Blank lines and '#' comments
    are ignored.
    """
    kwargs: dict = {"axis": axis}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip().lower().replace("-", "_")
            if key not in STUDY_FIELDS:
                raise ValidationError(
                    f"{path}:{lineno}: unknown key {key!r}; "
                    f"known keys: {', '.join(STUDY_FIELDS)}"
                )
            kwargs[key] = STUDY_FIELDS[key](val.strip())
    return StudySpec(**kwargs)
