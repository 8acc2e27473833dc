"""Diagnostics and benchmark harness: discrete norms, the conserved energy
functional, self-refinement error studies, and CSV table generation.

Error metrics (self-refinement, no exact solution needed):

    time axis:   Error1(tau, h) = sqrt(h^2 sum |u^M(tau, h) - u^{2M}(tau/2, h)|^2)
    space axis:  Error2(tau, h) = sqrt(h^2 sum |u^M_ij(tau, h) - u^M_{2i,2j}(tau, h/2)|^2)

with observed order log2 of consecutive error ratios. Halving h turns N
interior nodes into 2N + 1, so coarse node i coincides with fine node 2i
and the comparison needs no interpolation. ``plan_run`` makes every check
a run needs, once, and returns a ``RunPlan`` that unpacks into ``run``.
``_plan_runs`` plans a refinement's runs and picks the restriction of the
finer final onto the coarser grid (identity for time, every other node for
space); ``_study_rows`` runs them and turns consecutive finals into rows.
``run_study`` plans every cell once, before its first run and before
``prepare_outputs`` makes the CSV's directory. Each run builds its own
operators and, in its set-up, only its scheme's solver.

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
I + c L for nonadi. ``discrete_energy`` evaluates this form for both
from the run state's ``m_du`` = M (w^{n+1} - w^n) and, where a step that
applied A to w^n handed it on, its ``a_pair``; elsewhere (general baseline
steps) the pairing costs one BTTB apply.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _fft
from .errors import ValidationError
from .problems import (Grid2D, Problem, example_problem, paper_runs,
                       whole_steps)
from .stepper import (SCHEME_NAMES, SchemeState, StepOperators, check_scales,
                      lookup_scheme, run)

__all__ = [
    "NORM_KINDS",
    "EnergyTrace",
    "RunPlan",
    "StudyRow",
    "StudySpec",
    "inner_product",
    "splitting_gap",
    "discrete_energy",
    "plan_run",
    "prepare_outputs",
    "refinement_rows",
    "run_study",
    "write_rows_csv",
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
        tw1 = ops.a_tilde.apply(w1)
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


def discrete_energy(state: SchemeState, ops: StepOperators) -> float:
    """Evaluate the energy that the scheme which made ``state`` conserves
    for g = 0 on the level pair it holds, (M dt, dt) + kappa (A u^{n+1}, u^n)
    with M that scheme's implicit operator: H_n^2 for sadi, E_n for nonadi.
    M (u^{n+1} - u^n) is read off ``m_du``, and a state without it is
    refused; the pairing is the state's ``a_pair`` when it carries one."""
    if state.m_du is None:
        raise ValidationError("the energy needs a run state that carries "
                              "M (u_curr - u_prev)")
    tau2 = ops.tau_step * ops.tau_step
    energy = inner_product("l2", state.m_du, state.u_curr - state.u_prev, ops)
    a_pair = state.a_pair
    if a_pair is None:
        a_pair = inner_product("A", state.u_prev, state.u_curr, ops)
    return energy / tau2 + ops.kappa * a_pair


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


class RunPlan(NamedTuple):
    """One checked run; it unpacks into ``run(problem, grid, tau, m_steps)``."""

    problem: Problem
    grid: Grid2D
    tau: float
    steps: int

    def step_of(self, t: float, what: str) -> int:
        """Return the step k in 0 .. steps with k tau = t; refuse a t off the
        step grid, before t = 0 or past the horizon."""
        k = whole_steps(t, self.tau)
        if k is None or not 0 <= k <= self.steps:
            raise ValidationError(f"{what} {t:g} does not land on a step of "
                                  f"tau={self.tau:g} within 0 .. {self.steps} steps")
        return k


def plan_run(problem: Problem, grid: Grid2D, tau: float,
             t_final: float) -> RunPlan:
    """Check a run's operator scales and its horizon, which must be 1 ..
    MAX_STEPS whole steps of tau, and return its plan."""
    check_scales(problem, grid, tau)
    steps = RunPlan(problem, grid, tau, MAX_STEPS).step_of(t_final, "t_final")
    if steps < 1:
        raise ValidationError(
            f"t_final {t_final:g} is shorter than one step of tau={tau:g}")
    return RunPlan(problem, grid, tau, steps)


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


def _plan_runs(problem: Problem, axis: str, steps: Sequence[float],
               fixed: float, t_final: float):
    """Plan the runs of a refinement along ``axis``: the halving ``steps``
    and their last entry halved, at the ``fixed`` h (time) or tau (space).
    Returns the plans and the restriction of a finer final onto the next
    coarser grid."""
    if axis not in ("time", "space"):
        raise ValidationError(f"axis must be 'time' or 'space', got {axis!r}")
    _check_halving(steps, "tau" if axis == "time" else "h")
    levels = list(steps) + [steps[-1] / 2.0]
    if axis == "time":
        grid = Grid2D.from_spacing(problem.a, problem.b, fixed)
        runs = [(grid, tau) for tau in levels]
        restrict = lambda u: u
    else:
        runs = [(Grid2D.from_spacing(problem.a, problem.b, h), fixed)
                for h in levels]
        for (coarse, _), (fine, _) in zip(runs, runs[1:]):
            if fine.n != 2 * coarse.n + 1:
                raise ValidationError(f"grids N={coarse.n} and N={fine.n} "
                                      "have no coincident nodes")
        restrict = lambda u: u[1::2, 1::2]  # the coincident even-index nodes
    return [plan_run(problem, grid, tau, t_final) for grid, tau in runs], restrict


def _study_rows(plans: Sequence[RunPlan], restrict, steps: Sequence[float],
                scheme: str) -> list[StudyRow]:
    """Run the plans of one refinement and turn consecutive finals into the
    rows at ``steps``; row k's timings belong to run k."""
    finals, infos = [], []
    for plan in plans:
        log.info("run %s alpha=%g h=%g tau=%g (%d steps, N=%d)", scheme,
                 plan.problem.alpha, plan.grid.h, plan.tau, plan.steps,
                 plan.grid.n)
        state, info = run(*plan, scheme=scheme)
        finals.append(state.u_curr)
        infos.append(info)
    rows: list[StudyRow] = []
    for k, step in enumerate(steps):
        err = _l2h_diff(plans[k].grid.h, finals[k], restrict(finals[k + 1]))
        order = None
        if rows:
            with np.errstate(divide="ignore", invalid="ignore"):
                # a zero error has no order: inf or nan, not a crash
                order = float(np.log2(np.float64(rows[-1].error) / err))
        rows.append(StudyRow(scheme, plans[k].problem.alpha, step, err, order,
                             infos[k].setup_seconds, infos[k].loop_seconds))
    return rows


def refinement_rows(problem: Problem, axis: str, steps: Sequence[float],
                    fixed: float, t_final: float,
                    scheme: str = "sadi") -> list[StudyRow]:
    """Error/order rows along the halving list ``steps`` at one fixed step.

    ``axis`` "time" halves tau at the fixed h, and each row compares the
    final field at tau with the one at tau/2 on the same grid; "space"
    halves h at the fixed tau, and each row compares the final field at h
    with the h/2 field restricted to the coincident (even-index) nodes.
    Consecutive rows share runs, so a K-row study costs K+1 runs; the
    timings of a row belong to the run at that row's step. Every run is
    planned and checked before the first one starts.
    """
    plans, restrict = _plan_runs(problem, axis, steps, fixed, t_final)
    return _study_rows(plans, restrict, steps, scheme)


# ---------------------------------------------------------------------------
# study specification and CSV output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudySpec:
    """A batch of refinement studies over schemes and fractional orders.

    ``axis`` selects the refinement direction: "time" halves tau along
    ``steps`` at the grid spacing ``fixed``; "space" halves h along
    ``steps`` at the time step ``fixed``. A step list, fixed step or
    horizon left None takes the example's published table along ``axis``
    (``problems.PAPER_RUNS``; "zero" shares the ring model's); an empty
    list is refused.
    """

    axis: str
    example: str = "sine-gordon"
    scheme: str = "sadi"
    alphas: tuple[float, ...] = (1.1, 1.5, 1.9)
    steps: tuple[float, ...] | None = None
    fixed: float | None = None
    t_final: float | None = None
    kappa: float = 1.0
    threads: int = 1


def _spec_defaults(spec: StudySpec) -> StudySpec:
    """Fill an unset step list, fixed step or horizon from the example's
    published table; an unknown axis has none and ``_plan_runs`` refuses it."""
    t_final, studies = paper_runs(spec.example)
    steps, fixed = studies.get(spec.axis, (None, None))
    return replace(spec,
                   steps=steps if spec.steps is None else spec.steps,
                   fixed=fixed if spec.fixed is None else spec.fixed,
                   t_final=t_final if spec.t_final is None else spec.t_final)


def prepare_outputs(paths: Iterable) -> None:
    """Refuse every output file path that names no file (its last component
    empty, '.' or '..') or an existing directory, then make the directories
    of them all."""
    paths = [os.fspath(path) for path in paths]
    for text in paths:
        if os.path.basename(text) in ("", ".", ".."):
            raise ValidationError(f"output path {text!r} names no file")
        if os.path.isdir(text):
            raise IsADirectoryError(f"output path {text!r} is a directory")
    for text in paths:
        Path(text).parent.mkdir(parents=True, exist_ok=True)


def run_study(spec: StudySpec, output_path=None) -> list[StudyRow]:
    """Execute a study spec; optionally write rows to a CSV file.

    Every scheme is looked up and every alpha's runs planned (``plan_run``)
    before ``prepare_outputs`` checks the output path and makes its
    directory, and that before the first run. Cells then run in declaration
    order (scheme, then alpha, then step) from those plans, one per run for
    all schemes. The FFT worker count is ``spec.threads`` for the call and
    returns to its previous value after it, refused or not.
    """
    spec = _spec_defaults(spec)
    with _fft.fft_workers(spec.threads):
        schemes = SCHEME_NAMES if spec.scheme == "both" else (spec.scheme,)
        for scheme in schemes:
            lookup_scheme(scheme)
        if not spec.alphas:
            raise ValidationError("alpha list must not be empty")
        cells = [_plan_runs(example_problem(spec.example, alpha, kappa=spec.kappa),
                            spec.axis, spec.steps, spec.fixed, spec.t_final)
                 for alpha in spec.alphas]
        if output_path is not None:
            prepare_outputs([output_path])
        rows = [row for scheme in schemes for plans, restrict in cells
                for row in _study_rows(plans, restrict, spec.steps, scheme)]
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

