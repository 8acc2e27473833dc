"""Time integration: the splitting-ADI scheme and the unfactored baseline.

Discretizing u_tt = -kappa (-Delta)^{alpha/2} u + g(u) in space yields the
system  U'' = -kappa L U + g(U)  with L the (nonseparable) BTTB discrete
fractional Laplacian. The splitting scheme writes L = D + R where
D = delta_x + delta_y is the separable sum of 1D Riesz difference operators
and R = L - D is a bounded remainder. A second-order two-level update
treats D implicitly (averaged over the new and old levels), R and the
nonlinearity explicitly, and adds an O(tau^2) cross term
(kappa^2 tau^2 / 4) delta_x delta_y acting on the second time difference.
That cross term is exactly what makes the implicit operator factor into

    (I + c delta_x)(I + c delta_y),   c = tau^2 kappa / 2,

so each time level is obtained by sweeping 1D Toeplitz solves over the
columns, then the rows, of the right-hand side. The Toeplitz solves use
the precomputed structured inverse (four FFTs per solve) from
:mod:`fracwave.structured`.

Update formulas implemented here, with hat{u} the increment solved for:

  general step (n >= 1):
      (I + c delta_x)(I + c delta_y) hat{u} = B_n,
      B_n = -tau^2 kappa L u^n + tau^2 g(u^n),
      u^{n+1} = hat{u} + 2 u^n - u^{n-1};

  first step (n = 0), using u_t(0) = phi2:
      (I + c delta_x)(I + c delta_y) hat{u} = B_0,
      B_0 = tau phi2 - (tau^2 kappa / 2) L u^0 + (tau^2 / 2) g(u^0),
      u^1 = u^0 + hat{u}.

The baseline scheme keeps the full operator implicit,
(I + c L) u^{n+1} = 2 u^n - u^{n-1} - c L u^{n-1} + tau^2 g(u^n), and pays
a preconditioned CG solve per step; it exists for accuracy and timing
comparisons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from decimal import Decimal
from functools import partial
from typing import Callable

import numpy as np

from .coeffs import DEFAULT_MAX_SAMPLES, laplacian_coeffs_2d, riesz_coeffs_1d
from .errors import BlowUpError, SolverError, ValidationError
from .problems import Grid2D, Problem, resolve_nonlinearity
from .structured import (
    BttbOperator,
    GSData,
    SymToeplitz,
    TauSpec,
    bttb_build,
    gs_precompute,
    gs_solve,
    pcg,
    tau_apply,
    tau_spec_1d,
    tau_spec_2d,
)

__all__ = [
    "SchemeState",
    "StepOperators",
    "RunInfo",
    "build_operators",
    "rhs_general",
    "rhs_first",
    "adi_solve",
    "sadi_first_step",
    "sadi_step",
    "nonadi_first_step",
    "nonadi_step",
    "run",
    "BLOWUP_THRESHOLD",
]

BLOWUP_THRESHOLD = 1e12

# Tolerance of the one-time CG solve for the Toeplitz inverse's first column.
SETUP_TOL = 1e-13
# Symbol-sampling factor of the 2D coefficients (~1e-5 absolute accuracy).
OVERSAMPLING = 8
# Largest grid whose coefficients fit the symbol-sampling budget.
MAX_GRID_N = DEFAULT_MAX_SAMPLES // OVERSAMPLING

SCHEME_NAMES = ("sadi", "nonadi")


@dataclass(frozen=True)
class SchemeState:
    """Two consecutive time levels: u_prev = u^{n-1}, u_curr = u^n.

    ``pcg_iterations`` counts the iterations of the baseline solve that
    produced u_curr (zero is a valid count); it is None for sadi steps.
    """

    u_prev: np.ndarray
    u_curr: np.ndarray
    step_index: int
    time: float
    pcg_iterations: int | None = None


@dataclass(frozen=True, eq=False)
class StepOperators:
    """Every operator a step or a norm uses, built once per (problem, grid, tau).

    ``riesz`` is T, the h^{-alpha}-scaled symmetric Toeplitz matrix of 1D
    Riesz weights: delta_x applies it along axis 0, delta_y along axis 1.
    ``gs`` inverts H = I + (tau^2 kappa / 2) T; the grid is square with
    equal spacing, so the same inverse serves the column and row sweeps.
    ``lap`` applies the plain discrete fractional Laplacian h^{-alpha}
    scaling included, kappa NOT included (kappa enters at the use sites).
    ``tau2d`` preconditions the unfactored baseline system.
    """

    tau_step: float
    kappa: float
    grid: Grid2D
    riesz: SymToeplitz
    gs: GSData
    lap: BttbOperator
    tau2d: TauSpec

    def delta_x(self, w: np.ndarray) -> np.ndarray:
        return self.riesz.matvec(w)

    def delta_y(self, w: np.ndarray) -> np.ndarray:
        return self.riesz.matvec(w.T).T


def build_operators(
    problem: Problem, grid: Grid2D, tau_step: float
) -> StepOperators:
    """Generate coefficients and precompute the structured solvers."""
    if not tau_step > 0:
        raise ValidationError(f"tau_step must be positive, got {tau_step}")
    n = grid.n
    if n > MAX_GRID_N:
        raise ValidationError(
            f"grid N={Decimal(n):.6g} is beyond the largest supported "
            f"N={MAX_GRID_N}"
        )
    coeff2d = laplacian_coeffs_2d(problem.alpha, n, oversampling=OVERSAMPLING)
    riesz = riesz_coeffs_1d(problem.alpha, n)
    h_alpha = grid.h ** (-problem.alpha)
    factor = 0.5 * tau_step * tau_step * problem.kappa * h_alpha
    lap = bttb_build(coeff2d, n, scale=h_alpha)

    first_col = factor * riesz.weights
    first_col[0] += 1.0
    precond = tau_spec_1d(problem.alpha, n, factor)
    gs = gs_precompute(SymToeplitz(first_col), tol=SETUP_TOL, precond=precond)
    return StepOperators(
        tau_step=tau_step,
        kappa=problem.kappa,
        grid=grid,
        riesz=SymToeplitz(h_alpha * riesz.weights),
        gs=gs,
        lap=lap,
        tau2d=tau_spec_2d(problem.alpha, n, factor),
    )


def rhs_general(
    state: SchemeState,
    ops: StepOperators,
    g: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Right-hand side B_n = -tau^2 kappa L u^n + tau^2 g(u^n) for n >= 1."""
    tau2 = ops.tau_step * ops.tau_step
    u = state.u_curr
    out = tau2 * g(u)
    if ops.kappa != 0.0:
        out -= (tau2 * ops.kappa) * ops.lap.apply(u)
    return out


def rhs_first(
    u0: np.ndarray,
    ops: StepOperators,
    g: Callable[[np.ndarray], np.ndarray],
    phi2_field: np.ndarray,
) -> np.ndarray:
    """First-step right-hand side B_0 = tau phi2 - (tau^2 kappa/2) L u^0
    + (tau^2/2) g(u^0), with phi2 the initial-velocity samples."""
    tau = ops.tau_step
    out = tau * phi2_field + (0.5 * tau * tau) * g(u0)
    if ops.kappa != 0.0:
        out -= (0.5 * tau * tau * ops.kappa) * ops.lap.apply(u0)
    return out


def adi_solve(ops: StepOperators, b: np.ndarray) -> np.ndarray:
    """Solve (I + c delta_x)(I + c delta_y) X = B by two Toeplitz sweeps.

    delta_x couples along axis 0, so the column sweep solves H X = B on the
    columns of B; transposing swaps the roles and the second sweep handles
    axis 1. Both sweeps batch all N columns into single four-FFT solves.
    """
    x_swept = gs_solve(ops.gs, np.asarray(b, dtype=float))
    return gs_solve(ops.gs, x_swept.T).T


def sadi_first_step(problem: Problem, grid: Grid2D, ops: StepOperators) -> SchemeState:
    """Advance the initial data to the first time level."""
    g = resolve_nonlinearity(problem.nonlinearity)
    u0, phi2_field = problem.initial_fields(grid)
    b0 = rhs_first(u0, ops, g, phi2_field)
    u1 = u0 + adi_solve(ops, b0)
    return SchemeState(u_prev=u0, u_curr=u1, step_index=1, time=ops.tau_step)


def sadi_step(
    state: SchemeState,
    ops: StepOperators,
    g: Callable[[np.ndarray], np.ndarray],
) -> SchemeState:
    """One general step: solve for the second difference and shift levels."""
    hat_u = adi_solve(ops, rhs_general(state, ops, g))
    u_next = hat_u + 2.0 * state.u_curr - state.u_prev
    return SchemeState(
        u_prev=state.u_curr,
        u_curr=u_next,
        step_index=state.step_index + 1,
        time=(state.step_index + 1) * ops.tau_step,
    )


# ---------------------------------------------------------------------------
# unfactored baseline
# ---------------------------------------------------------------------------

def _nonadi_solve(
    ops: StepOperators, b: np.ndarray, x0: np.ndarray, tol: float
) -> tuple[np.ndarray, int]:
    """Solve (I + (tau^2 kappa/2) L) x = b by PCG with the 2D sine-transform
    preconditioner, warm-started from the previous level. Returns x and the
    iteration count."""
    c = 0.5 * ops.tau_step * ops.tau_step * ops.kappa

    def apply_a(v: np.ndarray) -> np.ndarray:
        return v + c * ops.lap.apply(v)

    def apply_m(r: np.ndarray) -> np.ndarray:
        return tau_apply(ops.tau2d, r)

    x, report = pcg(apply_a, apply_m, b, tol=tol, max_iter=400, x0=x0)
    if not report.converged:
        raise SolverError(
            f"step solve did not converge: {report.iterations} iterations, "
            f"relative residual {report.final_relative_residual:.2e}"
        )
    return x, report.iterations


def nonadi_first_step(
    problem: Problem,
    grid: Grid2D,
    ops: StepOperators,
    tol: float = 1e-11,
) -> SchemeState:
    """First step of the baseline: (I + c L) u^1 = u^0 + tau phi2
    + (tau^2/2) g(u^0), c = tau^2 kappa / 2."""
    g = resolve_nonlinearity(problem.nonlinearity)
    u0, phi2_field = problem.initial_fields(grid)
    tau = ops.tau_step
    b = u0 + tau * phi2_field + (0.5 * tau * tau) * g(u0)
    u1, iterations = _nonadi_solve(ops, b, x0=u0, tol=tol)
    return SchemeState(u_prev=u0, u_curr=u1, step_index=1, time=tau,
                       pcg_iterations=iterations)


def nonadi_step(
    state: SchemeState,
    ops: StepOperators,
    g: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-11,
) -> SchemeState:
    """General baseline step: (I + c L) u^{n+1} = 2 u^n - u^{n-1}
    - c L u^{n-1} + tau^2 g(u^n)."""
    tau = ops.tau_step
    c = 0.5 * tau * tau * ops.kappa
    b = 2.0 * state.u_curr - state.u_prev + tau * tau * g(state.u_curr)
    if ops.kappa != 0.0:
        b -= c * ops.lap.apply(state.u_prev)
    u_next, iterations = _nonadi_solve(ops, b, x0=state.u_curr, tol=tol)
    return SchemeState(
        u_prev=state.u_curr,
        u_curr=u_next,
        step_index=state.step_index + 1,
        time=(state.step_index + 1) * tau,
        pcg_iterations=iterations,
    )


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

@dataclass
class RunInfo:
    """Bookkeeping from one integration run."""

    scheme: str
    steps: int
    setup_seconds: float = 0.0
    loop_seconds: float = 0.0
    pcg_solves: int = 0
    pcg_total_iterations: int = 0
    pcg_max_iterations: int = 0

    @property
    def total_seconds(self) -> float:
        return self.setup_seconds + self.loop_seconds


def _check_finite(state: SchemeState) -> None:
    m = float(np.max(np.abs(state.u_curr)))
    if not np.isfinite(m) or m > BLOWUP_THRESHOLD:
        raise BlowUpError(state.step_index, state.time, m)


def run(
    problem: Problem,
    grid: Grid2D,
    tau_step: float,
    m_steps: int,
    scheme: str = "sadi",
    recorder: Callable[[SchemeState], None] | None = None,
    step_tol: float = 1e-11,
    ops: StepOperators | None = None,
) -> tuple[SchemeState, RunInfo]:
    """Integrate m_steps time levels and return the final state.

    The recorder, when given, is invoked after every step (including the
    first) with the current state; snapshot selection is the recorder's
    business. Blow-up (non-finite values or |u| beyond 1e12) aborts with a
    diagnostic. Passing a prebuilt ``ops`` skips operator setup, which is
    useful when several runs share a (grid, tau) configuration.
    """
    if m_steps < 1:
        raise ValidationError(f"m_steps must be >= 1, got {m_steps}")
    if scheme not in SCHEME_NAMES:
        raise ValidationError(
            f"unknown scheme {scheme!r}; available: {', '.join(SCHEME_NAMES)}"
        )
    info = RunInfo(scheme=scheme, steps=m_steps)
    t0 = time.perf_counter()
    if ops is None:
        ops = build_operators(problem, grid, tau_step)
    elif abs(ops.tau_step - tau_step) > 1e-15 * max(1.0, tau_step):
        raise ValidationError("prebuilt operators were made for a different tau")
    info.setup_seconds = time.perf_counter() - t0

    if scheme == "sadi":
        first_step, step = sadi_first_step, sadi_step
    else:
        first_step = partial(nonadi_first_step, tol=step_tol)
        step = partial(nonadi_step, tol=step_tol)
    g = resolve_nonlinearity(problem.nonlinearity)
    iters: list[int] = []
    t1 = time.perf_counter()
    for n in range(m_steps):
        state = first_step(problem, grid, ops) if n == 0 else step(state, ops, g)
        if state.pcg_iterations is not None:
            iters.append(state.pcg_iterations)
        _check_finite(state)
        if recorder is not None:
            recorder(state)
    info.loop_seconds = time.perf_counter() - t1

    if iters:
        info.pcg_solves = len(iters)
        info.pcg_total_iterations = sum(iters)
        info.pcg_max_iterations = max(iters)
    return state, info
