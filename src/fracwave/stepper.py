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
the precomputed structured inverse (four FFTs of length next_fast_len(N)
per solve) from :mod:`fracwave.structured`.

Update formulas implemented here, with hat{u} the increment solved for and
B(u) = -tau^2 kappa L u + tau^2 g(u) the right-hand side (rhs_general):

  general step (n >= 1):
      (I + c delta_x)(I + c delta_y) hat{u} = B(u^n),
      u^{n+1} = hat{u} + 2 u^n - u^{n-1};

  first step (n = 0), using u_t(0) = phi2:
      (I + c delta_x)(I + c delta_y) hat{u} = tau phi2 + B(u^0) / 2,
      u^1 = u^0 + hat{u}.

The baseline scheme keeps the full operator implicit,
(I + c L) u^{n+1} = 2 u^n - u^{n-1} - c L u^{n-1} + tau^2 g(u^n), and pays
a preconditioned CG solve per step; it exists for accuracy and timing
comparisons.

``lookup_scheme``, the one place a scheme name is read, gives the scheme's
steps, its implicit operator M and its solver of M (the GS inverse for
sadi, the tau spectrum for nonadi), read from the module at each call so
that a wrapper installed over one runs. ``run`` builds only that solver,
in its set-up; ``build_operators`` builds what both schemes share.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property, partial
from typing import Callable, NamedTuple

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
    tau_spec_2d,
)

__all__ = [
    "SchemeState",
    "StepOperators",
    "RunInfo",
    "build_operators",
    "rhs_general",
    "adi_solve",
    "sadi_first_step",
    "sadi_step",
    "nonadi_first_step",
    "nonadi_step",
    "run",
    "BLOWUP_THRESHOLD",
]

BLOWUP_THRESHOLD = 1e12

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

    The steps hand on the fractional-Laplacian apply they made of u_prev,
    so that its consumers need not repeat it. ``a_pair`` is
    h^2 (L u_prev, u_curr), the pairing term of the conserved energy, set
    by every step. ``lap_prev`` is L u_prev itself, a compact N x N field
    that only the baseline steps carry: the next baseline step's
    right-hand side needs it. Both are None on states built by hand and
    when kappa = 0 (no apply is made); consumers then apply L themselves.
    """

    u_prev: np.ndarray
    u_curr: np.ndarray
    step_index: int
    time: float
    pcg_iterations: int | None = None
    a_pair: float | None = None
    lap_prev: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class StepOperators:
    """The operators of the steps and norms, built for one (problem, grid, tau).

    ``riesz`` is T, the h^{-alpha}-scaled symmetric Toeplitz matrix of 1D
    Riesz weights: delta_x applies it along axis 0, delta_y along axis 1.
    ``lap`` applies the plain discrete fractional Laplacian h^{-alpha}
    scaling included, kappa NOT included (kappa enters at the use sites).
    ``factor`` is tau^2 kappa h^{-alpha} / 2 and ``sweep_col`` the first
    column of H = I + (tau^2 kappa / 2) T. ``alpha``, ``kappa``, ``grid``
    and ``tau_step`` record what the operators were built for. The two
    schemes' solvers, ``gs`` and ``tau2d``, are built on first use.
    """

    tau_step: float
    alpha: float
    kappa: float
    grid: Grid2D
    riesz: SymToeplitz
    lap: BttbOperator
    factor: float
    sweep_col: np.ndarray

    @cached_property
    def gs(self) -> GSData:
        """sadi's solver, the inverse of H (square grid: one for both sweeps)."""
        return gs_precompute(self.sweep_col)

    @cached_property
    def tau2d(self) -> TauSpec:
        """nonadi's preconditioner for I + (tau^2 kappa / 2) L."""
        return tau_spec_2d(self.alpha, self.grid.n, self.factor)

    def delta_x(self, w: np.ndarray) -> np.ndarray:
        return self.riesz.matvec(w)

    def delta_y(self, w: np.ndarray) -> np.ndarray:
        return self.riesz.matvec(w.T).T


def build_operators(
    problem: Problem, grid: Grid2D, tau_step: float
) -> StepOperators:
    """Generate the coefficients and the operators both schemes use."""
    if not tau_step > 0:
        raise ValidationError(f"tau_step must be positive, got {tau_step}")
    n = grid.n
    if n > MAX_GRID_N:
        raise ValidationError(
            f"grid N={Decimal(n):.6g} is beyond the largest supported "
            f"N={MAX_GRID_N}"
        )
    with np.errstate(over="ignore"):  # an overflow is rejected below
        h_alpha = float(np.float64(grid.h) ** -problem.alpha)
    factor = 0.5 * tau_step * tau_step * problem.kappa * h_alpha
    weights = riesz_coeffs_1d(problem.alpha, n)
    riesz_col = h_alpha * weights
    first_col = factor * weights
    # the sadi operator (I + factor T)(I + factor T) squares factor * T
    peak = float(np.max(np.abs(first_col)))
    if not (np.all(np.isfinite(riesz_col)) and np.isfinite(peak * peak)):
        raise ValidationError(
            f"h^-alpha = {h_alpha:g} (h={grid.h:g}, alpha={problem.alpha:g}) "
            f"and tau^2 kappa h^-alpha / 2 = {factor:g} (tau={tau_step:g}, "
            f"kappa={problem.kappa:g}) must keep the scaled Riesz weights "
            f"and their squares finite"
        )
    quadrant = laplacian_coeffs_2d(problem.alpha, n, oversampling=OVERSAMPLING)
    lap = bttb_build(quadrant, n, scale=h_alpha)

    first_col[0] += 1.0
    return StepOperators(
        tau_step=tau_step,
        alpha=problem.alpha,
        kappa=problem.kappa,
        grid=grid,
        riesz=SymToeplitz(riesz_col),
        lap=lap,
        factor=factor,
        sweep_col=first_col,
    )


def rhs_general(
    u: np.ndarray,
    ops: StepOperators,
    g: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray | None]:
    """Right-hand side B(u) = -tau^2 kappa L u + tau^2 g(u) of the general
    step, and the L u it applied (None when kappa = 0, which needs none);
    the first step uses tau phi2 + B(u^0) / 2."""
    tau2 = ops.tau_step * ops.tau_step
    out = tau2 * g(u)
    if ops.kappa == 0.0:
        return out, None
    lap_u = _compact_apply(ops, u)
    out -= (tau2 * ops.kappa) * lap_u
    return out, lap_u


def _compact_apply(ops: StepOperators, u: np.ndarray) -> np.ndarray:
    """L u as a C-contiguous N x N array. The apply crops a view out of an
    N x L array; a field that outlives the call must not pin that buffer,
    and the copy costs what the view's first flattening would."""
    return np.ascontiguousarray(ops.lap.apply(u))


def _a_pair(
    ops: StepOperators, lap_prev: np.ndarray | None, u_curr: np.ndarray
) -> float | None:
    """h^2 (L u_prev, u_curr) from the L u_prev a step made, or None."""
    if lap_prev is None:
        return None
    h = ops.grid.h
    return h * h * float(np.vdot(lap_prev, u_curr).real)


def adi_solve(ops: StepOperators, b: np.ndarray) -> np.ndarray:
    """Solve (I + c delta_x)(I + c delta_y) X = B by two Toeplitz sweeps.

    delta_x couples along axis 0, so the column sweep solves H X = B on the
    columns of B; transposing swaps the roles and the second sweep handles
    axis 1. Both sweeps batch all N columns into single solves of four FFTs
    of length next_fast_len(N). Each sweep makes one copy, the complex
    working array whose contiguous rows its transforms run along: the
    columns of B for the first, the rows of X for the second, whose result
    transposed back is C-ordered. Eight counted FFT calls in all.
    """
    x_swept = gs_solve(ops.gs, np.asarray(b, dtype=float))
    return gs_solve(ops.gs, x_swept.T).T


def _sadi_m(ops: StepOperators, v: np.ndarray) -> np.ndarray:
    """sadi's implicit operator: (I + c delta_x)(I + c delta_y) v."""
    c = 0.5 * ops.tau_step * ops.tau_step * ops.kappa
    w = v + c * ops.delta_y(v)
    return w + c * ops.delta_x(w)


def sadi_first_step(problem: Problem, grid: Grid2D, ops: StepOperators) -> SchemeState:
    """Advance the initial data to the first time level."""
    g = resolve_nonlinearity(problem.nonlinearity)
    u0, phi2_field = problem.initial_fields(grid)
    b0, lap_u0 = rhs_general(u0, ops, g)
    u1 = u0 + adi_solve(ops, 0.5 * b0 + ops.tau_step * phi2_field)
    return SchemeState(u_prev=u0, u_curr=u1, step_index=1, time=ops.tau_step,
                       a_pair=_a_pair(ops, lap_u0, u1))


def sadi_step(
    state: SchemeState,
    ops: StepOperators,
    g: Callable[[np.ndarray], np.ndarray],
) -> SchemeState:
    """One general step: solve for the second difference and shift levels."""
    b, lap_curr = rhs_general(state.u_curr, ops, g)
    u_next = adi_solve(ops, b) + 2.0 * state.u_curr - state.u_prev
    return SchemeState(
        u_prev=state.u_curr,
        u_curr=u_next,
        step_index=state.step_index + 1,
        time=(state.step_index + 1) * ops.tau_step,
        a_pair=_a_pair(ops, lap_curr, u_next),
    )


# ---------------------------------------------------------------------------
# unfactored baseline
# ---------------------------------------------------------------------------

def _nonadi_m(ops: StepOperators, v: np.ndarray) -> np.ndarray:
    """nonadi's implicit operator: (I + c L) v, v itself when kappa = 0."""
    if ops.kappa == 0.0:
        return v
    return v + (0.5 * ops.tau_step * ops.tau_step * ops.kappa) * ops.lap.apply(v)


def _nonadi_solve(
    ops: StepOperators, b: np.ndarray, x0: np.ndarray, tol: float
) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Solve (I + (tau^2 kappa/2) L) x = b by PCG with the 2D sine-transform
    preconditioner, warm-started from the previous level. Returns x, the
    iteration count and L x0, the apply the warm-start residual is made
    from (None when kappa = 0: the system is then I x = b, and no step of
    the solve applies L)."""
    c = 0.5 * ops.tau_step * ops.tau_step * ops.kappa
    lap_x0 = None if ops.kappa == 0.0 else _compact_apply(ops, x0)
    x, report = pcg(partial(_nonadi_m, ops), partial(tau_apply, ops.tau2d), b,
                    tol=tol, max_iter=400, x0=x0,
                    ax0=None if lap_x0 is None else x0 + c * lap_x0)
    if not report.converged:
        raise SolverError(
            f"step solve did not converge: {report.iterations} iterations, "
            f"relative residual {report.final_relative_residual:.2e}"
        )
    return x, report.iterations, lap_x0


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
    u1, iterations, lap_u0 = _nonadi_solve(ops, b, x0=u0, tol=tol)
    return SchemeState(u_prev=u0, u_curr=u1, step_index=1, time=tau,
                       pcg_iterations=iterations,
                       a_pair=_a_pair(ops, lap_u0, u1), lap_prev=lap_u0)


def nonadi_step(
    state: SchemeState,
    ops: StepOperators,
    g: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-11,
) -> SchemeState:
    """General baseline step: (I + c L) u^{n+1} = 2 u^n - u^{n-1}
    - c L u^{n-1} + tau^2 g(u^n). L u^{n-1} is the state's ``lap_prev``
    when it carries one (the previous solve's warm-start apply), so the
    step applies L once plus once per PCG iteration."""
    tau = ops.tau_step
    c = 0.5 * tau * tau * ops.kappa
    b = 2.0 * state.u_curr - state.u_prev + tau * tau * g(state.u_curr)
    if ops.kappa != 0.0:
        lap_prev = state.lap_prev
        if lap_prev is None:
            lap_prev = ops.lap.apply(state.u_prev)
        b -= c * lap_prev
    u_next, iterations, lap_curr = _nonadi_solve(ops, b, x0=state.u_curr,
                                                 tol=tol)
    return SchemeState(
        u_prev=state.u_curr,
        u_curr=u_next,
        step_index=state.step_index + 1,
        time=(state.step_index + 1) * tau,
        pcg_iterations=iterations,
        a_pair=_a_pair(ops, lap_curr, u_next),
        lap_prev=lap_curr,
    )


# ---------------------------------------------------------------------------
# scheme lookup and run loop
# ---------------------------------------------------------------------------

class Scheme(NamedTuple):
    """A scheme's first and general steps, its implicit operator
    (``apply_m(ops, v)`` is M v) and ``solver(ops)``, its solver of M."""

    first_step: Callable[[Problem, Grid2D, StepOperators], SchemeState]
    step: Callable[[SchemeState, StepOperators, Callable], SchemeState]
    apply_m: Callable[[StepOperators, np.ndarray], np.ndarray]
    solver: Callable[[StepOperators], object]


def lookup_scheme(name: str, step_tol: float = 1e-11) -> Scheme:
    """The scheme called ``name``; the baseline's steps solve to ``step_tol``."""
    schemes = dict(zip(SCHEME_NAMES, (
        Scheme(sadi_first_step, sadi_step, _sadi_m, lambda ops: ops.gs),
        Scheme(partial(nonadi_first_step, tol=step_tol),
               partial(nonadi_step, tol=step_tol), _nonadi_m,
               lambda ops: ops.tau2d),
    )))
    if name not in schemes:
        raise ValidationError(f"unknown scheme {name!r}; "
                              f"available: {', '.join(SCHEME_NAMES)}")
    return schemes[name]


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
    useful when several runs share a (grid, tau) configuration; operators
    built for another grid, alpha, kappa or tau are refused. The set-up
    time includes the build of the scheme's own solver.
    """
    if m_steps < 1:
        raise ValidationError(f"m_steps must be >= 1, got {m_steps}")
    impl = lookup_scheme(scheme, step_tol)
    info = RunInfo(scheme=scheme, steps=m_steps)
    t0 = time.perf_counter()
    if ops is None:
        ops = build_operators(problem, grid, tau_step)
    elif abs(ops.tau_step - tau_step) > 1e-15 * max(1.0, tau_step):
        raise ValidationError("prebuilt operators were made for a different tau")
    elif (ops.grid, ops.alpha, ops.kappa) != (grid, problem.alpha, problem.kappa):
        raise ValidationError(
            f"prebuilt operators were made for alpha={ops.alpha:g}, "
            f"kappa={ops.kappa:g} on {ops.grid}, not alpha={problem.alpha:g}, "
            f"kappa={problem.kappa:g} on {grid}"
        )
    impl.solver(ops)
    info.setup_seconds = time.perf_counter() - t0

    g = resolve_nonlinearity(problem.nonlinearity)
    t1 = time.perf_counter()
    for n in range(m_steps):
        state = impl.first_step(problem, grid, ops) if n == 0 else impl.step(state, ops, g)
        if state.pcg_iterations is not None:
            info.pcg_solves += 1
            info.pcg_total_iterations += state.pcg_iterations
            info.pcg_max_iterations = max(info.pcg_max_iterations, state.pcg_iterations)
        _check_finite(state)
        if recorder is not None:
            recorder(state)
    info.loop_seconds = time.perf_counter() - t1
    return state, info
