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
comparisons. Its first step is sadi's, with M = I + c L.

``lookup_scheme``, the one place a scheme name is read, gives the scheme's
steps and its solver of M (the GS inverse for sadi, the tau spectrum for
nonadi), read from the module at each call so that a wrapper installed
over one runs. ``run`` builds only that solver, in its set-up;
``build_operators`` builds what both schemes share. Every run state names
the scheme that made it and carries M (u^{n+1} - u^n) with that scheme's
M, the product its energy reads; the Riesz sum delta_x + delta_y, which
only a norm applies, is a BTTB operator built on first apply.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .coeffs import (DEFAULT_MAX_SAMPLES, OVERSAMPLING, laplacian_coeffs_2d,
                     riesz_coeffs_1d)
from .errors import BlowUpError, SolverError, ValidationError
from .problems import Grid2D, Problem, resolve_nonlinearity
from .structured import (
    BttbOperator,
    GSData,
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

# Per-step solve tolerance of the baseline scheme.
STEP_TOL = 1e-11
# Largest grid whose coefficients fit the symbol-sampling budget.
MAX_GRID_N = DEFAULT_MAX_SAMPLES // OVERSAMPLING

SCHEME_NAMES = ("sadi", "nonadi")


@dataclass(frozen=True)
class SchemeState:
    """Two consecutive time levels: u_prev = u^{n-1}, u_curr = u^n, made by
    the steps of ``scheme`` (None for a state built by hand).
    ``pcg_iterations`` counts the iterations of the baseline solve that
    produced u_curr (zero is a valid count); it is None for sadi steps.

    The steps hand on the applies they made, so that consumers need not
    repeat them. ``a_pair`` is h^2 (L u_prev, u_curr), the pairing term of
    the conserved energy, set by the steps that apply L to u_prev (sadi's
    and the first baseline step); where it is None the energy applies L.
    ``m_du`` is M (u_curr - u_prev) with the M of ``scheme``, a compact
    N x N field each step makes with no apply (see ``sadi_step`` and
    ``_nonadi_solve``); the energy reads it, and refuses a state without it.
    The baseline's ``m_curr`` = M u_curr and ``pinv_m_curr`` =
    P^{-1} M u_curr, P the tau preconditioner, are read off the solve's
    final residual and its preconditioned form; the next solve takes them
    for its right-hand side (M u_prev = m_curr - m_du) and its warm-start
    residuals, and ``nonadi_step`` refuses a state without the three.
    """

    u_prev: np.ndarray
    u_curr: np.ndarray
    step_index: int
    time: float
    scheme: str | None = None
    pcg_iterations: int | None = None
    a_pair: float | None = None
    m_curr: np.ndarray | None = None
    pinv_m_curr: np.ndarray | None = None
    m_du: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class StepOperators:
    """The operators of the steps and norms, built for one (problem, grid, tau).

    ``riesz_weights`` are the h^{-alpha}-scaled 1D Riesz weights, the first
    column of the symmetric Toeplitz matrix T that delta_x applies along
    axis 0 and delta_y along axis 1. ``lap`` applies the plain discrete
    fractional Laplacian h^{-alpha} scaling included, kappa NOT included
    (kappa enters at the use sites). ``factor`` is tau^2 kappa h^{-alpha} / 2
    and ``sweep_col`` the first column of H = I + (tau^2 kappa / 2) T.
    ``alpha``, ``kappa``, ``grid`` and ``tau_step`` record what the
    operators were built for. The two schemes' solvers, ``gs`` and
    ``tau2d``, and the BTTB operator ``a_tilde``, which only a norm
    applies, are built on first use.
    """

    tau_step: float
    alpha: float
    kappa: float
    grid: Grid2D
    riesz_weights: np.ndarray
    lap: BttbOperator
    factor: float
    sweep_col: np.ndarray

    @cached_property
    def gs(self) -> GSData:
        """sadi's solver, the inverse of H (square grid: one for both sweeps)."""
        return gs_precompute(self.sweep_col)

    @cached_property
    def tau2d(self) -> np.ndarray:
        """nonadi's preconditioner for I + (tau^2 kappa / 2) L: its
        eigenvalues in the 2D sine basis."""
        return tau_spec_2d(self.alpha, self.grid.n, self.factor)

    @cached_property
    def a_tilde(self) -> BttbOperator:
        """The separable Riesz sum delta_x + delta_y: the BTTB operator whose
        quadrant holds the weights down column 0 and along row 0 (2 T_0 at
        the centre) and zeros elsewhere."""
        n, weights = self.grid.n, self.riesz_weights
        quadrant = np.zeros((n, n))
        quadrant[:, 0] = weights
        quadrant[0, :] = weights
        quadrant[0, 0] *= 2.0
        return bttb_build(quadrant, n)

    @property
    def c(self) -> float:
        """c = tau^2 kappa / 2, the weight of the implicit operators."""
        return 0.5 * self.tau_step * self.tau_step * self.kappa


def check_scales(problem: Problem, grid: Grid2D,
                 tau_step: float) -> tuple[float, float]:
    """Refuse a step, grid or operator scale that ``build_operators`` cannot
    use, and return h^-alpha and factor = tau^2 kappa h^-alpha / 2. A grid
    beyond MAX_GRID_N exceeds the symbol-sampling budget. A tau whose square
    is below the smallest normal double (tau below about 1.4917e-154) is
    refused, because the energy divides by tau^2.

    The scaled Riesz weights h^-alpha a_k and factor * a_k, and the squares
    of the latter (the sadi operator (I + factor T)^2 squares factor * T),
    must be finite. a_0 > 0 is the largest weight in magnitude, so checking
    it checks them all: the call costs one weight, cheap enough to run
    before any output directory is made.
    """
    if not tau_step > 0:
        raise ValidationError(f"tau_step must be positive, got {tau_step}")
    tiny = np.finfo(float).tiny
    if tau_step * tau_step < tiny:
        raise ValidationError(
            f"tau_step={tau_step:g} is too small: tau^2 must be at least "
            f"{tiny:.4g}, the smallest normal double (tau >= "
            f"{math.sqrt(tiny):.5g})")
    if grid.n > MAX_GRID_N:
        raise ValidationError(f"grid N={Decimal(grid.n):.6g} is beyond the "
                              f"largest supported N={MAX_GRID_N}")
    with np.errstate(over="ignore"):  # an overflow is rejected below
        h_alpha = float(np.float64(grid.h) ** -problem.alpha)
    factor = 0.5 * tau_step * tau_step * problem.kappa * h_alpha
    a0 = float(riesz_coeffs_1d(problem.alpha, 1)[0])
    peak = factor * a0
    if not (math.isfinite(h_alpha * a0) and math.isfinite(peak * peak)):
        raise ValidationError(
            f"h^-alpha = {h_alpha:g} (h={grid.h:g}, alpha={problem.alpha:g}) "
            f"and tau^2 kappa h^-alpha / 2 = {factor:g} (tau={tau_step:g}, "
            f"kappa={problem.kappa:g}) must keep the scaled Riesz weights "
            f"and their squares finite"
        )
    return h_alpha, factor


def build_operators(
    problem: Problem, grid: Grid2D, tau_step: float
) -> StepOperators:
    """Generate the coefficients and the operators both schemes use."""
    h_alpha, factor = check_scales(problem, grid, tau_step)
    weights = riesz_coeffs_1d(problem.alpha, grid.n)
    first_col = factor * weights
    quadrant = laplacian_coeffs_2d(problem.alpha, grid.n)
    lap = bttb_build(quadrant, grid.n, scale=h_alpha)

    first_col[0] += 1.0
    return StepOperators(
        tau_step=tau_step,
        alpha=problem.alpha,
        kappa=problem.kappa,
        grid=grid,
        riesz_weights=h_alpha * weights,
        lap=lap,
        factor=factor,
        sweep_col=first_col,
    )


def rhs_general(
    u: np.ndarray,
    ops: StepOperators,
    g: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side B(u) = -tau^2 kappa L u + tau^2 g(u) of the general
    step, and the L u it applied; the first step uses tau phi2 + B(u^0) / 2."""
    tau2 = ops.tau_step * ops.tau_step
    lap_u = ops.lap.apply(u)  # first, so no g(u) field lives through the apply
    out = tau2 * g(u)
    out -= (tau2 * ops.kappa) * lap_u
    return out, lap_u


def _hand_over(scheme: str, ops: StepOperators, u_prev: np.ndarray,
               u_curr: np.ndarray, lap_u_prev: np.ndarray | None,
               step_index: int, **carried) -> SchemeState:
    """The state at ``step_index``, made by ``scheme``: a step that made
    L u_prev hands on the energy pairing h^2 (L u_prev, u_curr).
    ``carried`` holds ``m_du``, and the baseline's ``pcg_iterations``,
    ``m_curr`` and ``pinv_m_curr``."""
    h = ops.grid.h
    a_pair = (None if lap_u_prev is None
              else h * h * float(np.vdot(lap_u_prev, u_curr).real))
    return SchemeState(u_prev=u_prev, u_curr=u_curr, step_index=step_index,
                       time=step_index * ops.tau_step, scheme=scheme,
                       a_pair=a_pair, **carried)


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


def _first_rhs(problem: Problem, ops: StepOperators) -> tuple[np.ndarray, ...]:
    """u^0 sampled on ``ops.grid``, both schemes' first right-hand side
    tau phi2 + B(u^0) / 2 = M (u^1 - u^0), and the L u^0 it applied."""
    g = resolve_nonlinearity(problem.nonlinearity)
    u0, phi2_field = problem.initial_fields(ops.grid)
    rhs, lap_u0 = rhs_general(u0, ops, g)
    rhs *= 0.5  # formed in B(u^0)'s memory: one field fewer a first step
    rhs += ops.tau_step * phi2_field
    return u0, rhs, lap_u0


def sadi_first_step(problem: Problem, ops: StepOperators) -> SchemeState:
    """Advance the initial data to the first time level. The right-hand
    side tau phi2 + B(u^0) / 2 is M (u^1 - u^0), handed on as ``m_du``."""
    u0, rhs, lap_u0 = _first_rhs(problem, ops)
    u1 = adi_solve(ops, rhs)
    u1 += u0
    return _hand_over("sadi", ops, u0, u1, lap_u0, 1, m_du=rhs)


def sadi_step(
    state: SchemeState,
    ops: StepOperators,
    g: Callable[[np.ndarray], np.ndarray],
) -> SchemeState:
    """One general step: solve for the second difference and shift levels.

    M (u^{n+1} - u^n) = B(u^n) + M (u^n - u^{n-1}), so the step hands on
    ``m_du`` with one addition; from a state that is not sadi's (built by
    hand, or by the baseline) or carries none, it hands on None. u^{n+1} is
    formed in the solve's output and B(u^n) is released before the
    hand-over, so the carried field adds no peak memory."""
    b, lap_curr = rhs_general(state.u_curr, ops, g)
    u_next = adi_solve(ops, b)
    u_next += 2.0 * state.u_curr
    u_next -= state.u_prev
    own = state.scheme == "sadi" and state.m_du is not None
    m_du = b + state.m_du if own else None
    del b
    return _hand_over("sadi", ops, state.u_curr, u_next, lap_curr,
                      state.step_index + 1, m_du=m_du)


# ---------------------------------------------------------------------------
# unfactored baseline
# ---------------------------------------------------------------------------

def _nonadi_m(ops: StepOperators, v: np.ndarray) -> np.ndarray:
    """nonadi's implicit operator: (I + c L) v, formed in the apply's own
    output."""
    out = ops.lap.apply(v)
    out *= ops.c
    out += v
    return out


def _nonadi_solve(ops: StepOperators, b: np.ndarray, x0: np.ndarray,
                  m_x0: np.ndarray, pinv_m_x0: np.ndarray, step_index: int,
                  tol: float, lap_x0: np.ndarray | None = None) -> SchemeState:
    """Solve (I + c L) x = b by PCG with the 2D sine-transform
    preconditioner P, warm-started from the previous level x0 with its
    M x0 and P^{-1} M x0, and hand on the levels (x0, x) with M x and
    P^{-1} M x, read off the final residual and its preconditioned form,
    and M x - M x0. ``lap_x0``, L x0 if made, gives the energy pairing."""
    x, report, m_x, pinv_m_x = pcg(
        partial(_nonadi_m, ops), partial(tau_apply, ops.tau2d), b, x0, m_x0,
        pinv_m_x0, tol=tol, max_iter=400)
    if not report.converged:
        raise SolverError(
            f"step solve did not converge: {report.iterations} iterations, "
            f"relative residual {report.final_relative_residual:.2e}"
        )
    return _hand_over("nonadi", ops, x0, x, lap_x0, step_index,
                      pcg_iterations=report.iterations, m_du=m_x - m_x0,
                      m_curr=m_x, pinv_m_curr=pinv_m_x)


def nonadi_first_step(
    problem: Problem,
    ops: StepOperators,
    tol: float = STEP_TOL,
) -> SchemeState:
    """First step of the baseline: sadi's with M = I + c L, solved for u^1
    from the shared right-hand side plus M u^0. Its applies outside the solve,
    L u^0 (also the energy pairing) and P^{-1} M u^0, make the warm start."""
    u0, rhs, lap_u0 = _first_rhs(problem, ops)
    m_u0 = u0 + ops.c * lap_u0
    return _nonadi_solve(ops, rhs + m_u0, u0, m_u0, tau_apply(ops.tau2d, m_u0),
                         1, tol, lap_u0)


def nonadi_step(
    state: SchemeState,
    ops: StepOperators,
    g: Callable[[np.ndarray], np.ndarray],
    tol: float = STEP_TOL,
) -> SchemeState:
    """General baseline step: (I + c L) u^{n+1} = 2 u^n - (I + c L) u^{n-1}
    + tau^2 g(u^n). M u^n, P^{-1} M u^n and M (u^n - u^{n-1}), whence
    M u^{n-1}, come from the state, so the step applies L only in its PCG
    iterations and P^{-1} once more, for the solve's scale. A state that
    does not carry them (built by hand, or by sadi) is refused. The step
    hands on no energy pairing."""
    if state.m_du is None or state.m_curr is None or state.pinv_m_curr is None:
        raise ValidationError(
            "nonadi_step needs a state that carries M u_prev, M u_curr and "
            "P^-1 M u_curr: start the baseline with nonadi_first_step")
    tau = ops.tau_step
    b = 2.0 * state.u_curr - (state.m_curr - state.m_du) + tau * tau * g(state.u_curr)
    return _nonadi_solve(ops, b, state.u_curr, state.m_curr, state.pinv_m_curr,
                         state.step_index + 1, tol)


# ---------------------------------------------------------------------------
# scheme lookup and run loop
# ---------------------------------------------------------------------------

class Scheme(NamedTuple):
    """A scheme's first and general steps and ``solver(ops)``, its solver
    of the implicit operator M."""

    first_step: Callable[[Problem, StepOperators], SchemeState]
    step: Callable[[SchemeState, StepOperators, Callable], SchemeState]
    solver: Callable[[StepOperators], object]


def lookup_scheme(name: str, step_tol: float = STEP_TOL) -> Scheme:
    """The scheme called ``name``; the baseline's steps solve to ``step_tol``."""
    schemes = dict(zip(SCHEME_NAMES, (
        Scheme(sadi_first_step, sadi_step, lambda ops: ops.gs),
        Scheme(partial(nonadi_first_step, tol=step_tol),
               partial(nonadi_step, tol=step_tol), lambda ops: ops.tau2d),
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
    step_tol: float = STEP_TOL,
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
    elif abs(ops.tau_step - tau_step) > 1e-15 * tau_step:
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
        state = impl.first_step(problem, ops) if n == 0 else impl.step(state, ops, g)
        if state.pcg_iterations is not None:
            info.pcg_solves += 1
            info.pcg_total_iterations += state.pcg_iterations
            info.pcg_max_iterations = max(info.pcg_max_iterations, state.pcg_iterations)
        _check_finite(state)
        if recorder is not None:
            recorder(state)
    info.loop_seconds = time.perf_counter() - t1
    return state, info
