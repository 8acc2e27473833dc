"""Problem statements: domain, grid, initial data, and nonlinear terms.

The continuous problem is the fractional wave equation

    u_tt = -kappa (-Delta)^{alpha/2} u + g(u)   on  Omega = (a, b)^2,
    u = 0 on the complement of Omega,
    u(., 0) = phi1,  u_t(., 0) = phi2,

with alpha in (1, 2) and kappa > 0. Discrete fields live on the N x N
interior nodes x_i = a + i h, h = (b - a) / (N + 1), and are extended by
zero outside (the nonlocal operator genuinely reads the exterior, so the
zero extension is part of the problem, not just a boundary condition).

Built-in benchmark problems (both on (-10, 10)^2 with kappa = 1):

* ``sine-gordon``:   g(u) = -sin(u),  phi1 = 0, phi2 = sech(r), a ring wave.
* ``klein-gordon``:  g(u) = -u^3,     phi1 = sech(cosh(r^2)), phi2 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coeffs import validate_alpha
from .errors import ValidationError

__all__ = [
    "Grid2D",
    "Problem",
    "sech",
    "resolve_nonlinearity",
    "example_problem",
    "EXAMPLE_NAMES",
    "NONLINEARITY_NAMES",
]


def sech(z: np.ndarray) -> np.ndarray:
    """Overflow-safe hyperbolic secant: 2 e^{-|z|} / (1 + e^{-2|z|})."""
    z = np.abs(np.asarray(z, dtype=float))
    ez = np.exp(-z)
    return 2.0 * ez / (1.0 + ez * ez)


@dataclass(frozen=True)
class Grid2D:
    """Uniform square grid on (a, b)^2 with n interior nodes per direction."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ValidationError(f"domain requires b > a, got ({self.a}, {self.b})")
        if self.n < 1:
            raise ValidationError(f"grid needs at least one interior node, got n={self.n}")
        if not np.isfinite(self.h):
            raise ValidationError(
                f"grid spacing must be finite, got h={self.h} on ({self.a}, {self.b})")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    def nodes(self) -> np.ndarray:
        """Interior coordinates x_i = a + i h, i = 1..n."""
        return self.a + self.h * np.arange(1, self.n + 1)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate fields (X, Y) with X varying along axis 0."""
        x = self.nodes()
        return np.meshgrid(x, x, indexing="ij")

    @classmethod
    def from_spacing(cls, a: float, b: float, h: float) -> "Grid2D":
        """Build a grid from a target spacing; h must divide (b - a) into an
        integral number of intervals (h = (b - a)/(N + 1) with integer N)."""
        if not h > 0:
            raise ValidationError(f"spacing must be positive, got h={h}")
        n_intervals = whole_steps(b - a, h)
        if n_intervals is None or n_intervals < 2:
            raise ValidationError(
                f"spacing h={h} does not divide the domain ({a}, {b}) into an "
                f"integral interval count of at least 2 (got {(b - a) / h})"
            )
        return cls(a, b, n_intervals - 1)


def whole_steps(x: float, step: float) -> int | None:
    """The integer k with x = k step: round(x / step) when
    |x / step - k| <= 1e-9 max(1, |x / step|), else None (also for a
    non-finite x / step). The slack is relative to the step count, so a
    small step gains none: x = 1.4 steps is refused at any step size."""
    ratio = x / step
    if not np.isfinite(ratio):
        return None
    k = round(ratio)
    return k if abs(ratio - k) <= 1e-9 * max(1.0, abs(ratio)) else None


def _g_sine_gordon(u: np.ndarray) -> np.ndarray:
    return -np.sin(u)


def _g_klein_gordon(u: np.ndarray) -> np.ndarray:
    return -(u * u) * u


def _g_zero(u: np.ndarray) -> np.ndarray:
    return np.zeros_like(u)


_REGISTRY: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sine_gordon": _g_sine_gordon,
    "klein_gordon": _g_klein_gordon,
    "zero": _g_zero,
}

NONLINEARITY_NAMES = tuple(sorted(_REGISTRY))


def resolve_nonlinearity(name: str) -> Callable[[np.ndarray], np.ndarray]:
    if not (isinstance(name, str) and name in _REGISTRY):
        raise ValidationError(
            f"unknown nonlinearity {name!r}; registered names: "
            f"{', '.join(NONLINEARITY_NAMES)}")
    return _REGISTRY[name]


@dataclass(frozen=True)
class Problem:
    """Full problem statement, independent of any discretization.

    ``nonlinearity`` is a registry name (``NONLINEARITY_NAMES``); ``phi1``
    and ``phi2`` map coordinate fields (X, Y) to initial displacement and
    velocity. kappa = 0 is accepted as a degenerate test mode in which all
    spatial coupling vanishes.
    """

    a: float
    b: float
    alpha: float
    kappa: float = 1.0
    nonlinearity: str = "zero"
    phi1: Callable[[np.ndarray, np.ndarray], np.ndarray] = lambda x, y: np.zeros_like(x)
    phi2: Callable[[np.ndarray, np.ndarray], np.ndarray] = lambda x, y: np.zeros_like(x)
    label: str = "custom"

    def __post_init__(self):
        if not self.b > self.a:
            raise ValidationError(f"domain requires b > a, got ({self.a}, {self.b})")
        validate_alpha(self.alpha)
        if self.kappa < 0 or not np.isfinite(self.kappa):
            raise ValidationError(f"kappa must be >= 0, got {self.kappa}")
        resolve_nonlinearity(self.nonlinearity)

    def initial_fields(self, grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
        """Sample (phi1, phi2) on the interior nodes."""
        xx, yy = grid.meshgrid()
        u0 = np.asarray(self.phi1(xx, yy), dtype=float)
        v0 = np.asarray(self.phi2(xx, yy), dtype=float)
        if u0.shape != xx.shape or v0.shape != xx.shape:
            raise ValidationError("initial data must evaluate to full grid fields")
        return u0, v0


def _sg_phi2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return sech(np.sqrt(x * x + y * y))


def _bump(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # cosh(r^2) overflows past |r| ~ 26.6, where sech of it is exactly 0
    with np.errstate(over="ignore"):
        return sech(np.cosh(x * x + y * y))


def _kg_phi1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # amplitude 2: the benchmark tables this profile feeds are only
    # reproduced with the doubled pulse
    return 2.0 * _bump(x, y)


def _zero_field(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.zeros_like(x)


# name -> (nonlinearity, phi1, phi2). "zero" is the linear benchmark: the
# ring initial velocity with the forcing off, so the discrete energy is
# exactly conserved and easy to monitor.
_EXAMPLES = {
    "sine-gordon": ("sine_gordon", _zero_field, _sg_phi2),
    "klein-gordon": ("klein_gordon", _kg_phi1, _zero_field),
    "zero": ("zero", _zero_field, _sg_phi2),
}
EXAMPLE_NAMES = tuple(_EXAMPLES)

# The paper's runs, the defaults of what a solve or a study leaves unset: the
# figures' (tau, h), and per model the horizon and per axis its error table's
# (steps, fixed): halving taus at one h, or halving hs at one tau.
FIGURE_STEPS = (1 / 100, 1 / 40)
PAPER_RUNS = {
    "sine-gordon": (5.0, {"time": ((1 / 10, 1 / 20, 1 / 40, 1 / 80), 1 / 40),
                          "space": ((1.0, 1 / 2, 1 / 4, 1 / 8), 1 / 100)}),
    "klein-gordon": (8.0, {"time": ((4 / 25, 2 / 25, 1 / 25, 1 / 50), 1 / 50),
                           "space": ((2 / 5, 1 / 5, 1 / 10, 1 / 20), 1 / 125)}),
}
# Initial data of a custom problem by name: (phi1, phi2).
CUSTOM_INITIAL_DATA = {
    "ring": (_zero_field, _sg_phi2),
    "bump": (_bump, _zero_field),
    "zero": (_zero_field, _zero_field),
}


def paper_runs(example: str | None) -> tuple[float, dict]:
    """PAPER_RUNS[example]; the ring model's for "zero", None and unknowns."""
    return PAPER_RUNS.get(example, PAPER_RUNS["sine-gordon"])


def example_problem(name: str, alpha: float, kappa: float = 1.0) -> Problem:
    """Construct one of the built-in benchmark problems on (-10, 10)^2."""
    if name not in _EXAMPLES:
        raise ValidationError(
            f"unknown example {name!r}; available: {', '.join(EXAMPLE_NAMES)}"
        )
    nonlinearity, phi1, phi2 = _EXAMPLES[name]
    return Problem(a=-10.0, b=10.0, alpha=alpha, kappa=kappa,
                   nonlinearity=nonlinearity, phi1=phi1, phi2=phi2, label=name)
