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
    def from_spacing(cls, a: float, b: float, h: float, rtol: float = 1e-9) -> "Grid2D":
        """Build a grid from a target spacing; h must divide (b - a) into an
        integral number of intervals (h = (b - a)/(N + 1) with integer N)."""
        if not h > 0:
            raise ValidationError(f"spacing must be positive, got h={h}")
        ratio = (b - a) / h
        if not np.isfinite(ratio):
            raise ValidationError(
                f"spacing h={h} gives no finite interval count on ({a}, {b})"
            )
        n_intervals = round(ratio)
        if n_intervals < 2 or abs(ratio - n_intervals) > rtol * max(1.0, ratio):
            raise ValidationError(
                f"spacing h={h} does not divide the domain ({a}, {b}) into an "
                f"integral interval count (got {ratio})"
            )
        return cls(a, b, n_intervals - 1)


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


def resolve_nonlinearity(
    g: str | Callable[[np.ndarray], np.ndarray],
) -> Callable[[np.ndarray], np.ndarray]:
    if callable(g):
        return g
    try:
        return _REGISTRY[g]
    except KeyError:
        raise ValidationError(
            f"unknown nonlinearity {g!r}; registered names: {', '.join(NONLINEARITY_NAMES)}"
        ) from None


@dataclass(frozen=True)
class Problem:
    """Full problem statement, independent of any discretization.

    ``nonlinearity`` is a registry name or a callable acting pointwise on
    fields; ``phi1`` and ``phi2`` map coordinate fields (X, Y) to initial
    displacement and velocity. kappa = 0 is accepted as a degenerate test
    mode in which all spatial coupling vanishes.
    """

    a: float
    b: float
    alpha: float
    kappa: float = 1.0
    nonlinearity: str | Callable[[np.ndarray], np.ndarray] = "zero"
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


def _kg_phi1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # amplitude 2: the benchmark tables this profile feeds are only
    # reproduced with the doubled pulse
    return 2.0 * sech(np.cosh(x * x + y * y))


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

# Benchmark defaults: (tau, h, t_final) used when the CLI flags are omitted.
EXAMPLE_DEFAULTS = {
    "sine-gordon": (1.0 / 100.0, 1.0 / 40.0, 5.0),
    "klein-gordon": (1.0 / 100.0, 1.0 / 40.0, 8.0),
    "zero": (1.0 / 100.0, 1.0 / 40.0, 5.0),
}


def example_problem(name: str, alpha: float, kappa: float = 1.0) -> Problem:
    """Construct one of the built-in benchmark problems on (-10, 10)^2."""
    if name not in _EXAMPLES:
        raise ValidationError(
            f"unknown example {name!r}; available: {', '.join(EXAMPLE_NAMES)}"
        )
    nonlinearity, phi1, phi2 = _EXAMPLES[name]
    return Problem(a=-10.0, b=10.0, alpha=alpha, kappa=kappa,
                   nonlinearity=nonlinearity, phi1=phi1, phi2=phi2, label=name)
