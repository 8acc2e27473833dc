"""The benchmark's workloads: one unit of work each, and its correctness check.

All workloads use the built-in examples on (-10, 10)^2 with alpha = 1.5,
kappa = 1 and tau = 1/100, one FFT worker, and only names exported by
``fracwave``. A unit is one ``solve``-like integration: operators built,
time levels stepped, summary norms taken.

Seed 0 is the paper problem. Any other seed moves the centre of the sech
velocity pulse by up to one unit in each direction; grid and step count
stay the same, and such runs are checked by invariants only.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import fracwave as fw

ALPHA = 1.5
TAU = 1.0 / 100.0
STEP_TOL = 1e-11
FINGERPRINT_RTOL = 1e-10
MAX_ENERGY_DRIFT = 1e-12
SURFACE = "sin_half_u"

FAILURES = (fw.ValidationError, fw.SolverError, fw.BlowUpError)


@dataclass
class UnitResult:
    """Timings and check outcome of one unit of work."""

    total_s: float
    setup_s: float
    step_ms: list[float]
    failures: list[str] = field(default_factory=list)


def pulse_centre(seed: int) -> tuple[float, float]:
    if seed == 0:
        return 0.0, 0.0
    cx, cy = np.random.default_rng(seed).uniform(-1.0, 1.0, size=2)
    return float(cx), float(cy)


def make_problem(example: str, seed: int) -> fw.Problem:
    problem = fw.example_problem(example, ALPHA)
    if seed == 0:
        return problem
    cx, cy = pulse_centre(seed)
    return dataclasses.replace(
        problem, phi2=lambda x, y: fw.sech(np.hypot(x - cx, y - cy)))


def _compare(got: dict, want: dict, failures: list[str]) -> None:
    for key, ref in want.items():
        if isinstance(ref, int):
            ok = got[key] == ref
        else:
            ok = abs(got[key] - ref) <= FINGERPRINT_RTOL * abs(ref)
        if not ok:
            failures.append(f"{key} = {got[key]!r}, frozen {ref!r}")


@dataclass(frozen=True)
class SolveWorkload:
    """One ``fracwave solve`` run, timed from outside its calls."""

    name: str
    example: str
    h: float
    scheme: str
    steps: int
    tail_pct: int
    min_units: int
    fingerprint: dict
    energy: bool = False
    snapshot_steps: tuple[int, ...] = ()

    def unit(self, seed: int, outdir) -> UnitResult:
        problem = make_problem(self.example, seed)
        grid = fw.Grid2D.from_spacing(problem.a, problem.b, self.h)
        stamps: list[float] = []
        energies: list[float] = []

        t0 = perf_counter()
        ops = fw.build_operators(problem, grid, TAU)
        t1 = perf_counter()

        def recorder(state) -> None:
            stamps.append(perf_counter())
            if self.energy:
                energies.append(fw.discrete_energy(state, ops))
            if state.step_index in self.snapshot_steps:
                fw.write_snapshot_raw(
                    outdir / f"{self.name}_step{state.step_index}",
                    fw.apply_surface(SURFACE, state.u_curr),
                    h=grid.h, t=state.time, alpha=problem.alpha,
                    kappa=problem.kappa, nonlinearity=str(problem.nonlinearity),
                    surface=SURFACE)

        state, info = fw.run(problem, grid, TAU, self.steps, scheme=self.scheme,
                             recorder=recorder, step_tol=STEP_TOL, ops=ops)
        u = state.u_curr
        # the final norms of the solve summary
        summary = {"max_abs": float(np.max(np.abs(u))),
                   "l2h": math.sqrt(fw.inner_product("l2", u, u, ops)),
                   "seminorm": math.sqrt(max(fw.inner_product("A", u, u, ops), 0.0))}
        t2 = perf_counter()

        failures: list[str] = []
        if not (np.all(np.isfinite(u)) and math.isfinite(summary["seminorm"])):
            failures.append("non-finite final field")
        if self.energy:
            drift = fw.EnergyTrace(np.asarray(energies)).relative_drift()
            if not drift <= MAX_ENERGY_DRIFT:
                failures.append(f"energy drift {drift:.3e} > {MAX_ENERGY_DRIFT:g}")
        if seed == 0:
            got = dict(summary, pcg_iterations=info.pcg_total_iterations)
            _compare(got, self.fingerprint, failures)
        return UnitResult(total_s=t2 - t0, setup_s=t1 - t0,
                          step_ms=list(np.diff(stamps) * 1e3), failures=failures)


# Final-field norms at seed 0, frozen from this code. ``pcg_iterations`` is
# the total over the run and is compared exactly.
FINGERPRINTS = {
    "ring-sadi": {"max_abs": 0.19673034241637818, "l2h": 0.4129842539812144},
    "linear-energy": {"max_abs": 0.29348448478586175, "l2h": 0.6205973138591729},
    "ring-nonadi": {"max_abs": 0.3744877224173823, "l2h": 0.8000992445680383,
                    "pcg_iterations": 82},
}

# Why each workload exists is recorded in BENCHMARK.json; what each layer
# should move, and where it should not, in README.md.
WORKLOADS = {w.name: w for w in (
    SolveWorkload(
        name="ring-sadi", example="sine-gordon", h=1.0 / 40.0, scheme="sadi",
        steps=20, tail_pct=82, min_units=3, snapshot_steps=(10, 20),
        fingerprint=FINGERPRINTS["ring-sadi"]),
    SolveWorkload(
        name="linear-energy", example="zero", h=1.0 / 20.0, scheme="sadi",
        steps=30, tail_pct=91, min_units=4, energy=True,
        fingerprint=FINGERPRINTS["linear-energy"]),
    SolveWorkload(
        name="ring-nonadi", example="sine-gordon", h=1.0 / 20.0, scheme="nonadi",
        steps=40, tail_pct=91, min_units=3,
        fingerprint=FINGERPRINTS["ring-nonadi"]),
)}
