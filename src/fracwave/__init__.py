"""fracwave: splitting-ADI solver for the 2D fractional Laplacian wave equation.

The package is organized as a small stack:

* :mod:`fracwave.coeffs`      difference coefficients (1D Riesz, 2D fractional
  Laplacian) and their quadrature oracle
* :mod:`fracwave.structured`  the structured Toeplitz inverse, BTTB
  operators, the 2D sine-transform preconditioner, PCG
* :mod:`fracwave.problems`    problem statements, grids, nonlinearities
* :mod:`fracwave.stepper`     the factored splitting scheme and the unfactored
  baseline
* :mod:`fracwave.harness`     norms, energy diagnostics, refinement studies
* :mod:`fracwave.snapshots`   snapshot file formats
* :mod:`fracwave.cli`         the ``fracwave`` command
"""

from .coeffs import coeff_quadrature_oracle, laplacian_coeffs_2d, riesz_coeffs_1d
from .errors import BlowUpError, SolverError, ValidationError
from .harness import (
    EnergyTrace,
    StudyRow,
    StudySpec,
    discrete_energy,
    inner_product,
    refinement_rows,
    run_study,
    splitting_gap,
)
from .problems import Grid2D, Problem, example_problem, sech
from .snapshots import apply_surface, write_snapshot_csv, write_snapshot_raw
from .stepper import (
    RunInfo,
    SchemeState,
    StepOperators,
    adi_solve,
    build_operators,
    nonadi_first_step,
    nonadi_step,
    rhs_general,
    run,
    sadi_first_step,
    sadi_step,
)
from .structured import (
    BttbOperator,
    GSData,
    PcgReport,
    bttb_apply,
    bttb_build,
    gs_precompute,
    gs_solve,
    pcg,
    tau_apply,
    tau_spec_2d,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError", "BttbOperator", "EnergyTrace", "GSData", "Grid2D",
    "PcgReport", "Problem", "RunInfo", "SchemeState", "SolverError",
    "StepOperators", "StudyRow", "StudySpec", "ValidationError",
    "adi_solve", "apply_surface", "bttb_apply", "bttb_build",
    "build_operators", "coeff_quadrature_oracle",
    "discrete_energy", "example_problem", "gs_precompute", "gs_solve",
    "inner_product", "laplacian_coeffs_2d", "nonadi_first_step",
    "nonadi_step", "pcg", "refinement_rows", "rhs_general",
    "riesz_coeffs_1d", "run",
    "run_study", "sadi_first_step", "sadi_step", "sech", "splitting_gap",
    "tau_apply", "tau_spec_2d", "write_snapshot_csv", "write_snapshot_raw",
]
