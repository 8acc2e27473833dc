"""The benchmark's per-layer tracer still sees every layer it reports.

``perfbench/tracer.py`` wraps module-level functions by identity from
outside the package. A refactor that moves a step, a solve or the energy
behind a dict, a class or a closure built at import time makes its span
vanish silently; this test runs a short solve of each scheme under the
tracer and checks that the spans the benchmark reads are recorded.
"""

import importlib.util
from pathlib import Path

import pytest

import fracwave

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

EXPECTED = {
    "sadi": {"stepper.step", "stepper.rhs_general", "stepper.adi_solve",
             "structured.gs_solve", "harness.discrete_energy"},
    "nonadi": {"stepper.rhs_general", "structured.pcg",
               "structured.tau_apply", "harness.discrete_energy"},
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("scheme", sorted(EXPECTED))
def test_spans_recorded(scheme):
    tracer = _load_tracer()
    problem = fracwave.example_problem("zero", 1.5)
    grid = fracwave.Grid2D(problem.a, problem.b, 15)
    tau = 0.05
    # names are looked up on the package inside the block, where the
    # tracer has replaced them
    with tracer.Tracer(fracwave) as tr:
        ops = fracwave.build_operators(problem, grid, tau)
        fracwave.run(problem, grid, tau, 3, scheme=scheme, ops=ops,
                     recorder=lambda s: fracwave.discrete_energy(s, ops))
    totals = tr.layer_totals()
    assert EXPECTED[scheme] <= set(totals)
    assert totals["harness.discrete_energy"]["calls"] == 3
