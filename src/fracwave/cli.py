"""Command-line interface.

Subcommands:

* ``solve``        integrate one problem and write snapshots plus a summary
* ``study-time``   error/order table along a halving tau list (fixed h)
* ``study-space``  error/order table along a halving h list (fixed tau)
* ``coeffs``       dump difference coefficients as CSV for cross-checking
* ``selftest``     run the built-in consistency suite

Exit codes: 0 success, 2 validation error (argparse errors, non-finite
numbers and thread counts outside 1 .. CPU count included), 3
iterative-solver non-convergence, 4 solution blow-up, 5 I/O failure;
``selftest`` exits 1 when a check fails. The output directory of
``solve`` and the studies is the ``--out-dir`` flag when given, else the
FRACWAVE_OUTDIR environment variable, else the current directory.

All numeric flags accept plain decimals or p/q fractions (``--tau 1/100``);
join a value such as -1e1 or -1/2 to its flag with ``=`` (``--a=-1/2``).
Runs are seed-free and deterministic: identical flags and thread count give
byte-identical snapshots, tables, and summary lines except for lines
prefixed ``# timing``, which carry wall-clock measurements.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _fft
from .coeffs import laplacian_coeffs_2d, riesz_coeffs_1d
from .errors import BlowUpError, SolverError, ValidationError
from .harness import (
    STUDY_FIELDS,
    EnergyTrace,
    StudySpec,
    _step_index,
    _steps_for,
    discrete_energy,
    inner_product,
    parse_number,
    parse_number_list,
    parse_study_file,
    run_study,
)
from .problems import (
    EXAMPLE_DEFAULTS,
    EXAMPLE_NAMES,
    NONLINEARITY_NAMES,
    Grid2D,
    Problem,
    example_problem,
    sech,
)
from .selftest import FAULT_NAMES, run_selftest
from .snapshots import (
    SURFACE_NAMES,
    apply_surface,
    write_snapshot_csv,
    write_snapshot_raw,
)
from .stepper import MAX_GRID_N, SCHEME_NAMES, build_operators, run

log = logging.getLogger("fracwave")

OUTDIR_ENV = "FRACWAVE_OUTDIR"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_BLOWUP = 4
EXIT_IO = 5


def _fraction(text: str) -> float:
    try:
        return parse_number(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fraction_list(text: str) -> tuple[float, ...]:
    try:
        return parse_number_list(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _one_fraction(text: str) -> tuple[float]:
    return (_fraction(text),)


def _add_common_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--example", choices=EXAMPLE_NAMES, default=None,
                   help="built-in benchmark problem on (-10, 10)^2")
    p.add_argument("--alpha", type=_fraction, default=None,
                   help="fractional order in (1, 2)")
    p.add_argument("--kappa", type=_fraction, default=1.0,
                   help="diffusion strength kappa > 0 (default 1)")


def _add_custom_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=_fraction, default=-10.0,
                   help="domain lower edge (custom problems; default -10); "
                        "join a value like -1e1 or -1/2 with '=': --a=-1/2")
    p.add_argument("--b", type=_fraction, default=10.0,
                   help="domain upper edge (custom problems; default 10)")
    p.add_argument("--nonlinearity", choices=NONLINEARITY_NAMES, default="zero",
                   help="pointwise source term g(u) (custom problems)")
    p.add_argument("--initial", choices=("ring", "bump", "zero"), default="ring",
                   help="initial data for custom problems: ring = zero displacement "
                        "with sech(r) velocity, bump = sech(cosh(r^2)) displacement "
                        "at rest, zero = both zero (default ring)")


def _add_numeric_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=_fraction, default=None, help="time step")
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--h", type=_fraction, default=None,
                      help="grid spacing; must divide (b - a) into an integral "
                           "interval count")
    grid.add_argument("--n", type=int, default=None,
                      help="interior grid points per direction (alternative to --h)")
    p.add_argument("--t-final", type=_fraction, default=None,
                   help="integration horizon (must be an integral number of steps)")
    p.add_argument("--scheme", choices=SCHEME_NAMES, default="sadi",
                   help="time stepper: factored sweeps (sadi) or the unfactored "
                        "baseline (nonadi); default sadi")
    p.add_argument("--tol", type=_fraction, default=1e-11,
                   help="per-step linear-solve tolerance of the baseline scheme "
                        "(default 1e-11)")
    p.add_argument("--threads", type=int, default=1,
                   help="FFT worker threads, at most the CPU count (default 1)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default=None,
                   help=f"output directory (default: ${OUTDIR_ENV} or '.')")
    p.add_argument("--verbose", action="store_true",
                   help="log per-run progress to stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracwave",
        description="Splitting-ADI solver for the 2D fractional Laplacian "
                    "wave equation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    solve = sub.add_parser(
        "solve", help="integrate one problem and write snapshots",
        description="Integrate a single problem and write snapshot fields "
                    "plus a text summary.")
    _add_common_problem_flags(solve)
    _add_custom_problem_flags(solve)
    _add_numeric_flags(solve)
    _add_output_flags(solve)
    solve.add_argument("--snapshots", type=str, default="",
                       help="comma-separated output times; each must land on a "
                            "time step (fractions allowed)")
    solve.add_argument("--surface", choices=SURFACE_NAMES, default="u",
                       help="pointwise transform applied to snapshot fields "
                            "(default u)")
    solve.add_argument("--format", choices=("csv", "raw"), default="csv",
                       dest="snapshot_format",
                       help="snapshot file format (default csv)")
    solve.add_argument("--prefix", default="snap",
                       help="snapshot filename prefix (default 'snap')")
    solve.add_argument("--summary", default="summary.txt",
                       help="summary filename inside the output directory "
                            "(default summary.txt)")

    for axis, name in (("time", "study-time"), ("space", "study-space")):
        st = sub.add_parser(
            name, help=f"error/order table along a halving {axis} refinement",
            description=f"Run a {axis}-refinement error study and write a CSV "
                        "table (columns scheme,alpha,step,error,order,"
                        "cpu_setup,cpu_loop,cpu_seconds).")
        st.add_argument("--spec", default=None,
                        help="flat 'key = value' study file; explicit flags "
                             "override file entries")
        st.add_argument("--example", choices=EXAMPLE_NAMES, default=None)
        st.add_argument("--scheme", choices=SCHEME_NAMES + ("both",), default=None)
        st.add_argument("--alphas", type=_fraction_list, default=None,
                        help="comma-separated fractional orders (default 1.1,1.5,1.9)")
        st.add_argument("--kappa", type=_fraction, default=1.0)
        # the fixed step is a one-entry list of the same StudySpec field
        if axis == "time":
            st.add_argument("--taus", type=_fraction_list, default=None,
                            help="halving list of time steps")
            st.add_argument("--h", type=_one_fraction, default=None,
                            dest="hs", metavar="H", help="fixed grid spacing")
        else:
            st.add_argument("--hs", type=_fraction_list, default=None,
                            help="halving list of grid spacings")
            st.add_argument("--tau", type=_one_fraction, default=None,
                            dest="taus", metavar="TAU", help="fixed time step")
        st.add_argument("--t-final", type=_fraction, default=None)
        st.add_argument("--tol", type=_fraction, default=None,
                        help="baseline per-step solve tolerance (default 1e-11)")
        st.add_argument("--threads", type=int, default=None)
        st.add_argument("--out", default=None,
                        help=f"output CSV path (default study_{axis}.csv in the "
                             "output directory)")
        _add_output_flags(st)
        st.set_defaults(axis=axis)

    co = sub.add_parser(
        "coeffs", help="dump difference coefficients as CSV",
        description="Write difference coefficients as 'i,j,value' CSV rows "
                    "with 17 significant digits (1D rows use j = 0).")
    co.add_argument("--alpha", type=_fraction, required=True,
                    help="fractional order in (1, 2]; 2 is the classical check case")
    co.add_argument("--count", type=int, required=True,
                    help=f"weights per direction (offsets 0 .. count-1), at "
                         f"most {MAX_GRID_N}")
    co.add_argument("--kind", choices=("1d", "2d"), default="2d",
                    help="1d Riesz weights or full 2d weights (default 2d)")
    co.add_argument("--oversampling", type=int, default=8)
    co.add_argument("--out", default="-",
                    help="output file, or '-' for stdout (default '-')")

    selft = sub.add_parser(
        "selftest", help="run the built-in consistency suite",
        description="Run the deterministic built-in checks; exits 1 on failure.")
    selft.add_argument("--fault", choices=FAULT_NAMES, default=None,
                       help=argparse.SUPPRESS)

    return parser


def _resolve_outdir(args) -> Path:
    if getattr(args, "out_dir", None):
        out = Path(args.out_dir)
    else:
        out = Path(os.environ.get(OUTDIR_ENV) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_problem(args) -> Problem:
    if args.alpha is None:
        raise ValidationError("--alpha is required")
    if args.example is not None:
        return example_problem(args.example, args.alpha, kappa=args.kappa)
    if args.initial == "ring":
        phi1 = lambda x, y: np.zeros_like(x)
        phi2 = lambda x, y: sech(np.sqrt(x * x + y * y))
    elif args.initial == "bump":
        phi1 = lambda x, y: sech(np.cosh(x * x + y * y))
        phi2 = lambda x, y: np.zeros_like(x)
    else:
        phi1 = phi2 = lambda x, y: np.zeros_like(x)
    return Problem(a=args.a, b=args.b, alpha=args.alpha, kappa=args.kappa,
                   nonlinearity=args.nonlinearity, phi1=phi1, phi2=phi2)


def _solve_defaults(args) -> tuple[float, float, float]:
    tau_d, h_d, t_d = EXAMPLE_DEFAULTS.get(args.example or "", (0.01, 0.025, 5.0))
    tau = args.tau if args.tau is not None else tau_d
    t_final = args.t_final if args.t_final is not None else t_d
    return tau, h_d, t_final


def _snapshot_steps(tokens: str, tau: float, m_steps: int) -> dict[int, str]:
    """Map requested snapshot times to step indices, validating alignment."""
    plan: dict[int, str] = {}
    for token in (t.strip() for t in tokens.split(",")):
        if not token:
            continue
        t_req = parse_number(token)
        k = _step_index(t_req, tau, "snapshot time")
        if k < 0:
            raise ValidationError(f"snapshot time {token} lies before t = 0")
        if k > m_steps:
            raise ValidationError(
                f"snapshot time {token} lies beyond t_final (step {k} > {m_steps})"
            )
        plan[k] = f"{t_req:g}"
    return plan


def _cmd_solve(args) -> int:
    outdir = _resolve_outdir(args)
    problem = _build_problem(args)
    tau, h_default, t_final = _solve_defaults(args)
    if args.n is not None:
        grid = Grid2D(problem.a, problem.b, args.n)
    else:
        grid = Grid2D.from_spacing(problem.a, problem.b,
                                   args.h if args.h is not None else h_default)
    m_steps = _steps_for(t_final, tau)
    plan = _snapshot_steps(args.snapshots, tau, m_steps)
    _fft.set_fft_workers(args.threads)
    log.info("solve: %s alpha=%g scheme=%s N=%d h=%g tau=%g steps=%d",
             problem.label, problem.alpha, args.scheme, grid.n, grid.h, tau, m_steps)

    t0 = time.perf_counter()
    ops = build_operators(problem, grid, tau)
    build_seconds = time.perf_counter() - t0

    def write_snap(field_values: np.ndarray, label: str, t_actual: float) -> None:
        surf = apply_surface(args.surface, field_values)
        base = outdir / f"{args.prefix}_t{label}"
        if args.snapshot_format == "csv":
            write_snapshot_csv(f"{base}.csv", surf)
        else:
            write_snapshot_raw(base, surf, h=grid.h, t=t_actual,
                               alpha=problem.alpha, kappa=problem.kappa,
                               nonlinearity=str(problem.nonlinearity),
                               surface=args.surface)

    if 0 in plan:
        u0 = problem.initial_fields(grid)[0]
        write_snap(u0, plan[0], 0.0)

    track_energy = problem.nonlinearity == "zero"
    energies: list[float] = []

    def recorder(state) -> None:
        if track_energy:
            energies.append(discrete_energy(state, ops, args.scheme))
        label = plan.get(state.step_index)
        if label is not None:
            write_snap(state.u_curr, label, state.time)

    state, info = run(problem, grid, tau, m_steps, scheme=args.scheme,
                      recorder=recorder, step_tol=args.tol, ops=ops)
    info.setup_seconds += build_seconds  # run timed the solver build

    u = state.u_curr
    lines = [
        f"problem = {problem.label}",
        f"nonlinearity = {problem.nonlinearity if isinstance(problem.nonlinearity, str) else 'custom'}",
        f"alpha = {problem.alpha:g}",
        f"kappa = {problem.kappa:g}",
        f"domain = ({problem.a:g}, {problem.b:g})",
        f"scheme = {args.scheme}",
        f"n = {grid.n}",
        f"h = {grid.h:.12g}",
        f"tau = {tau:.12g}",
        f"steps = {m_steps}",
        f"t_final = {state.time:.12g}",
        f"final_max_abs = {float(np.max(np.abs(u))):.12e}",
        f"final_l2h_norm = {np.sqrt(inner_product('l2', u, u, ops)):.12e}",
        f"final_energy_seminorm = {np.sqrt(max(inner_product('A', u, u, ops), 0.0)):.12e}",
        f"snapshots_written = {len(plan)}",
    ]
    if track_energy and energies:
        trace = EnergyTrace(np.asarray(energies))
        lines += [
            f"energy_first = {trace.values[0]:.12e}",
            f"energy_last = {trace.values[-1]:.12e}",
            f"energy_relative_drift = {trace.relative_drift():.3e}",
        ]
    if info.pcg_solves:
        lines += [
            f"pcg_solves = {info.pcg_solves}",
            f"pcg_total_iterations = {info.pcg_total_iterations}",
            f"pcg_max_iterations = {info.pcg_max_iterations}",
        ]
    lines += [
        f"# timing setup_seconds = {info.setup_seconds:.4f}",
        f"# timing loop_seconds = {info.loop_seconds:.4f}",
        f"# timing total_seconds = {info.total_seconds:.4f}",
    ]
    report = "\n".join(lines) + "\n"
    (outdir / args.summary).write_text(report)
    sys.stdout.write(report)
    return EXIT_OK


def _cmd_study(args) -> int:
    outdir = _resolve_outdir(args)
    if args.spec is not None:
        spec = parse_study_file(args.spec, axis=args.axis)
    else:
        spec = StudySpec(axis=args.axis)
    updates = {field: getattr(args, field) for field in STUDY_FIELDS
               if getattr(args, field) is not None}
    updates["kappa"] = args.kappa
    spec = replace(spec, **updates)
    out_path = Path(args.out) if args.out else outdir / f"study_{args.axis}.csv"
    rows = run_study(spec, out_path)
    sys.stderr.write(f"wrote {len(rows)} rows to {out_path}\n")
    return EXIT_OK


def _cmd_coeffs(args) -> int:
    if not 1 <= args.count <= MAX_GRID_N:
        raise ValidationError(
            f"--count must lie in [1, {MAX_GRID_N}], got {args.count}")
    if args.kind == "1d":
        table = riesz_coeffs_1d(args.alpha, args.count)[:, None]
    else:
        table = laplacian_coeffs_2d(args.alpha, args.count,
                                    oversampling=args.oversampling)
    if args.out == "-":
        _write_coeff_rows(sys.stdout, table)
    else:
        with open(args.out, "w") as fh:
            _write_coeff_rows(fh, table)
    return EXIT_OK


def _write_coeff_rows(fh, table) -> None:
    # one offset row per write: a count-2048 table as a single string would
    # take hundreds of MiB
    fh.write("i,j,value\n")
    for i, row in enumerate(table):
        fh.write("".join(["%d,%d,%.17g\n" % (i, j, v)
                          for j, v in enumerate(row.tolist())]))


def _cmd_selftest(args) -> int:
    ok, report = run_selftest(fault=args.fault)
    sys.stdout.write(report)
    return EXIT_OK if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(message)s", stream=sys.stderr)
    handlers = {
        "solve": _cmd_solve,
        "study-time": _cmd_study,
        "study-space": _cmd_study,
        "coeffs": _cmd_coeffs,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.subcommand](args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except SolverError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except BlowUpError as exc:
        sys.stderr.write(f"blow-up: {exc}\n")
        return EXIT_BLOWUP
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
