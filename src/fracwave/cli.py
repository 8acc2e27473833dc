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
``selftest`` exits 1 when a check fails; running out of memory exits 2.
Runs are planned by ``harness.plan_run``. ``solve`` and the studies write
into ``--out-dir`` (default the current directory); every file a command
writes is checked by ``harness.prepare_outputs`` before any directory is
made or any operator or coefficient computed.

All numeric flags accept plain decimals or p/q fractions (``--tau 1/100``);
join a value such as -1e1 or -1/2 to its flag with ``=`` (``--a=-1/2``).
Runs are seed-free and deterministic: identical flags and thread count give
byte-identical snapshots, summaries and tables, except for the wall-clock
measurements: summary lines prefixed ``# timing`` and the study tables'
``cpu_setup``, ``cpu_loop`` and ``cpu_seconds`` columns.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import _fft
from .coeffs import (OVERSAMPLING, laplacian_coeffs_2d, riesz_coeffs_1d,
                     sampling_size, validate_alpha)
from .errors import BlowUpError, SolverError, ValidationError
from .harness import (
    EnergyTrace,
    RunPlan,
    StudySpec,
    discrete_energy,
    inner_product,
    plan_run,
    prepare_outputs,
    run_study,
)
from .problems import (
    CUSTOM_INITIAL_DATA,
    EXAMPLE_NAMES,
    FIGURE_STEPS,
    NONLINEARITY_NAMES,
    Grid2D,
    Problem,
    example_problem,
    paper_runs,
)
from .selftest import run_selftest
from .snapshots import (
    SNAPSHOT_SUFFIXES,
    SURFACE_NAMES,
    apply_surface,
    snapshot_files,
    write_index_csv,
    write_snapshot_csv,
    write_snapshot_raw,
)
from .stepper import MAX_GRID_N, SCHEME_NAMES, build_operators, run

log = logging.getLogger("fracwave")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_BLOWUP = 4
EXIT_IO = 5


class _Parser(argparse.ArgumentParser):
    """Names the '=' form when a flag's value, e.g. -1e1, was taken for a flag."""
    def error(self, message):
        if message.endswith("expected one argument"):
            message += ("; join a value that starts with '-' to its flag "
                        "with '=', e.g. --a=-1e1")
        super().error(message)


def _fraction(text: str) -> float:
    """Parse a finite decimal or a p/q fraction (the benchmark steps are
    naturally fractions like 1/40)."""
    text = text.strip()
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"number must be finite, got {text!r}")
    return value


def _fraction_list(text: str) -> tuple[float, ...]:
    """Parse comma-separated numbers; empty entries are skipped."""
    return tuple(_fraction(t) for t in text.split(",") if t.strip())


def _add_common_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--example", choices=EXAMPLE_NAMES, default=None,
                   help="built-in benchmark problem on (-10, 10)^2")
    p.add_argument("--alpha", type=_fraction, default=None,
                   help="fractional order in (1, 2)")
    p.add_argument("--kappa", type=_fraction, default=1.0,
                   help="diffusion strength kappa >= 0 (default 1)")


def _add_custom_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=_fraction, default=-10.0,
                   help="domain lower edge (custom problems; default -10)")
    p.add_argument("--b", type=_fraction, default=10.0,
                   help="domain upper edge (custom problems; default 10)")
    p.add_argument("--nonlinearity", choices=NONLINEARITY_NAMES, default="zero",
                   help="pointwise source term g(u) (custom problems)")
    p.add_argument("--initial", choices=tuple(CUSTOM_INITIAL_DATA), default="ring",
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
    p.add_argument("--threads", type=int, default=1,
                   help="FFT worker threads, at most the CPU count (default 1)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default=None,
                   help="output directory (default '.')")
    p.add_argument("--verbose", action="store_true",
                   help="log per-run progress to stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    solve.add_argument("--snapshots", type=_fraction_list, default=(),
                       help="comma-separated output times; each must land on a "
                            "time step (fractions allowed)")
    solve.add_argument("--surface", choices=SURFACE_NAMES, default="u",
                       help="pointwise transform applied to snapshot fields "
                            "(default u)")
    solve.add_argument("--format", choices=tuple(SNAPSHOT_SUFFIXES), default="csv",
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
        st.add_argument("--example", choices=EXAMPLE_NAMES, default=None)
        st.add_argument("--scheme", choices=SCHEME_NAMES + ("both",), default=None)
        st.add_argument("--alphas", type=_fraction_list, default=None,
                        help="comma-separated fractional orders (default 1.1,1.5,1.9)")
        st.add_argument("--kappa", type=_fraction, default=None)
        # the halving list fills StudySpec.steps, the fixed step .fixed
        if axis == "time":
            st.add_argument("--taus", type=_fraction_list, default=None,
                            dest="steps", metavar="TAUS",
                            help="halving list of time steps")
            st.add_argument("--h", type=_fraction, default=None,
                            dest="fixed", metavar="H", help="fixed grid spacing")
        else:
            st.add_argument("--hs", type=_fraction_list, default=None,
                            dest="steps", metavar="HS",
                            help="halving list of grid spacings")
            st.add_argument("--tau", type=_fraction, default=None,
                            dest="fixed", metavar="TAU", help="fixed time step")
        st.add_argument("--t-final", type=_fraction, default=None)
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
    co.add_argument("--oversampling", type=int, default=OVERSAMPLING)
    co.add_argument("--out", default="-",
                    help="output file, or '-' for stdout (default '-')")

    sub.add_parser(
        "selftest", help="run the built-in consistency suite",
        description="Run the deterministic built-in checks; exits 1 on failure.")

    return parser


def _build_problem(args) -> Problem:
    if args.alpha is None:
        raise ValidationError("--alpha is required")
    if args.example is not None:
        return example_problem(args.example, args.alpha, kappa=args.kappa)
    phi1, phi2 = CUSTOM_INITIAL_DATA[args.initial]
    return Problem(a=args.a, b=args.b, alpha=args.alpha, kappa=args.kappa,
                   nonlinearity=args.nonlinearity, phi1=phi1, phi2=phi2)


def _solve_defaults(args) -> tuple[float, float, float]:
    """(tau, h, t_final): the flags, else the figures' steps and the horizon."""
    tau, h = FIGURE_STEPS
    return (tau if args.tau is None else args.tau,
            h if args.h is None else args.h,
            paper_runs(args.example)[0] if args.t_final is None else args.t_final)


def _snapshot_steps(times: tuple[float, ...], plan: RunPlan) -> dict[int, str]:
    """Map requested snapshot times to the plan's steps, refusing two steps
    whose file labels coincide."""
    first: dict[str, tuple[int, float]] = {}  # label -> (step, time)
    for t_req in times:
        k = plan.step_of(t_req, "snapshot time")
        label = f"{t_req:g}"
        k_first, t_first = first.setdefault(label, (k, t_req))
        if k_first != k:
            raise ValidationError(
                f"snapshot times {t_first!r} and {t_req!r} lie on different "
                f"steps but share the file label t{label}")
    return {k: label for label, (k, _) in first.items()}


def _cmd_solve(args) -> int:
    outdir = Path(args.out_dir or ".")
    problem = _build_problem(args)
    tau, h, t_final = _solve_defaults(args)
    grid = (Grid2D(problem.a, problem.b, args.n) if args.n is not None
            else Grid2D.from_spacing(problem.a, problem.b, h))
    plan = plan_run(problem, grid, tau, t_final)
    snaps = {k: outdir / f"{args.prefix}_t{label}"  # step -> file stem
             for k, label in _snapshot_steps(args.snapshots, plan).items()}
    summary = os.path.join(outdir, args.summary)
    with _fft.fft_workers(args.threads):
        prepare_outputs([summary] + [path for base in snaps.values() for path
                                     in snapshot_files(base, args.snapshot_format)])
        log.info("solve: %s alpha=%g scheme=%s N=%d h=%g tau=%g steps=%d",
                 problem.label, problem.alpha, args.scheme, grid.n, grid.h, tau,
                 plan.steps)

        t0 = time.perf_counter()
        ops = build_operators(problem, grid, tau)
        build_seconds = time.perf_counter() - t0

        def write_snap(field_values: np.ndarray, base: Path, t_actual: float) -> None:
            surf = apply_surface(args.surface, field_values)
            if args.snapshot_format == "csv":
                write_snapshot_csv(*snapshot_files(base, "csv"), surf)
            else:
                write_snapshot_raw(base, surf, h=grid.h, t=t_actual,
                                   alpha=problem.alpha, kappa=problem.kappa,
                                   nonlinearity=problem.nonlinearity,
                                   surface=args.surface)

        track_energy = problem.nonlinearity == "zero"
        energies: list[float] = []

        def recorder(state) -> None:
            if state.step_index == 1 and 0 in snaps:  # u^0 as the first step sampled it
                write_snap(state.u_prev, snaps[0], 0.0)
            if track_energy:
                energies.append(discrete_energy(state, ops))
            base = snaps.get(state.step_index)
            if base is not None:
                write_snap(state.u_curr, base, state.time)

        state, info = run(*plan, scheme=args.scheme, recorder=recorder, ops=ops)
        info.setup_seconds += build_seconds  # run timed the solver build

        u = state.u_curr
        lines = [
            f"problem = {problem.label}",
            f"nonlinearity = {problem.nonlinearity}",
            f"alpha = {problem.alpha:g}",
            f"kappa = {problem.kappa:g}",
            f"domain = ({problem.a:g}, {problem.b:g})",
            f"scheme = {args.scheme}",
            f"n = {grid.n}",
            f"h = {grid.h:.12g}",
            f"tau = {tau:.12g}",
            f"steps = {plan.steps}",
            f"t_final = {state.time:.12g}",
            f"final_max_abs = {float(np.max(np.abs(u))):.12e}",
            f"final_l2h_norm = {np.sqrt(inner_product('l2', u, u, ops)):.12e}",
            f"final_energy_seminorm = {np.sqrt(max(inner_product('A', u, u, ops), 0.0)):.12e}",
            f"snapshots_written = {len(snaps)}",
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
        Path(summary).write_text(report)
        sys.stdout.write(report)
        return EXIT_OK


def _cmd_study(args) -> int:
    # every StudySpec field is a study flag; a flag left out keeps its default
    spec = StudySpec(**{f.name: getattr(args, f.name) for f in fields(StudySpec)
                        if getattr(args, f.name) is not None})
    out_path = (args.out if args.out is not None
                else Path(args.out_dir or ".") / f"study_{args.axis}.csv")
    rows = run_study(spec, out_path)
    sys.stderr.write(f"wrote {len(rows)} rows to {out_path}\n")
    return EXIT_OK


def _cmd_coeffs(args) -> int:
    if not 1 <= args.count <= MAX_GRID_N:
        raise ValidationError(
            f"--count must lie in [1, {MAX_GRID_N}], got {args.count}")
    validate_alpha(args.alpha, allow_classical=True)  # before any directory
    if args.kind == "2d":
        sampling_size(args.count, args.oversampling)
    if args.out != "-":
        prepare_outputs([args.out])
    if args.kind == "1d":
        table = riesz_coeffs_1d(args.alpha, args.count)[:, None]
    else:
        table = laplacian_coeffs_2d(args.alpha, args.count,
                                    oversampling=args.oversampling)
    if args.out == "-":
        write_index_csv(sys.stdout, table, base=0)
    else:
        with open(args.out, "w") as fh:
            write_index_csv(fh, table, base=0)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    ok, report = run_selftest()
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
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
