#!/usr/bin/env python3
"""Reproduce the published error/order tables end to end.

Four benchmark tables are covered:

  1  ring model,  time refinement   (h = 1/40,  tau = 1/10 ... 1/80, t = 5)
  2  ring model,  space refinement  (tau = 1/100, h = 1 ... 1/8,     t = 5)
  3  cubic model, time refinement   (h = 1/50,  tau = 4/25 ... 1/50, t = 8)
  4  cubic model, space refinement  (tau = 1/125, h = 2/5 ... 1/20,  t = 8)

These are the study defaults of (example, axis) in fracwave.problems.PAPER_RUNS.
Each table is written as a CSV (columns: scheme, alpha, step, error, order,
cpu_setup, cpu_loop, cpu_seconds) and echoed to stdout. Running everything
with --scheme both at full scale takes on the order of an hour or two on a
single core; pass --table and --scheme to trim the workload, or --alphas to
restrict the fractional orders.
"""

import argparse
import sys
from pathlib import Path

from fracwave.harness import StudySpec, parse_number_list, run_study
from fracwave.stepper import SCHEME_NAMES

TABLES = {"1": ("sine-gordon", "time"), "2": ("sine-gordon", "space"),
          "3": ("klein-gordon", "time"), "4": ("klein-gordon", "space")}


def echo(rows) -> None:
    print(f"{'scheme':8s} {'alpha':5s} {'step':>9s} {'error':>12s} "
          f"{'order':>7s} {'cpu':>8s}")
    for r in rows:
        order = f"{r.order:.4f}" if r.order is not None else "-"
        print(f"{r.scheme:8s} {r.alpha:<5g} {r.step:>9.6g} {r.error:>12.4e} "
              f"{order:>7s} {r.cpu_seconds:>8.2f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--table", choices=[*TABLES, "all"], default="all")
    ap.add_argument("--scheme", choices=SCHEME_NAMES + ("both",),
                    default="both")
    ap.add_argument("--alphas", type=parse_number_list)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out-dir", default="tables")
    args = ap.parse_args(argv)

    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = list(TABLES) if args.table == "all" else [args.table]
    for name in names:
        example, axis = TABLES[name]
        spec = StudySpec(axis=axis, example=example, scheme=args.scheme,
                         alphas=(StudySpec.alphas if args.alphas is None
                                 else args.alphas),
                         threads=args.threads)
        out = outdir / f"table{name}.csv"
        print(f"== table {name} -> {out}")
        rows = run_study(spec, out)
        echo(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
