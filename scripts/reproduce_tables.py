#!/usr/bin/env python3
"""Reproduce the published error/order tables end to end.

Four benchmark tables are covered:

  1  ring model,  time refinement   (h = 1/40,  tau = 1/10 ... 1/80, t = 5)
  2  ring model,  space refinement  (tau = 1/100, h = 1 ... 1/8,     t = 5)
  3  cubic model, time refinement   (h = 1/50,  tau = 4/25 ... 1/50, t = 8)
  4  cubic model, space refinement  (tau = 1/125, h = 2/5 ... 1/20,  t = 8)

These are the study defaults of (example, axis) in fracwave.problems.PAPER_RUNS.
Each table is one `fracwave study-time` or `study-space` run, written as
--out-dir/table<K>.csv (columns: scheme, alpha, step, error, order,
cpu_setup, cpu_loop, cpu_seconds) and echoed to stdout; a refused table
exits with the command's code and makes no directory. Running everything
with --scheme both at full scale takes on the order of an hour or two on a
single core; pass --table and --scheme to trim the workload, or --alphas to
restrict the fractional orders.
"""

import argparse
import sys
from pathlib import Path

from fracwave.cli import main as fracwave_main

TABLES = {"1": ("sine-gordon", "time"), "2": ("sine-gordon", "space"),
          "3": ("klein-gordon", "time"), "4": ("klein-gordon", "space")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--table", choices=[*TABLES, "all"], default="all")
    ap.add_argument("--scheme", default="both",
                    help="sadi, nonadi or both (default both)")
    ap.add_argument("--alphas",
                    help="comma-separated fractional orders (default 1.1,1.5,1.9)")
    ap.add_argument("--threads", default="1")
    ap.add_argument("--out-dir", default="tables")
    args = ap.parse_args(argv)

    names = list(TABLES) if args.table == "all" else [args.table]
    alphas = [] if args.alphas is None else ["--alphas", args.alphas]
    for name in names:
        example, axis = TABLES[name]
        out = Path(args.out_dir) / f"table{name}.csv"
        print(f"== table {name} -> {out}", flush=True)
        rc = fracwave_main([
            f"study-{axis}", "--example", example, "--scheme", args.scheme,
            *alphas, "--threads", args.threads, "--out", str(out),
        ])
        if rc != 0:
            return rc
        print(out.read_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
