#!/usr/bin/env python3
"""Dump the solution surfaces behind the published snapshot figures.

Ring model (sine forcing): surfaces at t = 1.25, 2.50, 3.75, 5.00 with
tau = 1/100, h = 1/40, for alpha in {1.1, 1.5, 1.9}. The published figure
is captioned sin(u/2) while the surrounding text says sin(u); this script
defaults to the caption and takes --surface to pick either (or raw u).

Cubic model: u itself at t = 2, 4, 6, 8, same step sizes.

Files land in --out-dir as <prefix>_t<time>.csv (or .f64/.meta with
--format raw) next to each run's <prefix>_summary.txt, where <prefix> is
<ring|cubic>_alpha<alpha>. Full scale is N = 799 and 500/800 steps per
order: minutes per alpha. --quick switches to h = 1/10 for a fast smoke run.
"""

import argparse
import sys

from fracwave.cli import main as fracwave_main
from fracwave.snapshots import SURFACE_NAMES

RING_TIMES = "1.25,2.5,3.75,5"
CUBIC_TIMES = "2,4,6,8"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--figure", choices=["ring", "cubic", "all"],
                    default="all")
    ap.add_argument("--alphas", default="1.1,1.5,1.9")
    ap.add_argument("--surface", choices=SURFACE_NAMES,
                    default="sin_half_u",
                    help="surface transform for the ring figure")
    ap.add_argument("--format", choices=["csv", "raw"], default="raw")
    ap.add_argument("--out-dir", default="figures")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="coarse grid (h = 1/10) for a fast smoke run")
    args = ap.parse_args(argv)

    grid = ["--h", "1/10"] if args.quick else []
    jobs = []
    if args.figure in ("ring", "all"):
        jobs += [("sine-gordon", RING_TIMES, args.surface, "ring")]
    if args.figure in ("cubic", "all"):
        jobs += [("klein-gordon", CUBIC_TIMES, "u", "cubic")]

    for alpha in args.alphas.split(","):
        alpha = alpha.strip()
        for example, times, surface, tag in jobs:
            prefix = f"{tag}_alpha{alpha}"
            print(f"== {example} alpha={alpha} -> {args.out_dir}/{prefix}_t*")
            rc = fracwave_main([
                "solve", "--example", example, "--alpha", alpha, *grid,
                "--snapshots", times, "--surface", surface,
                "--format", args.format, "--prefix", prefix,
                "--summary", f"{prefix}_summary.txt",
                "--threads", str(args.threads),
                "--out-dir", args.out_dir,
            ])
            if rc != 0:
                return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
