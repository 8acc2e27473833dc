#!/usr/bin/env python3
"""fracwave benchmark: one workload per process, end to end or traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ring-sadi --seed 0 --seconds 40 --trace 0

The program is imported from ``src/`` next to this directory and nowhere
else. Units of work (one solve each) repeat until the
next one would end after ``--seconds``; at least ``min_units`` always run.

``--trace 0`` prints the end-to-end metrics, measured with no tracing.
``--trace 1`` spends half the time on untraced units and half on traced
ones, prints the per-layer metrics, and reports the tracing overhead as the
difference of the two median unit times. The last stdout line is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Details, the environment record and the spans of a traced run
are written under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program():
    """Import fracwave from the checkout's ``src/``; None when it is absent."""
    if not (SRC / "fracwave" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import fracwave

    return fracwave


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _git_sha() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref)
        if not sha:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown (not a git checkout)"


def environment(fw, numpy, scipy) -> dict:
    cpu_model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = {"size": _read(index / "size"),
                                   "shared_cpu_list": _read(index / "shared_cpu_list")}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "l2_per_core": caches.get("L2", {}).get("size", "unknown"),
        "llc_reported": caches[max(caches)] if caches else "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fracwave": fw.__version__,
        "fft_workers": fw._fft._WORKERS,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_sha": _git_sha(),
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process image (VmHWM), in MiB."""
    for line in _read(Path("/proc/self/status")).splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, min_units: int, failures: list):
    """Run units until the next would overrun ``seconds``, at least
    ``min_units`` of them. Returns the timed results and the counts of
    units attempted and failed; failure messages go to ``failures``."""
    from workloads import FAILURES

    results, attempted, failed = [], 0, 0
    start = perf_counter()
    while True:
        t = perf_counter()
        attempted += 1
        try:
            result = workload.unit(seed, OUT)
        except FAILURES as exc:
            failures.append(f"unit {attempted}: {type(exc).__name__}: {exc}")
            failed += 1
        else:
            failures.extend(f"unit {attempted}: {f}" for f in result.failures)
            failed += bool(result.failures)
            results.append(result)
        now = perf_counter()
        if attempted >= min_units and now - start + (now - t) > seconds:
            return results, attempted, failed


def end_to_end(workload, results) -> dict:
    steps = [ms for r in results for ms in r.step_ms]
    beyond = len(steps) * (1.0 - workload.tail_pct / 100.0)
    if beyond < 10:
        raise RuntimeError(f"{len(steps)} steps leave {beyond:.1f} beyond "
                           f"p{workload.tail_pct}; raise min_units")
    tail = statistics.quantiles(steps, n=100, method="inclusive")[workload.tail_pct - 1]
    return {
        "setup_s": (statistics.median(r.setup_s for r in results), "s"),
        "step_ms.p50": (statistics.median(steps), "ms"),
        "step_ms.tail": (tail, "ms"),
        "total_s": (statistics.median(r.total_s for r in results), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def per_layer(totals: dict, units: int, base_s: float, overhead_s: float) -> dict:
    """Per-layer metrics from traced spans over ``units`` units whose summed
    time is ``base_s``. Calls and counters are per unit; ``ms`` and ``s``
    are mean inclusive time per call; shares are self time over ``base_s``."""

    def layer(name):
        return totals.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    def per_call(name, scale):
        t = layer(name)
        return t["incl_s"] / t["calls"] * scale if t["calls"] else 0.0

    def per_unit(name, key):
        return layer(name).get(key, 0) / units

    def bytes_per_call(name):
        t = layer(name)
        return t.get("bytes", 0) / t["calls"] if t["calls"] else 0.0

    def share(name):
        return layer(name)["self_s"] / base_s

    step = layer("stepper.step")
    return {
        "coeffs.laplacian_coeffs_2d.s": (per_call("coeffs.laplacian_coeffs_2d", 1.0), "s"),
        "structured.bttb_build.s": (per_call("structured.bttb_build", 1.0), "s"),
        "structured.gs_precompute.s": (per_call("structured.gs_precompute", 1.0), "s"),
        "structured.bttb_apply.calls": (per_unit("structured.bttb_apply", "calls"), "count"),
        "structured.bttb_apply.ms": (per_call("structured.bttb_apply", 1e3), "ms"),
        "structured.bttb_apply.self_share": (share("structured.bttb_apply"), "ratio"),
        "structured.bttb_apply.bytes_computed": (bytes_per_call("structured.bttb_apply"), "B"),
        "structured.gs_solve.calls": (per_unit("structured.gs_solve", "calls"), "count"),
        "structured.gs_solve.ms": (per_call("structured.gs_solve", 1e3), "ms"),
        "structured.gs_solve.self_share": (share("structured.gs_solve"), "ratio"),
        "structured.gs_solve.fft_calls": (per_unit("structured.gs_solve", "fft_calls"), "count"),
        "structured.gs_solve.bytes_computed": (bytes_per_call("structured.gs_solve"), "B"),
        "stepper.adi_solve.ms": (per_call("stepper.adi_solve", 1e3), "ms"),
        "structured.tau_apply.calls": (per_unit("structured.tau_apply", "calls"), "count"),
        "structured.tau_apply.ms": (per_call("structured.tau_apply", 1e3), "ms"),
        "structured.pcg.ms": (per_call("structured.pcg", 1e3), "ms"),
        "structured.pcg.iters": (per_unit("structured.pcg", "iters"), "count"),
        "harness.discrete_energy.ms": (per_call("harness.discrete_energy", 1e3), "ms"),
        "stepper.rhs_general.ms": (per_call("stepper.rhs_general", 1e3), "ms"),
        "stepper.step.self_ms": (
            step["self_s"] / step["calls"] * 1e3 if step["calls"] else 0.0, "ms"),
        "problems.g.ms": (per_call("problems.g", 1e3), "ms"),
        "snapshots.write_snapshot_raw.ms": (per_call("snapshots.write_snapshot_raw", 1e3), "ms"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # One BLAS thread as well as one FFT worker: an idle OpenBLAS thread
    # spins on the second core and makes the timings depend on what else
    # runs there. Set before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    fw = _import_program()
    if fw is None:
        sys.stderr.write(f"error: no fracwave sources under {SRC}\n")
        return 2
    import numpy
    import scipy

    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"known: {', '.join(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload]
    fw._fft.set_fft_workers(1)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"

    failures: list[str] = []
    if args.trace == 0:
        results, attempted, failed = measure(workload, args.seed, args.seconds,
                                             workload.min_units, failures)
    else:
        half = args.seconds / 2.0
        plain, n_plain, f_plain = measure(workload, args.seed, half, 1, failures)
        with Tracer(fw) as tracer:
            results, n_traced, f_traced = measure(workload, args.seed, half, 1, failures)
        attempted, failed = n_plain + n_traced, f_plain + f_traced
    if not results or (args.trace and not plain):
        sys.stderr.write("error: every unit failed\n" + "\n".join(failures) + "\n")
        return 1
    if args.trace == 0:
        metrics = end_to_end(workload, results)
    else:
        overhead = (statistics.median(r.total_s for r in results)
                    - statistics.median(r.total_s for r in plain))
        metrics = per_layer(tracer.layer_totals(), len(results),
                            sum(r.total_s for r in results), overhead)
        tracer.write(f"{stem}-spans.json")

    env = environment(fw, numpy, scipy)
    why = {w["name"]: w["why"] for w in
           json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    record = {"workload": workload.name, "why": why[workload.name], "seed": args.seed,
              "trace": args.trace, "tail_pct": workload.tail_pct,
              "unit_total_s": [r.total_s for r in results],
              "unit_setup_s": [r.setup_s for r in results],
              "attempted": attempted,
              "failed": failed, "failures": failures, "environment": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in failures:
        sys.stderr.write(f"check failed: {line}\n")
    print("# env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
