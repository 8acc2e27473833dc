"""Span tracing around the program's layer functions, installed from outside.

The tracer replaces each traced function wherever the ``fracwave`` package
and its modules hold a reference to it (``from .x import f`` copies the
name into the importing module, so patching one module is not enough), and
puts the originals back on exit. Spans stay in memory as
``[name, start, end, parent, counts]`` rows and are written out once, at
the end. A span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, attribute, span name). ``problems.g`` is handled separately: the
# nonlinearities are looked up in a registry dict at every step.
TRACED = (
    ("coeffs", "laplacian_coeffs_2d", "coeffs.laplacian_coeffs_2d"),
    ("structured", "bttb_build", "structured.bttb_build"),
    ("structured", "gs_precompute", "structured.gs_precompute"),
    ("structured", "bttb_apply", "structured.bttb_apply"),
    ("structured", "gs_solve", "structured.gs_solve"),
    ("structured", "tau_apply", "structured.tau_apply"),
    ("structured", "pcg", "structured.pcg"),
    ("stepper", "build_operators", "stepper.build_operators"),
    ("stepper", "run", "stepper.run"),
    ("stepper", "sadi_first_step", "stepper.step"),
    ("stepper", "sadi_step", "stepper.step"),
    ("stepper", "nonadi_first_step", "stepper.step"),
    ("stepper", "nonadi_step", "stepper.step"),
    ("stepper", "adi_solve", "stepper.adi_solve"),
    ("stepper", "rhs_general", "stepper.rhs_general"),
    ("harness", "discrete_energy", "harness.discrete_energy"),
    ("snapshots", "write_snapshot_raw", "snapshots.write_snapshot_raw"),
)


def _bttb_apply_bytes(op, u) -> int:
    # input, zero-padded copy, forward spectrum, spectrum product, inverse
    n, length = op.n, op.length
    half = length // 2 + 1
    return 8 * n * n + 8 * length * length + 2 * 16 * length * half + 8 * length * length


def _gs_solve_bytes(data, v) -> int:
    # one real input and output plus eleven complex elementwise or FFT passes
    # of the same shape (see structured.gs_solve and the (skew-)circulant
    # matvecs it calls)
    size = v.size
    return 8 * size + 11 * 16 * size + 8 * size


class Tracer:
    """Records spans for the functions in ``TRACED`` while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, count_before=None, count_after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, perf_counter(), 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(row)
            before = count_before(*args) if count_before else None
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()
            if count_after:
                row[4].update(count_after(before, args, result))
            return result

        return traced

    def _counters(self, attr):
        fft = self.package._fft.COUNTER
        if attr == "bttb_apply":
            return None, lambda _b, args, _r: {"bytes": _bttb_apply_bytes(*args[:2])}
        if attr == "gs_solve":
            return (lambda *_: fft.calls), lambda b, args, _r: {
                "fft_calls": fft.calls - b, "bytes": _gs_solve_bytes(*args[:2])}
        if attr == "pcg":
            return None, lambda _b, _a, result: {"iters": result[1].iterations}
        return None, None

    def __enter__(self) -> "Tracer":
        pkg = self.package
        modules = [pkg] + [m for k, m in sys.modules.items()
                           if k.startswith(pkg.__name__ + ".")]
        for mod_name, attr, span in TRACED:
            original = getattr(getattr(pkg, mod_name), attr)
            wrapper = self._wrap(span, original, *self._counters(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        registry = pkg.problems._REGISTRY
        for key, g in list(registry.items()):
            self._undo.append((registry, key, g))
            registry[key] = self._wrap("problems.g", g)
        pkg._fft.COUNTER.enabled = True
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()
        self.package._fft.COUNTER.enabled = False

    # ------------------------------------------------------------------
    # aggregation

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, summed counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict] = {}
        for i, (name, start, end, _, counts) in enumerate(self.spans):
            t = totals.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["incl_s"] += end - start
            t["self_s"] += end - start - child_time[i]
            for key, value in counts.items():
                t[key] = t.get(key, 0) + value
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans}, fh)
