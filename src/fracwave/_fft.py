"""Thin wrappers around scipy.fft used by the structured-matrix kernels.

Two concerns are centralized here:

* a process-wide worker count so the CLI ``--threads`` flag reaches every
  transform without threading state through each call site, and
* an optional transform counter used by tests to assert FFT budgets
  (the fast Toeplitz solve must cost exactly four FFTs of length
  next_fast_len(N)).

Convention used throughout the project: the forward transform is
unnormalized and the inverse carries the 1/N factor (numpy/scipy default).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import scipy.fft as _sfft

from .errors import ValidationError

_WORKERS: int = 1


def set_fft_workers(workers: int) -> None:
    """Cap the number of threads scipy.fft may use for the heavy transforms."""
    global _WORKERS
    cap = os.cpu_count() or 1
    if not 1 <= workers <= cap:
        raise ValidationError(
            f"FFT worker count must lie in [1, {cap}] (the CPU count), got {workers}")
    _WORKERS = int(workers)


@dataclass
class FftCounter:
    """Counts 1D complex transforms executed through this module.

    ``calls`` counts invocations; ``transforms`` counts individual 1D
    transforms (a batched call over k columns adds k). Disabled by default
    so the hot path pays only an attribute check.
    """

    enabled: bool = False
    calls: int = 0
    transforms: int = 0

    def reset(self) -> None:
        self.calls = 0
        self.transforms = 0


COUNTER = FftCounter()


def _count(x, axis: int) -> None:
    COUNTER.calls += 1
    COUNTER.transforms += x.size // x.shape[axis]


def cfft(x, axis: int = 0, n: int | None = None, overwrite_x: bool = False):
    """Counted complex FFT along ``axis``, zero-padded to ``n`` when given.
    ``overwrite_x`` lets a complex input be transformed in place."""
    if COUNTER.enabled:
        _count(x, axis)
    return _sfft.fft(x, n=n, axis=axis, overwrite_x=overwrite_x, workers=_WORKERS)


def cifft(x, axis: int = 0, overwrite_x: bool = False):
    """Counted complex inverse FFT along ``axis``."""
    if COUNTER.enabled:
        _count(x, axis)
    return _sfft.ifft(x, axis=axis, overwrite_x=overwrite_x, workers=_WORKERS)


def rfft(x, axis: int = 0, n: int | None = None):
    """Real FFT along ``axis``, zero-padded to ``n`` when given."""
    return _sfft.rfft(x, n=n, axis=axis, workers=_WORKERS)


def irfft(x, n: int, axis: int = 0):
    return _sfft.irfft(x, n=n, axis=axis, workers=_WORKERS)


def rfft2(x):
    return _sfft.rfft2(x, workers=_WORKERS)


def dct_type1_inplace(x, axis: int = -1):
    """Unnormalized DCT-I along ``axis``; a contiguous float64 ``x`` is
    overwritten with the result, which is also returned."""
    return _sfft.dct(x, type=1, axis=axis, overwrite_x=True, workers=_WORKERS)


def dst_type1_ortho(x, axes):
    return _sfft.dstn(x, type=1, norm="ortho", axes=axes, workers=_WORKERS)


def next_fast_len(target: int) -> int:
    """Smallest FFT-friendly length >= target for complex transforms."""
    return _sfft.next_fast_len(target)


def next_fast_real_len(target: int) -> int:
    """Smallest FFT-friendly length >= target for real-input transforms."""
    return _sfft.next_fast_len(target, real=True)
