"""A fixed reference kernel that tracks the host's current speed.

On a shared virtual machine the CPU's speed drifts by a quarter or more
over seconds to minutes, and every timing drifts with it.  The benchmark
times this kernel between stretches of cells and scales each stretch's
times by `REFERENCE_S / kernel time`, so the times it reports are seconds
at the speed at which the kernel takes `REFERENCE_S`.  The kernel is the
same kind of work as the library's hot paths (small dense complex
matrices, dominated by per-call overhead) but never calls the library,
so no change to the library can move the scale.  Raw times are recorded
next to the scaled ones in each run's JSON.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Kernel time that defines the reported time scale (about the kernel's
#: time on an idle 2-core x86-64 virtual machine with OpenBLAS).
REFERENCE_S = 0.005

_ROUNDS = 20


def _matrices() -> list[np.ndarray]:
    rng = np.random.Generator(np.random.Philox(0))
    return [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(8)]


_MATRICES = _matrices()


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = perf_counter()
    for _ in range(_ROUNDS):
        for m in _MATRICES:
            np.linalg.eigh(m @ m.conj().T)
            np.linalg.inv(m)
            np.linalg.norm(m)
    return perf_counter() - t0


class Scaler:
    """Converts raw timings to reference seconds, stretch by stretch.

    Timings are collected until they add up to `stretch_s`; then the
    kernel runs and every timing of the stretch is scaled by REFERENCE_S
    over the mean of the kernel times before and after it, and handed to
    its callback.  The kernel's own time is in no timing."""

    def __init__(self, stretch_s: float):
        self.stretch_s = stretch_s
        self._kernel = kernel_seconds()
        self._pending: list = []
        self._pending_s = 0.0

    def add(self, raw_s: float, done) -> None:
        self._pending.append((raw_s, done))
        self._pending_s += raw_s
        if self._pending_s >= self.stretch_s:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        kernel = kernel_seconds()
        factor = REFERENCE_S / (0.5 * (self._kernel + kernel))
        for raw_s, done in self._pending:
            done(raw_s * factor)
        self._kernel = kernel
        self._pending, self._pending_s = [], 0.0
