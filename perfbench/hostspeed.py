"""Host speed, measured with fixed reference kernels between operations.

The benchmark runs on a shared 2-vCPU host whose speed swings by up to 2.5x
over tens of seconds (other tenants; the guest sees no steal time, and the
process's own CPU time stretches with the wall time). A fixed reference
kernel, which shares no code with ``billiards``, is timed every ``EVERY_S``
seconds of a run. Durations are then reported at the reference speed: a
duration measured while the kernel took ``c`` seconds is multiplied by
``ref_s / c``. A change to ``billiards`` cannot move a kernel, so the
scaling cannot hide one.

Work done in this process is scaled by ``IN_PROCESS``: small-array numpy and
Python object work, like a bounce loop. Work done by child interpreters (the
``cli`` processes, the import in set-up) is scaled by ``CHILD``: a fresh
interpreter importing a few standard-library packages, because start-up and
imports slow down differently from in-process arithmetic.
"""

from __future__ import annotations

import bisect
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

EVERY_S = 0.2
WINDOW_S = 0.5

_M = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.2]])


def _arithmetic() -> None:
    """Tiny arrays, a reduction, a 3x3 solve, tuples appended to a list."""
    p = np.zeros(3)
    d = np.array([0.6, 0.8, 0.0])
    out = []
    for _ in range(120):
        q = np.asarray(p + 0.01 * d, dtype=float)
        if not np.all(np.isfinite(q)):
            raise ArithmeticError("reference kernel left the finite range")
        s = _M @ q - 1.0
        k = int(np.argmax(s))
        x = np.linalg.solve(_M, d)
        out.append((float(s[k]), k, tuple(x.tolist())))
        p = q


def _interpreter() -> None:
    """A fresh interpreter that imports a few standard-library packages."""
    subprocess.run([sys.executable, "-c", "import json, decimal, email.message"],
                   check=True, stdout=subprocess.DEVNULL)


@dataclass(frozen=True)
class Reference:
    kernel: Callable[[], None]
    ref_s: float  # the kernel's median time on the host the benchmark was defined on


IN_PROCESS = Reference(_arithmetic, 0.003)
CHILD = Reference(_interpreter, 0.09)


class HostSpeed:
    """Timings of one reference kernel during one run, at times measured
    from ``begin``."""

    def __init__(self, begin: float, reference: Reference = IN_PROCESS):
        self.begin = begin
        self.reference = reference
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self, force: bool = False) -> None:
        """Time the kernel once, unless the last sample is recent."""
        t0 = time.perf_counter() - self.begin
        if not force and self.times and t0 - self.times[-1] < EVERY_S:
            return
        c0 = time.perf_counter()
        self.reference.kernel()
        self.kernel_s.append(time.perf_counter() - c0)
        self.times.append(t0)

    def factor(self, t0: float, t1: float) -> float:
        """``ref_s`` over the mean kernel time of the samples within
        ``WINDOW_S`` of the interval ``[t0, t1]`` (or of the closest sample
        when none is that near): below one on a slow host."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if lo == hi:
            i = bisect.bisect_left(self.times, t0)
            if i == len(self.times) or (i > 0 and t0 - self.times[i - 1] < self.times[i] - t1):
                i -= 1
            lo, hi = i, i + 1
        return self.reference.ref_s * (hi - lo) / sum(self.kernel_s[lo:hi])

    def mean_factor(self) -> float:
        return self.reference.ref_s * len(self.kernel_s) / sum(self.kernel_s)
