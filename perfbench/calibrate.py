"""Scaling measured times to a fixed reference machine speed.

Shared two-vCPU machines change speed by up to 1.8x in phases that last
seconds to minutes (other tenants load the same cores), which on its own
spreads a 10-second median by 25-35 % from run to run.  The benchmark
therefore times a reference between ops (at least every PROBE_EVERY_S) and
scales each op's time by the reference's nominal time divided by the
reference times measured just before and after it.

In-process ops are scaled by `probe`, a pure-Python numerics kernel of the
same kind as the library (a Halley iteration with `math.exp`, attribute
reads, calls and a raised and caught exception); reported times are then
"seconds on a CPU that runs the kernel in REF_NOMINAL_S".  On the machine
the benchmark was written on, op time over kernel time moved by 2-3 %
between 1-second windows while raw op time moved by 25 %.  CLI processes
are scaled by the start of a bare interpreter instead (see run.py), which
tracks process start-up better than the kernel does.  Neither reference
touches the package, so no change to the program can move it.  The raw
times are recorded beside the scaled ones.
"""

from __future__ import annotations

import math
import time
from array import array

REF_NOMINAL_S = 100e-6
PROBE_EVERY_S = 0.01
clock = time.perf_counter


class _Coeffs:
    __slots__ = ("scale", "shift")

    def __init__(self, scale: float, shift: float):
        self.scale = scale
        self.shift = shift


def _halley(x: float, k: _Coeffs) -> float:
    # Solves w*e^w = k.scale*x + k.shift for the principal branch.
    target = k.scale * x + k.shift
    w = math.log1p(target)
    for _ in range(40):
        ew = math.exp(w)
        r = w * ew - target
        if abs(r) <= 1e-14 * (1.0 + abs(target)):
            break
        wp1 = w + 1.0
        w -= r / (ew * wp1 - (w + 2.0) * r / (2.0 * wp1))
    return w


def kernel() -> float:
    k = _Coeffs(1.0, 0.5)
    acc = 0.0
    for i in range(48):
        try:
            w = _halley(1.0 + 37.0 * i, k)
            if i % 8 == 7:
                raise ArithmeticError(i)
        except ArithmeticError:
            w = 0.0
        acc += math.log(abs(w) + 1.0)
    return acc


def probe() -> float:
    """Reference time now: the fastest of three back-to-back kernel runs."""
    best = math.inf
    for _ in range(3):
        t0 = clock()
        kernel()
        best = min(best, clock() - t0)
    return best


class ScaledTimer:
    """Times calls one after another and scales each to the reference speed.

    Each call's time is multiplied by `nominal` over the mean of the
    reference times `reference()` measured just before and just after it.
    """

    def __init__(self, reference=probe, nominal: float = REF_NOMINAL_S):
        self.raw = array("d")
        self._reference = reference
        self._nominal = nominal
        self._segment = array("i")
        self._refs = array("d", [reference()])
        self._last = clock()

    def time(self, fn, *args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        t1 = clock()
        self.raw.append(t1 - t0)
        self._segment.append(len(self._refs) - 1)
        if t1 - self._last >= PROBE_EVERY_S:
            self._refs.append(self._reference())
            self._last = clock()
        return out

    def scales(self) -> list[float]:
        """Per call, the factor from raw to reference-speed time."""
        if len(self._segment) and self._segment[-1] == len(self._refs) - 1:
            self._refs.append(self._reference())
        refs = self._refs
        return [2.0 * self._nominal / (refs[s] + refs[s + 1]) for s in self._segment]

    def scaled(self) -> list[float]:
        return [t * f for t, f in zip(self.raw, self.scales())]
