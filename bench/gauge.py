"""Speed gauges of the host, and a pass clock that scales wall time by them.

On a shared host the speed of the CPUs changes in phases that last from
seconds to minutes: on a 2-vCPU Xeon guest, interpreter-bound code such as
``givens_qr``'s rotation loop ran at half speed for tens of seconds at a
time, so the wall time of one muscle-grid pass ranged from 2.2 to 4.6 s with
no change to the code.  A *gauge* is a fixed piece of work of one kind,
timed.  :class:`PassClock` runs the workload's gauge between stretches of a
pass and scales each stretch by the gauge's nominal time over its measured
time (the mean of the readings at the two ends of the stretch), so the
scaled pass time is the time the pass would take at the nominal speed.  The
gauge's own time is left out of both the wall and the scaled time.

The work of a gauge is the benchmark's, not the program's: a change to
``blockgs`` moves the stretches but not the gauge.  Nor do the program's
own BLAS threads move it much: on the same guest an older, longer version of
the ``interp`` gauge took a median 14.5 ms right after a two-thread product,
while the OpenBLAS worker still spun, and 13.9 ms once it slept.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_ROT_INPUT = np.random.default_rng(1).standard_normal((60, 4))
_STREAM: list[np.ndarray] = []  # source and target, 4 MB each, made on first use


def interp_gauge() -> None:
    """Plane rotations of a 60x4 array in a Python loop, as ``givens_qr``
    does: interpreter work around many tiny numpy calls."""
    for _ in range(6):
        a = _ROT_INPUT.copy()
        for j in range(4):
            for i in range(59, j, -1):
                f, g = a[i - 1, j], a[i, j]
                h = np.hypot(f, g)
                c, s = f / h, g / h
                rot = np.array([[c, s], [-s, c]])
                a[i - 1 : i + 1, j:] = rot @ a[i - 1 : i + 1, j:]


def stream_gauge() -> None:
    """Copies of a 4 MB array: memory traffic, as in the tall products.

    Its two arrays stay allocated, so they add 8 MB to the peak RSS of a
    process that uses this gauge."""
    if not _STREAM:
        _STREAM.extend((np.ones(1 << 19), np.empty(1 << 19)))
    src, dst = _STREAM
    for _ in range(8):
        np.copyto(dst, src)


# name -> (work, nominal seconds).  The nominal time is the median of the
# gauge's readings over long recordings on a 2-vCPU Xeon guest; it fixes the
# scale of the scaled time, not its variation.
GAUGES = {
    "interp": (interp_gauge, 0.0070),
    "stream": (stream_gauge, 0.0040),
}


def read(gauge: str) -> float:
    """Seconds one run of the gauge takes now."""
    start = time.perf_counter()
    GAUGES[gauge][0]()
    return time.perf_counter() - start


class PassClock:
    """Wall time of a pass and the same time scaled by a gauge.

    Call :meth:`start`, then :meth:`tick` as often as convenient (a gauge
    runs once ``every_s`` has passed since the last one), then :meth:`stop`.
    """

    def __init__(self, gauge: str, every_s: float = 0.25) -> None:
        self._gauge = gauge
        self._nominal_s = GAUGES[gauge][1]
        self._every_s = every_s
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.readings: list[float] = []

    def _read(self) -> float:
        reading = read(self._gauge)
        self.readings.append(reading)
        return reading

    def start(self) -> None:
        self._last = self._read()
        self._since = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._since >= self._every_s:
            self._cut()

    def stop(self) -> None:
        self._cut()

    def _cut(self) -> None:
        stretch = time.perf_counter() - self._since
        reading = self._read()
        self.wall_s += stretch
        self.scaled_s += stretch * self._nominal_s / ((self._last + reading) / 2)
        self._last = reading
        self._since = time.perf_counter()

    def median_reading(self) -> float:
        return statistics.median(self.readings)
