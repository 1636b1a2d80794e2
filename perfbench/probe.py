"""Machine-speed probe used to normalize the benchmark's timings.

Shared hosts change speed by up to 2x over seconds to minutes, with no
steal time visible to the guest and CPU time equal to wall time, so raw
timings of one commit spread by 10-25% across runs.  The drift is mostly
interpreter speed: normalizing 2-second blocks of scalar and batched
marching by a pure-Python RK4 loop cut their spread from 31% to 8-11%,
against 12-13% for a probe that was one third numpy streaming.

``SpeedProbe`` is therefore a frozen copy of a scalar RK4 march through
the quartic well (the interpreter-bound kind of work the workloads do)
plus a short in-place stream over 3.2 MB.  It never calls hetclaw, so no
change to the library can move it.  A latency times
``NOMINAL_S / probe time`` is that latency on a machine where the probe
takes NOMINAL_S.
"""

from __future__ import annotations

import signal
import time

import numpy as np


def _g_prime(x):
    y = 1.0 - x * x
    return 8.0 * x * y * y * y if y > 0.0 else 0.0


class SpeedProbe:
    """Callable returning the seconds one fixed probe pass takes now."""

    NOMINAL_S = 0.01
    STEPS = 8000

    def __init__(self):
        self._stream = np.linspace(0.0, 1.0, 400_000)

    def __call__(self) -> float:
        start = time.perf_counter()
        q, p, h = 0.0, 1.0, 1e-3
        for _ in range(self.STEPS):
            k1p = -_g_prime(q)
            k2q = p + 0.5 * h * k1p
            k2p = -_g_prime(q + 0.5 * h * p)
            k3q = p + 0.5 * h * k2p
            k3p = -_g_prime(q + 0.5 * h * k2q)
            k4q = p + h * k3p
            k4p = -_g_prime(q + h * k3q)
            q += h * (p + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0
            p += h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        b = self._stream
        for _ in range(2):
            np.multiply(b, 0.999, out=b)
            np.add(b, 0.0005, out=b)
        return time.perf_counter() - start


class SpeedClock:
    """Stopwatch that reads in seconds at the probe's nominal speed.

    While running, a SIGALRM timer interrupts the work every ``period``
    seconds to run the probe, so a long item is normalized by the speed
    measured during it, not only at its ends.  Each interval between two
    probes is scaled by NOMINAL_S over the mean of those probes; time
    spent probing is left out of both readings.  Signal handlers run
    between bytecodes in the main thread only, so the work is never
    interrupted inside a numpy call.
    """

    def __init__(self, probe: SpeedProbe, period: float = 0.25):
        """``period`` 0 probes only when the stopwatch starts and stops."""
        self.probe = probe
        self._period = period
        self.raw = self.norm = 0.0

    def _mark(self):
        t = time.perf_counter()
        p = self.probe()
        if self._last is not None:
            last_t, last_p = self._last
            self.raw += t - last_t
            self.norm += (t - last_t) * 2.0 * SpeedProbe.NOMINAL_S / (
                last_p + p)
        self._last = (time.perf_counter(), p)

    def _tick(self, signum, frame):
        self._mark()

    def __enter__(self):
        self.raw = self.norm = 0.0
        self._last = None
        self._mark()
        if self._period:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self._period, self._period)
        return self

    def __exit__(self, *exc):
        if self._period:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self._mark()
        return False
