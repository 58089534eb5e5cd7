"""Times normalized to the machine's speed at the moment they are taken.

On a shared host the speed of identical work drifts: a fixed loop runs in
one of two states, about 1.45x apart, that switch every tenth of a second
or so, and the share of time spent in the slow state wanders over minutes.
A wall time therefore says as much about the neighbours as about slq.

`Yardstick.timing()` times a block of work and, while it runs, samples the
machine's speed: an interval timer (SIGALRM, every INTERVAL seconds) runs a
fixed probe, independent of slq, and records how long it took.  The block's
time is then

    seconds = (wall - time spent in probes) * mean(ref / probe_i)

that is, the wall time the work would have taken at the speed where the
probe takes `ref`, its fast-state time on the reference machine
(README.md).  Samples are evenly spaced in wall time, so the mean of the
speed ratios is the average speed over the block.

Each probe runs its work twice or more and times only the later runs, so
that its time does not depend on what the workload left in the caches.

  * "solve" (the default): an RK45 solve of y'' = -y with scipy.  Against
    single shooting runs and single forms, the log of the workload's time
    follows the log of this probe's time with slope 0.8-1.1 and
    correlation 0.97-0.99.
  * "plain": a classical RK4 march of the same equation in plain Python.
    It tracks the workloads less closely (correlation 0.45-0.98) but
    imports nothing, so a fresh interpreter can time its first
    `import slq.cli` with it.

`Stopwatch` has the same interface and returns plain wall time; the traced
runs use it, so that no probe runs inside a traced span.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

INTERVAL = 0.1           # seconds between probes


def _rhs(t, y):
    return [y[1], -y[0]]


def _solve():
    from scipy.integrate import solve_ivp

    return solve_ivp(_rhs, (0.0, 2.0), [1.0, 0.0], rtol=1e-8, atol=1e-10)


def solve_probe():
    """Seconds taken by the second of two identical RK45 solves (scipy)."""
    _solve()
    t0 = time.perf_counter()
    _solve()
    return time.perf_counter() - t0


def _plain_rhs(y, v):
    return v, -y


def _rk4(steps=100, h=0.02):
    """Classical RK4 for y'' = -y in plain Python."""
    y, v = 1.0, 0.0
    for _ in range(steps):
        k1 = _plain_rhs(y, v)
        k2 = _plain_rhs(y + h / 2 * k1[0], v + h / 2 * k1[1])
        k3 = _plain_rhs(y + h / 2 * k2[0], v + h / 2 * k2[1])
        k4 = _plain_rhs(y + h * k3[0], v + h * k3[1])
        y += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return y


def plain_probe():
    """Seconds taken by eight RK4 runs in plain Python, after one untimed
    run; imports nothing."""
    _rk4()
    t0 = time.perf_counter()
    for _ in range(8):
        _rk4()
    return time.perf_counter() - t0


# name: (probe, its fast-state time on the reference machine, in seconds)
PROBES = {"solve": (solve_probe, 0.0013), "plain": (plain_probe, 0.0009)}


class Timing:
    """Result of one timed block, set when the block ends: `seconds`, and
    `wall`, the wall time of the work alone."""

    seconds = wall = None


class Stopwatch:
    """Plain wall time."""

    def __init__(self, probe=None):
        pass

    @contextmanager
    def timing(self):
        t = Timing()
        t0 = time.perf_counter()
        try:
            yield t
        finally:
            t.seconds = t.wall = time.perf_counter() - t0


class Yardstick(Stopwatch):
    """Wall time scaled to the reference speed (see the module docstring)."""

    def __init__(self, probe="solve", interval=INTERVAL):
        self.probe, self.ref = PROBES[probe]
        self.interval = interval
        self.samples = []
        self.probe_s = 0.0        # wall time spent in probes, warm-ups too
        self._busy = False
        self.probe()              # the first call pays for lazy imports

    def _probe(self, signum=None, frame=None):
        if self._busy:            # a probe slower than the interval
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.samples.append(self.probe())
            self.probe_s += time.perf_counter() - t0
        finally:
            self._busy = False

    @contextmanager
    def timing(self):
        t = Timing()
        self._probe()             # at least one sample, taken just before
        n0, p0 = len(self.samples), self.probe_s
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        t0 = time.perf_counter()
        try:
            yield t
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
            t.wall = wall - (self.probe_s - p0)
            speeds = [self.ref / s for s in self.samples[n0 - 1:]]
            t.seconds = t.wall * sum(speeds) / len(speeds)
