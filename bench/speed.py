"""Interpreter speed from a fixed calibration kernel.

A shared 2-vCPU host can change speed by up to 1.6x within minutes, and
CPU time follows wall time, so raw seconds of two runs a few minutes apart
are not comparable.  The kernel below is fixed
pure-Python work shaped like the program's (dict lookups, str.translate, a
rolling hash into a set, an integer matrix product).  While an operation
runs, a SIGALRM handler in the same thread times one kernel every
INTERVAL_S of wall time; after it, kernels run for a short while more.  The
operation's seconds, less the handler's own time, are scaled by
REFERENCE_S / (mean kernel time): times are reported in seconds at the
speed where the kernel takes REFERENCE_S.  The mean, not the median, so
that time the host takes away in bursts counts in both.
"""

import signal
import time

REFERENCE_S = 0.0004  # kernel time on the reference machine
INTERVAL_S = 0.005    # sampling period while an operation runs
AFTER_S = 0.01        # sampling after an operation, at least 3 kernels


_TABLE = {i: (i * 7) % 31 for i in range(31)}
_WORD = tuple(range(31)) * 10
_TRANSLATE = {97: "ab", 98: "a"}
_SEEN = set()
_MATRIX = [[(i * j) % 5 for j in range(6)] for i in range(6)]


def kernel():
    """Seconds one round of the calibration work takes now.

    It allocates no object the garbage collector tracks, so sampling it
    inside an operation does not move the operation's collections."""
    start = time.perf_counter()
    acc = 0
    for a in _WORD:
        acc += _TABLE[a]
    s = ("ab" * 1000).translate(_TRANSLATE)
    mod, base, h = (1 << 61) - 1, 1_000_003, 0
    _SEEN.clear()
    for c in s[:600]:
        h = (h * base + ord(c)) % mod
        _SEEN.add(h)
    m = _MATRIX
    for i in range(6):
        row = m[i]
        for j in range(6):
            for k in range(6):
                acc += row[k] * m[k][j]
    return time.perf_counter() - start


def sample(budget):
    """Kernel times over about `budget` seconds, at least three."""
    times = [kernel() for _ in range(3)]
    end = time.perf_counter() + budget - sum(times)
    while time.perf_counter() < end:
        times.append(kernel())
    return times


class Probe:
    """Context manager that samples the kernel while its body runs.

    After the block, `raw_s` is the body's wall time less the handler's,
    and `scale` turns it into reference seconds."""

    def __init__(self):
        self.samples = []
        self.handler_s = 0.0
        self.raw_s = None
        self.scale = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel())
        self.handler_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = elapsed - self.handler_s
        self.samples += sample(AFTER_S)
        self.scale = REFERENCE_S * len(self.samples) / sum(self.samples)
        return False
