"""A clock that advances at the host's measured speed.

The shared 2-vCPU host this benchmark was built on switches between a
fast and a slow speed (about 1.6x apart) every few seconds, with
neighbours' load, so the same op reads 0.55 s or 0.95 s of wall time
depending on when it ran.  A :class:`RefClock` samples the host's
speed every :data:`INTERVAL` seconds with a fixed pure-Python probe
(binary-tree inserts and dict updates, the kind of work the compiler
does) and advances by wall time x :data:`REFERENCE_S` / probe time.
An op then reads about the same on it whether the host was fast or
slow, and about its wall time when the host runs at reference speed.

The samples come from a ``SIGALRM`` interval timer, so the clock must
run in the main thread; the probes cost about 3% of the wall time,
inside whatever the program was doing when the timer fired.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager

#: seconds between speed samples
INTERVAL = 0.1
#: the probe's time on the reference host: the fast speed of the 2-vCPU
#: host the benchmark was built on, where the probe took 1.8-3.6 ms
REFERENCE_S = 0.002
PROBE_INSERTS = 2000


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key: int):
        self.key = key
        self.left = None
        self.right = None


def probe() -> float:
    """Seconds taken by a fixed amount of interpreter work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        root = _Node(0)
        table = {}
        x = 12345
        for _ in range(PROBE_INSERTS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = x % 50021
            node = root
            while True:
                if key < node.key:
                    if node.left is None:
                        node.left = _Node(key)
                        break
                    node = node.left
                else:
                    if node.right is None:
                        node.right = _Node(key)
                        break
                    node = node.right
            table[key & 1023] = table.get(key & 1023, 0) + 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Reference seconds: wall time scaled by the latest speed sample."""

    def __init__(self) -> None:
        self._base = 0.0
        self._mark = time.perf_counter()
        self._rate = 1.0

    def now(self) -> float:
        return self._base + (time.perf_counter() - self._mark) * self._rate

    def _sample(self, signum=None, frame=None) -> None:
        self._base = self.now()
        self._mark = time.perf_counter()
        self._rate = REFERENCE_S / probe()

    @contextmanager
    def running(self):
        """Sample the host's speed while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
