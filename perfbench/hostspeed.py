"""Host-speed sampling: a fixed pure-Python kernel timed around and during
every job.

On a shared virtual machine the same code runs at different speeds from
one stretch of seconds to the next, because other tenants load the
physical cores.  The benchmark times a short kernel before a job, every
SAMPLE_INTERVAL seconds while the job runs (from a SIGALRM handler, so in
the job's own thread) and after it.  Each sample gives the host's speed
relative to a host where the kernel takes REF_SAMPLE_S; the job's time
is scaled by the mean of those relative speeds, which turns it into the
job's time at the reference speed.  The time the handler spends is taken
out of the job's time first.

The kernel is benchmark code, not mppa code, so a change to mppa moves
the scaled times as it moves the raw ones.  REF_SAMPLE_S is about the
kernel's least time on a 2-core Intel Xeon virtual machine running
Python 3.11, so scaled times read close to the seconds that machine
takes when nothing else loads it.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_SAMPLE_S = 0.0004
KERNEL_N = 1500
SAMPLE_INTERVAL = 0.02
EDGE_SAMPLES = 3


class _Counter:
    __slots__ = ("calls", "cap")

    def __init__(self):
        self.calls = 0
        self.cap = 1 << 64

    def tick(self) -> None:
        self.calls += 1
        if self.calls > 1 << 40:
            raise RuntimeError("unreachable")

    def check(self, value: int) -> int:
        if value > self.cap:
            raise RuntimeError("unreachable")
        return value


def _step(x: int, counter: _Counter) -> int:
    counter.tick()
    return x + 1


def kernel(n: int = KERNEL_N) -> int:
    """Method calls, integer arithmetic and dict stores: the shape of
    mppa's budgeted evaluation loops and of its per-step Python code."""
    counter, table, v = _Counter(), {}, 0
    for i in range(n):
        counter.tick()
        v = counter.check(_step(v, counter) * 3 % 10_007)
        table[i & 63] = v
    return v


def sample() -> float:
    """One timing of the kernel, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def edge(count: int = EDGE_SAMPLES) -> list:
    """Samples taken between jobs."""
    return [sample() for _ in range(count)]


def factor(samples) -> float:
    """Mean speed relative to the reference over `samples`: the factor
    that turns a time measured while they were taken into a time at the
    reference speed."""
    return statistics.fmean(REF_SAMPLE_S / s for s in samples)


class Sampler:
    """Samples the kernel every SAMPLE_INTERVAL seconds while active.

    `samples` holds the timings; `spent` is the time the handler took,
    which the caller takes out of the time it measured around the block.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL):
        self.interval = interval
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
