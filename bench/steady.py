"""Steady timings on a machine whose speed drifts.

Two effects made the same solve's time vary by 20-30% from run to run on the
reference 2-vCPU VM:

- The allocator.  glibc hands big blocks back to the OS and page-faults them
  in again on every solve until its dynamic mmap threshold has risen, which
  takes three or four solves (10-20% of a solve's time in the kernel, then
  none).  ``settle_allocator`` brings it to that state before the first solve.
- The core speed.  The host slows the VM's cores by up to 30% for tens of
  seconds to minutes at a time, which no run length averages out.
  ``sampling`` and ``edge_speeds`` time a short fixed kernel, which uses
  nothing of lrpostcov, around and during each timed call; a time is scaled
  by the median sampled speed to what it would be at the nominal speed.  A
  change to the package cannot move the kernel, so the scaling cannot hide
  one.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

KERNEL_NOMINAL_S = 0.0020  # kernel time at nominal speed (the reference VM's typical)
KERNEL_PY_ITERS = 20_000
KERNEL_MATMULS = 40
SAMPLE_PERIOD_S = 0.1      # kernel samples during a call, one per period
EDGE_SAMPLES = 5           # kernel samples taken between calls

# glibc raises its mmap threshold to the size of a freed mmapped block, up to
# 32 MiB, and trims the heap only past twice the threshold
MMAP_BLOCK_BYTES = 30 << 20
HEAP_CHUNK_BYTES = 8 << 20
HEAP_CHUNKS = 6

_matrix = None


def settle_allocator() -> None:
    """Put malloc where a few solves leave it: large blocks reused, not faulted in."""
    import numpy

    block = numpy.ones(MMAP_BLOCK_BYTES // 8)
    del block
    heap = [numpy.ones(HEAP_CHUNK_BYTES // 8) for _ in range(HEAP_CHUNKS)]
    del heap


def kernel_seconds() -> float:
    """Wall seconds of the fixed interpreter-plus-BLAS kernel."""
    global _matrix
    if _matrix is None:
        import numpy

        _matrix = numpy.random.default_rng(0).standard_normal((64, 64))
    t0 = time.perf_counter()
    acc = 0
    for i in range(KERNEL_PY_ITERS):
        acc += i * i
    for _ in range(KERNEL_MATMULS):
        _matrix @ _matrix
    return time.perf_counter() - t0


class Sampling:
    """Kernel samples taken on a timer while a call runs."""

    def __init__(self):
        self.speeds: list[float] = []
        self.spent = 0.0  # seconds the samples took out of the call's wall time

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.speeds.append(KERNEL_NOMINAL_S / kernel_seconds())
        self.spent += time.perf_counter() - t0


@contextmanager
def sampling():
    """Sample the speed every SAMPLE_PERIOD_S while the body runs."""
    s = Sampling()
    previous = signal.signal(signal.SIGALRM, s._on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        yield s
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def edge_speeds() -> list[float]:
    """Speeds sampled back to back between timed calls."""
    return [KERNEL_NOMINAL_S / kernel_seconds() for _ in range(EDGE_SAMPLES)]


def scaled(seconds: float, speeds: list[float]) -> float:
    """Seconds at nominal speed of a call that ran at these sampled speeds.

    The median, not the mean, since a sample that a timer tick or a cache
    miss caught reads up to twice too slow."""
    return seconds * statistics.median(speeds)
