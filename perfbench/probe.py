"""Host-speed probe: times a region and scales it to a reference host speed.

The shared host this benchmark runs on changes speed by up to 2x, in phases
that last from a second to minutes, so a median over one run follows the
host more than the program.  While a region is probed, an interval timer
interrupts the process :data:`PROBE_HZ` times a second and the handler runs
one fixed pure-Python kernel (a heap and dict walk, like the event loops
under test) and times it.  The kernel's mean time over the region says how
fast the host ran during it; runs over three times the region's median are
left out of the mean, since a run the host preempted measures the preemption,
not the speed.  The region's host time, less the time spent in the kernel,
is scaled by :data:`REFERENCE_KERNEL_S` over that mean: the region's time on
a host where one kernel run takes exactly that long.

The kernel lives in this file, so a change to the program never changes it.
It allocates almost nothing that the garbage collector tracks, so it does
not trigger collections of the program's objects.  Fork children inherit
the handler but not the timer, so shard worker processes are not probed.
"""

from __future__ import annotations

import signal
import statistics
from heapq import heappop, heappush
from time import perf_counter

#: kernel runs per second of probed time
PROBE_HZ = 100
#: nominal time of one kernel run.  It only sets the scale: with it, scaled
#: times are close to host times in the fast phase of a 2-core shared VM
#: with Python 3.11.
REFERENCE_KERNEL_S = 100e-6

_HEAP = sorted((index * 7919) % 1000 * 64 + index for index in range(64))


def _kernel() -> int:
    heap = _HEAP[:]
    counts = dict.fromkeys(range(16), 0)
    total = 0
    for step in range(150):
        item = heappop(heap)
        slot = item & 15
        counts[slot] += 1
        total += (item >> 6) + counts[slot]
        heappush(heap, item + (step % 5 + 4) * 64)
    return total


class HostProbe:
    """Probe one region at a time: :meth:`start`, then :meth:`stop`, or a
    ``with`` block."""

    def __init__(self) -> None:
        self.armed = False
        self.samples: list[float] = []
        self.began = 0.0
        #: host seconds of the last stopped region, and its scaled time
        self.elapsed_s = 0.0
        self.scaled_s = 0.0
        # Installed once and left installed: a tick that lands after the
        # timer is cleared must not meet SIGALRM's default action (exit).
        signal.signal(signal.SIGALRM, self._tick)

    def _sample(self) -> None:
        start = perf_counter()
        _kernel()
        self.samples.append(perf_counter() - start)

    def _tick(self, signum, frame) -> None:
        if self.armed:
            self._sample()

    def start(self, began: float | None = None) -> None:
        """Begin a region, by default now; ``began`` back-dates its start."""
        self.samples = []
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, 1 / PROBE_HZ, 1 / PROBE_HZ)
        self.began = perf_counter() if began is None else began

    def stop(self) -> float:
        """End the region; return its time scaled to the reference host."""
        end = perf_counter()
        self.close()
        self.elapsed_s = end - self.began
        net_s = self.elapsed_s - sum(self.samples)
        if not self.samples:
            # A region shorter than one tick: probe once, after it.
            self._sample()
        limit = 3 * statistics.median(self.samples)
        speed = statistics.fmean(s for s in self.samples if s <= limit)
        self.scaled_s = net_s * REFERENCE_KERNEL_S / speed
        return self.scaled_s

    def close(self) -> None:
        """Clear the timer, whether or not a region is open."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.armed = False

    def __enter__(self) -> "HostProbe":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
