"""Host-speed calibration: a fixed loop timed all through each pass.

On a shared host, neighbours slow every program on it by up to 2x for
seconds to minutes at a time; CPU time stretches as much as wall time.
A slice of a pass divided by calibration runs taken right around it
keeps the program's own cost and loses most of the host's.  On a
2-vCPU shared Xeon VM, over 24 windows of 10 s, the median times of
four sweep repetitions spread 19% (quartile distance over median) and
their median ratios to this loop 2-4%.

The loop does what the simulator does most, in plain Python and
independent of the program's code: heap pushes and pops, and attribute
reads and writes on objects spread over a few MiB, in a seeded
pseudo-random order.  So it slows with the host the same way, while a
change to the program leaves it alone.
"""

from __future__ import annotations

import heapq
import random
import signal
from time import perf_counter

#: Objects the loop walks over; about 3 MiB, counted in ``peak_rss_mb``.
CELLS = 2 ** 15
#: Steps per run; 20-30 ms on the host above.
STEPS = 13_000
#: Host seconds of a pass between two calibration runs.
SLICE_S = 0.2


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int):
        self.key = key
        self.value = 0


class Calibration:
    """Times calls in runs of the calibration loop.

    :meth:`cost` runs the loop every :data:`SLICE_S` host seconds of the
    call, from a ``SIGALRM`` timer, and divides each slice by the mean
    of the loop's times just before and just after it.  The last run of
    one call is the first of the next.
    """

    def __init__(self):
        self.cells = [_Cell(i * 2654435761 % 2 ** 32) for i in range(CELLS)]
        self.loop()  # warm-up
        #: Host seconds of every loop run that bounds a slice, in order.
        self.samples = [self.loop()]

    def loop(self) -> float:
        """Runs the loop once; returns its host seconds."""
        rng = random.Random(7)
        cells = self.cells
        heap: list[tuple[int, int]] = []
        total = 0
        began = perf_counter()
        for step in range(STEPS):
            cell = cells[rng.randrange(CELLS)]
            heapq.heappush(heap, (cell.key ^ step, step))
            if len(heap) > 64:
                total += heapq.heappop(heap)[1]
            cell.value = total
        return perf_counter() - began

    def cost(self, call):
        """``(call(), host seconds of the call, its cost in loop runs)``;
        the loop's own runs are left out of both."""
        slices: list[float] = []
        bounds = [self.samples[-1]]
        began = perf_counter()

        def calibrate(_signum=None, _frame=None):
            nonlocal began
            slices.append(perf_counter() - began)
            bounds.append(self.loop())
            began = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, SLICE_S)

        previous = signal.signal(signal.SIGALRM, calibrate)
        signal.setitimer(signal.ITIMER_REAL, SLICE_S)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        slices.append(perf_counter() - began)
        bounds.append(self.loop())
        self.samples += bounds[1:]
        cost = sum(
            2 * seconds / (bounds[i] + bounds[i + 1]) for i, seconds in enumerate(slices)
        )
        return result, sum(slices), cost
