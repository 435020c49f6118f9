"""Host-speed calibration for the end-to-end timings.

On a shared VM the CPU speed drifts by up to +-20% within seconds, and
between runs of the same code, whatever the program does. A fixed
pure-Python work unit slows down and speeds up with the library's own calls:
over 25 rounds on a 2-vCPU host, per-round k=2 query medians and unit
medians correlated at 0.97, and dividing one by the other cut the
interquartile spread of the rounds from 22% to 7%.

So the benchmark runs that unit about every CADENCE seconds between timed
operations, and `scale` reports each operation at nominal host speed:
its time times NOMINAL / (the median unit time within WINDOW seconds of
it). A change to wingsearch moves the scaled time exactly as it moves the
raw one. The raw times are printed beside the scaled ones.
"""

import bisect
import statistics
import time

now = time.perf_counter

NOMINAL = 0.005  # seconds the unit is taken to last at nominal speed
CADENCE = 0.1    # seconds between units while measuring
WINDOW = 0.5     # seconds either side of an operation whose units count
SIZE = 8000      # unit work: ~5 ms of dict, set and sort work


def unit():
    """The fixed work: tuple keys into a dict, a set built by filtering
    it, and a keyed sort, like the library's edge bookkeeping."""
    d = {}
    for i in range(SIZE):
        d[(i % 97, i)] = i
    kept = {k for k in d if k[1] % 3}
    return len(sorted(kept, key=lambda k: (-k[0], k[1])))


class Calibration:
    def __init__(self):
        self.times = []    # midpoint of each unit, ascending
        self.seconds = []  # how long each unit took
        self.due = 0.0

    def pace(self, force=False):
        """Run the unit if CADENCE seconds have passed since the last one
        (or always, with force). Called before each timed operation."""
        t0 = now()
        if not force and t0 < self.due:
            return
        unit()
        t1 = now()
        self.times.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)
        self.due = t1 + CADENCE

    def speed(self, t0, dt):
        """Median unit time around the interval [t0, t0 + dt]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW)
        hi = bisect.bisect_right(self.times, t0 + dt + WINDOW)
        near = self.seconds[lo:hi] or self.seconds
        return statistics.median(near)

    def scale(self, t0, dt):
        """dt as it would read on a host where the unit takes NOMINAL s."""
        return dt * NOMINAL / self.speed(t0, dt)

    def median(self):
        return statistics.median(self.seconds)
