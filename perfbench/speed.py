"""The vCPU's speed while an operation runs, read from a fixed pure-Python task.

On a shared host the vCPU's speed changes with the load of other tenants:
process CPU time moves with wall time (steal stays near zero), the speed
switches within a second between a fast state and one about 1.5 times
slower, and slow spells last from seconds to minutes.  A spell that covers
a whole run moves every time measured in it.  So the benchmark times a
small task while each operation runs and reports the operation's time
scaled to a vCPU on which the task takes REFERENCE_NS:

    reported = measured * REFERENCE_NS / mean task time during the operation

The task does the kinds of work the package does (Fraction arithmetic,
big-int row updates, dict traffic) and never calls the package, so a change
to the package moves the reported times as it moves the measured ones,
while a slow spell of the host moves both the operation and the task.
"""

import signal
import statistics
import time
from fractions import Fraction

# About the task's mean time within the operations, on the 2-vCPU Intel Xeon
# this benchmark was written on, so that reported times read close to that
# machine's typical wall times.
REFERENCE_NS = 200_000
# Within an operation the task runs on a timer signal this often; one
# sample costs about 1 % of the interval.
INTERVAL_S = 0.01


def task() -> int:
    total = Fraction(0)
    for k in range(1, 15):
        total += Fraction(k, k + 3) * Fraction(2, 7)
    row = [3 ** 700 + k for k in range(10)]
    for _ in range(5):
        row = [7 * a + b for a, b in zip(row, row[1:] + [1])]
    counts: dict[int, int] = {}
    for k in range(400):
        counts[k % 61] = counts.get(k % 61, 0) + k
    return total.numerator + row[0] + counts[0]


def sample() -> int:
    """One timing of the task, in nanoseconds."""
    start = time.perf_counter_ns()
    task()
    return time.perf_counter_ns() - start


def scale(measured_ns: float, task_ns: float) -> float:
    """A measured time scaled to the reference speed."""
    return measured_ns * REFERENCE_NS / task_ns


def around(count: int, fn, *args, **kwargs):
    """fn(*args, **kwargs) with the task timed count times just before and
    just after it: (result, median task time).  For work that runs outside
    this process, where a timer signal here would time the other vCPU."""
    before = [sample() for _ in range(count)]
    result = fn(*args, **kwargs)
    return result, statistics.median(before + [sample() for _ in range(count)])


class Probe:
    """Times operations together with the task: once between every two
    operations and, on SIGALRM, every INTERVAL_S while one runs."""

    def __init__(self):
        self._last = sample()
        self._inside: list[int] = []

    def _on_alarm(self, signum, frame) -> None:
        self._inside.append(sample())

    def run(self, fn, *args):
        """fn(*args), timed: (result, elapsed_ns, task_ns).  elapsed_ns
        leaves out the task runs inside the operation; task_ns is the mean
        of those runs and of the one just before and just after it."""
        self._inside = inside = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter_ns() - start
            signal.signal(signal.SIGALRM, previous)
        after = sample()
        samples = [self._last, *inside, after]
        self._last = after
        return result, elapsed - sum(inside), sum(samples) / len(samples)
