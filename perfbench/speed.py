"""Machine-speed calibration and speed-normalised timing.

The benchmark machine's cores switch between a fast and a slow state that
lasts from a fraction of a second to seconds.  CPU time inflates exactly as
wall time does, so neither ``process_time`` nor a sampler on another core
removes the effect.  What does remove it is timing a fixed calibration loop
in the same process during the measured interval: a measured duration ``t``
is reported as ``t * R / c`` reference-speed seconds, where ``c`` is the
calibration loop's time at that moment and ``R`` is the constant recorded in
``reference.json``.

The loop mixes what the interpreter spends its time on in henkin (dict
lookups, attribute reads, integer arithmetic, branches); of the loops tried,
its speed tracked that of schema checks most closely through the machine's
state changes.  It allocates no gc-tracked object and reads only its own
dict and object, never program state, so no change to the program under
test can move it.

``python3 perfbench/speed.py`` prints the loop's median time over a few
seconds; that is how ``R`` was measured, once.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

CAL_ITERS = 10_000
ALARM_PERIOD_S = 0.05  # samples inside long operations
GAP_S = 0.02  # between operations, sample when the last sample is older
WINDOW_S = 0.05  # an interval's speed: samples up to this far outside it

_TABLE = {i: i * 7 for i in range(64)}


class _Slot:
    __slots__ = ("v",)

    def __init__(self):
        self.v = 3


_SLOT = _Slot()

perf_counter = time.perf_counter


def calibration_unit() -> float:
    """Seconds taken by one fixed loop of dict, attribute and integer work."""
    table, slot = _TABLE, _SLOT
    started = perf_counter()
    x = 0
    for i in range(CAL_ITERS):
        x += table.get(i & 63, 0) + slot.v
        if x > 100_000:
            x -= 100_000
    return perf_counter() - started


class SpeedMeter:
    """Calibration samples taken between operations and, from a ``SIGALRM``
    interval timer, inside long ones.

    ``spent`` is the wall time taken by calibration itself; ``timed``
    subtracts the part that fell inside an operation, so sampling adds no
    time to what is reported.
    """

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        started = perf_counter()
        c = calibration_unit()
        self.times.append(started + c / 2)
        self.samples.append(c)
        self.spent += perf_counter() - started
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedMeter":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, ALARM_PERIOD_S, ALARM_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args):
        """Run ``fn(*args)``; returns ``(result, (start, end, raw_s))`` where
        ``raw_s`` excludes calibration time.  When ``fn`` raises, the
        interval is left in ``last`` before the exception propagates."""
        if not self.times or perf_counter() - self.times[-1] > GAP_S:
            self.sample()
        spent = self.spent
        started = perf_counter()
        try:
            result = fn(*args)
        finally:
            ended = perf_counter()
            self.last = (started, ended, ended - started - (self.spent - spent))
            if ended - self.times[-1] > GAP_S:
                self.sample()
        return result, self.last

    def factor(self, start: float, end: float) -> float:
        """R / c over the samples within ``WINDOW_S`` of the interval, or the
        nearest sample on each side (mean of 1/c: the time average of the
        speed when samples are evenly spaced)."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        window = self.samples[lo:hi]
        return self.reference_s * sum(1.0 / c for c in window) / len(window)

    def normalised(self, interval) -> float:
        start, end, raw = interval
        return raw * self.factor(start, end)

    def speed_ratio(self) -> float:
        return statistics.mean(self.samples) / self.reference_s


if __name__ == "__main__":
    units = []
    started = perf_counter()
    while perf_counter() - started < 4:
        units.append(calibration_unit())
    print(f"median calibration unit: {statistics.median(units):.6f} s over {len(units)} samples")
