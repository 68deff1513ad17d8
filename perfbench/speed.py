"""Host-speed reference for the closed-loop timings.

On the shared 2-vCPU VM this benchmark was built on, the same code ran
up to ~30% slower for tens of seconds at a time, whenever the host's
other tenants loaded the core it landed on.  Between runs of the same
code that moved the CPU-bound figures (``adhoc-read``'s latency and
throughput, ``setup_s``) by 0.2-0.4 of their median at the
interquartile range, more than any bound the benchmark may set.

So the closed loops time, next to their own work, a fixed reference
computation shaped like the program's hot path -- a range skyline by
sort and sweep over small slotted objects, with an LRU of answers --
and report their times scaled to the speed at which the reference takes
:data:`REFERENCE_MS`.  The reference imports nothing from the program:
a change to the program moves a scaled figure exactly as much as it
moves the raw one.  Over six runs on that VM, scaling cut the spread of
``adhoc-read``'s p50 from 0.09 to 0.03 of the median.
"""

from __future__ import annotations

import random
import time
from collections import OrderedDict
from typing import List, Tuple

#: Reference time (ms) the scaled figures are expressed at: about what
#: the reference takes on an unloaded core of the VM above.
REFERENCE_MS = 4.5
#: A closed loop times the reference once per this many seconds of work.
EVERY_S = 0.5


class _Item:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


_rng = random.Random(5)
_ITEMS = [_Item(_rng.random(), _rng.random()) for _ in range(3000)]
_RECTS: List[Tuple[float, float, float]] = [
    (lo, lo + 0.3, 0.5 * _rng.random()) for lo in (0.7 * _rng.random() for _ in range(12))
]


def _reference_work() -> int:
    answers: "OrderedDict[int, List[_Item]]" = OrderedDict()
    for i, (x_lo, x_hi, y_lo) in enumerate(_RECTS):
        inside = [p for p in _ITEMS if x_lo <= p.x <= x_hi and p.y >= y_lo]
        inside.sort(key=lambda p: -p.x)
        skyline: List[_Item] = []
        top = -1.0
        for p in inside:
            if p.y > top:
                skyline.append(p)
                top = p.y
        answers[i] = skyline
        if len(answers) > 4:
            answers.popitem(last=False)
    return len(answers)


class Speed:
    """Reference timings taken during one stretch of closed-loop work."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._next = 0.0

    def sample(self) -> float:
        """Time the reference once; returns the seconds it took."""
        started = time.perf_counter()
        _reference_work()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def maybe_sample(self) -> float:
        """Time the reference if :data:`EVERY_S` has passed since the
        last time; returns the seconds spent (0 if it did not run)."""
        if time.perf_counter() < self._next:
            return 0.0
        spent = self.sample()
        self._next = time.perf_counter() + EVERY_S
        return spent

    def reference_ms(self) -> float:
        """Median reference time measured (ms)."""
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2] * 1000.0

    def factor(self) -> float:
        """Multiplier taking a measured time to reference speed."""
        return REFERENCE_MS / self.reference_ms() if self.samples else 1.0
