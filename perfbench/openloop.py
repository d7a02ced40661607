"""Open-loop replay: sessions are sent on a schedule, not on completion.

Independent viewers start sessions whether or not the service kept up,
so the service workload is an open loop: session ``i`` is *due* at
``t0 + i / rate``.  The feed sleeps until each session is due and hands
it over; when the consumer stalls (an epoch simulating, a checkpoint
being written) the feed falls behind and hands over the next sessions
late.  An epoch's latency is measured from when the session that
closed it was due, so a stall also delays every later epoch -- it is
never hidden by the feed slowing down.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

T = TypeVar("T")


class OpenLoopFeed:
    """Yield ``items`` at a fixed ``rate`` (items per second) from one process.

    Attributes:
        start: clock reading when iteration began (``None`` before).
        last_due: due time of the item handed over most recently.
        max_lag: how late, at most, an item was handed over (seconds).
    """

    def __init__(
        self,
        items: Sequence[T],
        rate: float,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
        spin: float = 0.002,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate!r}")
        self.items = items
        self.rate = rate
        self.clock = clock
        self.sleep = sleep
        #: The last stretch before a due time is spun, not slept: a
        #: sleep can wake milliseconds late on a busy machine, and that
        #: error would be charged to the service as latency.
        self.spin = spin
        self.start: Optional[float] = None
        self.last_due: Optional[float] = None
        self.max_lag = 0.0

    def due(self, index: int) -> float:
        """When item ``index`` is due (requires iteration to have begun)."""
        return self.start + index / self.rate

    def __iter__(self) -> Iterator[T]:
        self.start = self.clock()
        for index, item in enumerate(self.items):
            due = self.due(index)
            now = self.clock()
            if due - now > self.spin:
                self.sleep(due - now - self.spin)
            while now < due:
                now = self.clock()
            self.max_lag = max(self.max_lag, now - due)
            self.last_due = due
            yield item

    def latency(self) -> float:
        """Seconds since the most recently handed-over item was due.

        Called when a result that item completed arrives: the service
        closes an epoch while ingesting the first session past it, and
        the end-of-stream flush closes the last one after the final
        session.
        """
        return self.clock() - self.last_due


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float], q: float = 90.0) -> float:
    """The ``q``-th percentile, or the highest one with ten samples beyond it.

    With fewer samples than that (e.g. a batch run's few iterations) the
    median is the highest percentile that can be stated.
    """
    ordered: List[float] = sorted(values)
    n = len(ordered)
    while q > 50.0 and n - max(1, math.ceil(q / 100.0 * n)) < 10:
        q -= 10.0
    return percentile(ordered, max(q, 50.0))
