"""A fixed pure-Python loop that measures how fast the host runs right now.

Shared hosts drift: on a 2-core VM the same simulation can take 1.0 s
one minute and 1.7 s a few minutes later.  Each timed run times this
loop just before and just after its simulation, and the benchmark
rescales the run's host seconds to a reference speed, at which the loop
takes :data:`REFERENCE_S`.  The loop uses only the standard library and
none of the simulator's code, so a change to the simulator never changes
the yardstick.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["REFERENCE_S", "calibration_seconds"]

#: The loop's duration on the reference host; rescaled figures read as
#: host seconds on a host that runs the loop in this time.
REFERENCE_S = 0.15


class _Event:
    __slots__ = ("when", "callback", "value")

    def __init__(self, when: float, callback):
        self.when = when
        self.callback = callback
        self.value = None


def _loop(n: int) -> int:
    """Event-queue-like work: heap pushes and pops, small objects,
    callbacks and dict traffic, the mix a discrete-event engine runs."""
    queue: list = []
    seen: dict = {}
    fired = 0

    def callback(ev: _Event) -> float:
        return ev.when * 0.5

    for seq in range(n):
        heapq.heappush(queue, (float(seq * 7919 % 5003), seq, _Event(seq, callback)))
        if len(queue) > 128:
            _, _, ev = heapq.heappop(queue)
            ev.value = ev.callback(ev)
            seen[seq & 1023] = ev.value
            fired += 1
    return fired


def calibration_seconds(n: int = 100_000) -> float:
    """Wall seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    _loop(n)
    return time.perf_counter() - t0
