"""Reference engines: the test oracles for the shipping engines.

The simulator runs one implementation per mechanism:
:class:`~repro.sim.engine.CalendarTimerQueue` holds every
:class:`~repro.sim.Simulator`'s future timeouts, and
:class:`~repro.net.fabric.ScopedFluidSolver` drives every
:class:`~repro.net.fabric.Fabric`'s fluid fair-share flows.  The simple
engines they replace live here, for two uses only:

* **equivalence oracles** — the property suites drive both engines with
  identical inputs and assert identical outputs (pop streams, delivery
  times, whole-simulation schedules);
* **ratio baselines** — the FLEET-C and NET-F bench rows run the same
  workload on the reference and on the shipping engine.

A reference is installed into an *idle* simulator or fabric by passing
its class to :func:`use_timer_queue` / :func:`use_fluid_solver`; both
refuse a target with a live timer or flow, whose state the swap would
drop.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.net.fabric import Fabric, _Flow, _FluidSolver
from repro.sim import Simulator

__all__ = [
    "DenseFluidSolver",
    "HeapTimerQueue",
    "use_fluid_solver",
    "use_timer_queue",
]

_INF = float("inf")


class HeapTimerQueue:
    """The classic timer store: one global ``(time, seq, event)`` heap.

    This is the baseline shape the calendar queue replaces (FTL-SIM's
    ``event.py`` loop is exactly this).  The calendar-queue property
    tests drive both with identical push streams and assert identical
    pop streams; FLEET-C measures the calendar core against it.

    Both implementations expose the same surface: ``push(when, seq,
    event)``, ``pop() -> (when, seq, event)`` in exact ``(when, seq)``
    order, ``discard(when, event)`` for cancelled :class:`TimerHandle`
    shots, ``min_when`` (``inf`` when empty), and ``len``.

    ``len``/``_len`` count **live** entries only.  Cancelled entries are
    tombstones (``event._dead``): removed physically whenever they reach
    the root — the exposed head is always live, so ``min_when`` always
    names the earliest live entry (the drain loop orders the timer queue
    against the zero-delay FIFO with it) — and skipped on contact
    otherwise.
    """

    __slots__ = ("_heap", "_len", "_tombs", "min_when")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any]] = []
        self._len = 0
        #: Physically-present cancelled entries.  All tombstone sweeps
        #: are gated on this, so queues that never see a ``discard``
        #: (and property tests pushing raw payloads without a ``_dead``
        #: attribute) never pay for — or even touch — the flag.
        self._tombs = 0
        #: Time of the earliest entry; ``inf`` when empty.  An attribute
        #: rather than a method: the drain loop reads it per iteration.
        self.min_when = _INF

    def __len__(self) -> int:
        return self._len

    def push(self, when: float, seq: int, event: Any) -> None:
        heapq.heappush(self._heap, (when, seq, event))
        self._len += 1
        if when < self.min_when:
            self.min_when = when

    def pop(self) -> tuple[float, int, Any]:
        heap = self._heap
        entry = heapq.heappop(heap)
        self._len -= 1
        if self._tombs:
            while heap and heap[0][2]._dead:
                heapq.heappop(heap)
                self._tombs -= 1
        self.min_when = heap[0][0] if heap else _INF
        return entry

    def discard(self, when: float, event: Any) -> None:
        """Logically remove a cancelled entry (``event._dead`` already
        set by the caller).  The root is removed physically — together
        with any tombstones it was shadowing — so ``min_when`` stays
        honest; a non-root entry is already covered by the live root
        and is dropped lazily when a pop reaches it."""
        self._len -= 1
        heap = self._heap
        if heap and heap[0][2] is event:
            heapq.heappop(heap)
            if self._tombs:
                while heap and heap[0][2]._dead:
                    heapq.heappop(heap)
                    self._tombs -= 1
            self.min_when = heap[0][0] if heap else _INF
        else:
            self._tombs += 1


class DenseFluidSolver(_FluidSolver):
    """The reference engine: O(F) recompute-everything per change.

    Every membership change touches every live flow, and the next
    completion is a min-scan over all of them — the shape the scoped
    engine replaces.  The equivalence suite drives both engines with
    identical scenarios and asserts byte-identical results, and the
    NET-F bench measures the scoped win against it.
    """

    def _membership_changed(self, routes, now: float) -> None:
        self.membership_updates += 1
        flows = self.flows
        self.flows_touched += len(flows)
        for flow in flows.values():
            self._update_flow(flow, now)

    def _collect_due(self, now: float) -> list[_Flow]:
        # Registry order is start order: the completion tie-break.
        return [f for f in self.flows.values() if f.finish_at <= now]

    def _min_finish(self) -> float:
        return min(f.finish_at for f in self.flows.values())




def use_timer_queue(sim: Simulator, queue_cls: type) -> None:
    """Replace ``sim``'s timer queue with a fresh ``queue_cls()``.

    Call between runs, with no timer pending: ``sim`` must hold no live
    timeout, ticker or armed timer handle.
    """
    if len(sim._queue):
        raise RuntimeError(
            f"cannot swap the timer queue: {len(sim._queue)} timer(s) live"
        )
    sim._queue = queue_cls()


def use_fluid_solver(fabric: Fabric, solver_cls: type) -> None:
    """Replace ``fabric``'s fluid engine with ``solver_cls(fabric)``.

    ``fabric`` must carry no live flow and no armed next-finish timer.
    """
    solver = fabric._solver
    if solver.flows or solver.timer.when is not None:
        raise RuntimeError(
            f"cannot swap the fluid solver: {len(solver.flows)} flow(s) live"
        )
    fabric._solver = solver_cls(fabric)
