"""Shared-resource primitives built on the event kernel.

:class:`Resource` is a counted semaphore with FIFO granting — used to
model serial host CPUs, PCIe engines, and bounded HBM allocators.
:class:`Store` is an unbounded-or-bounded FIFO queue of items — used for
PLAQUE's sharded message channels and input-pipeline prefetch buffers.

Both grant strictly in request order, which keeps the simulation
deterministic and models the paper's FIFO hardware queues faithfully.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from repro.sim.engine import Event, Simulator
from repro.sim.sanitize import UnbalancedGrantError

__all__ = ["Resource", "Store"]


class Resource:
    """A counted resource granting up to ``capacity`` concurrent holders.

    ``request()`` returns an :class:`Event` that triggers when the slot is
    granted; the holder must later call ``release()`` exactly once.  The
    ``using()`` helper wraps the acquire/hold/release pattern::

        def task(sim, cpu):
            yield from cpu.using(sim, work_us=10.0)
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 1,
        name: str = "",
        leak_check: bool = False,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        #: Leak-checked resources (host CPUs, NIC slots) must be fully
        #: released at natural drain end; the sim-sanitizer raises
        #: UnbalancedGrantError for any slot still held.  Resources that
        #: legitimately stay held across a run end (long-lived pools)
        #: leave this False — only stranded *waiters* are flagged then.
        self.leak_check = leak_check
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        #: Called before an acquisition from outside a gang lane whose
        #: hosts share this CPU in lockstep (``repro.hw.lane``); the lane
        #: itself acquires with ``from_lane=True``.
        self.on_acquire: Optional[Callable[[], None]] = None
        #: Cumulative busy time integral, for utilization reporting.
        self._busy_accum = 0.0
        self._last_change = 0.0
        if sim.sanitize and sim.sanitizer is not None:
            sim.sanitizer.watch(self)

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_accum += self._in_use * (now - self._last_change)
        self._last_change = now

    @staticmethod
    def shift_lockstep(resources: list["Resource"], delta: int) -> None:
        """Acquire (``delta=1``) or release (``delta=-1``) one slot on
        each of ``resources`` at once.

        For resources held in lockstep with a gang lane leader's (the
        lane hosts' CPUs): they are free whenever the leader's is and
        never have waiters of their own, so no grant can fall due.
        """
        for res in resources:
            now = res.sim._now
            res._busy_accum += res._in_use * (now - res._last_change)
            res._last_change = now
            res._in_use += delta

    def busy_time(self) -> float:
        """Integral of holders over time (µs·holders) up to now."""
        self._account()
        return self._busy_accum

    def try_acquire(self, from_lane: bool = False) -> bool:
        """Take a slot immediately if one is free (no event at all).

        The holder must :meth:`release` exactly as if it had gone
        through :meth:`request`.  Hot callers (executor prep fan-out)
        use this to skip even the completed-event allocation on the
        uncontended path.
        """
        if self.on_acquire is not None and not from_lane:
            self.on_acquire()
        if self._in_use < self.capacity and not self._waiters:
            self._account()
            self._in_use += 1
            return True
        return False

    def request(self, from_lane: bool = False) -> Event:
        if self.on_acquire is not None and not from_lane:
            self.on_acquire()
        sim = self.sim
        if self._in_use < self.capacity and not self._waiters:
            # Uncontended acquisition: grant inline with a completed
            # event (no loop entry); the holder proceeds at the same
            # simulated instant either way.
            self._account()
            self._in_use += 1
            return sim.completed(
                self, name=f"acquire:{self.name}" if sim.debug_names else ""
            )
        ev = Event(sim, f"acquire:{self.name}") if sim.debug_names else Event(sim)
        self._waiters.append(ev)
        return ev

    def fail_waiters(self, cause: BaseException) -> int:
        """Fail every queued (not-yet-granted) acquisition with ``cause``.

        Models a serial resource going away (e.g. a crashed host CPU):
        holders are handled separately by their owner, but queued waiters
        would otherwise be granted a slot on dead hardware.  Returns how
        many waiters were failed.
        """
        n = len(self._waiters)
        while self._waiters:
            ev = self._waiters.popleft()
            if not ev.triggered:
                ev.fail(cause)
        return n

    def release(self) -> None:
        if self._in_use <= 0:
            raise UnbalancedGrantError(
                f"release of idle resource {self.name!r}"
            )
        self._account()
        if self._waiters:
            # Hand the slot directly to the next waiter: in_use unchanged.
            ev = self._waiters.popleft()
            ev.succeed(self)
        else:
            self._in_use -= 1

    def _sanitizer_problems(self) -> list[tuple[str, str]]:
        """Drain-end invariants for the sim-sanitizer sweep."""
        problems: list[tuple[str, str]] = []
        pending = sum(1 for ev in self._waiters if not ev.triggered)
        if pending:
            problems.append(
                (
                    "waiters",
                    f"resource {self.name!r} drained with {pending} "
                    "waiter(s) never granted or failed (lost wakeup)",
                )
            )
        if self.leak_check and self._in_use > 0:
            problems.append(
                (
                    "grants",
                    f"resource {self.name!r} drained with {self._in_use} "
                    "slot(s) still held (acquire without release)",
                )
            )
        return problems

    def using(self, sim: Simulator, work_us: float) -> Generator:
        """Acquire, hold for ``work_us``, release.  ``yield from`` this."""
        yield self.request()
        try:
            if work_us > 0:
                yield sim.timeout(work_us)
        finally:
            self.release()


class Store:
    """A FIFO queue of items with blocking ``get`` and optional capacity.

    ``put`` returns an event that triggers when the item is accepted
    (immediately unless the store is full).  ``get`` returns an event
    that triggers with the oldest item.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "store"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        sim = self.sim
        debug = sim.debug_names
        if self._getters:
            # Direct handoff to the oldest waiting consumer.
            getter = self._getters.popleft()
            getter.succeed(item)
            return sim.completed(name=f"put:{self.name}" if debug else "")
        if self.capacity is None or len(self._items) < self.capacity:
            # Accepted immediately: a completed event (most callers
            # never wait on an unbounded put).
            self._items.append(item)
            return sim.completed(name=f"put:{self.name}" if debug else "")
        ev = Event(sim, f"put:{self.name}") if debug else Event(sim)
        self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        sim = self.sim
        debug = sim.debug_names
        if self._items:
            item = self._items.popleft()
            if self._putters:
                put_ev, pending = self._putters.popleft()
                self._items.append(pending)
                put_ev.succeed(None)
            return sim.completed(item, name=f"get:{self.name}" if debug else "")
        ev = Event(sim, f"get:{self.name}") if debug else Event(sim)
        self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        if self._putters:
            put_ev, pending = self._putters.popleft()
            self._items.append(pending)
            put_ev.succeed(None)
        return True, item
