"""Per-island centralized gang scheduler (paper §4.4).

Every accelerator computation on an island is sequenced by one
scheduler.  Its grant pass hands out one grant at a time and waits for
the winner to append its kernels before choosing the next, which
guarantees the property TPUs require: if two programs' computations
overlap in device sets, all devices observe the same relative enqueue
order — so communicating computations can never interleave
inconsistently and deadlock.

Policies decide *which* pending computation is sequenced next:

* :class:`FifoPolicy` — the paper's current implementation ("simply
  enqueues work in FIFO order").
* :class:`ProportionalSharePolicy` — stride scheduling over client
  weights, the policy behind Figure 9's 1:1:1:1 and 1:2:4:8 traces.

Scheduling happens at millisecond timescales; each decision costs
``config.scheduler_decision_us`` of the grant pass's time.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Protocol

from repro.config import SystemConfig
from repro.hw.device import DeviceFailure
from repro.hw.topology import Island
from repro.sim import Event, Simulator, Timeout

__all__ = [
    "DeadlineExceeded",
    "EarliestDeadlinePolicy",
    "FifoPolicy",
    "GangRequest",
    "IslandScheduler",
    "ProportionalSharePolicy",
]


class DeadlineExceeded(RuntimeError):
    """A submission's deadline expired before the gang was granted.

    Deliberately *not* a :class:`~repro.faults.FaultError`: expired work
    is abandoned, not replayed — a retrying execution surfaces it as
    :class:`~repro.core.dispatch.ExecutionAbandoned` instead of burning
    replay attempts on a gang that would expire again.
    """

    def __init__(self, node_label: str, deadline_at_us: float):
        super().__init__(
            f"gang {node_label!r} evicted: deadline {deadline_at_us:.1f}us expired "
            "before grant"
        )
        self.node_label = node_label
        self.deadline_at_us = deadline_at_us


@dataclass(eq=False)
class GangRequest:
    """One computation instance awaiting its enqueue turn.

    Compared by identity: the scheduler's queues find and remove a
    request as that object, never by field-wise equality.
    """

    client: str
    program: str
    node_label: str
    grant: Event
    enqueued_ack: Event
    #: Device-time estimate for this unit; lets proportional share charge
    #: by time consumed rather than unit count.
    cost_us: float = 1.0
    #: Devices the gang occupies (admission control is per device).
    device_ids: tuple[int, ...] = ()
    #: Absolute sim-time grant deadline; an ungranted request past it is
    #: evicted with :class:`DeadlineExceeded` (None = wait forever).
    deadline_at_us: Optional[float] = None
    #: Lifecycle stamps (µs) — set unconditionally (two float stores),
    #: read only when a tracer is attached.
    submitted_us: float = 0.0
    granted_us: float = 0.0
    #: Arrival order on the simulator (``Simulator.next_id``); requests
    #: built by hand keep 0 and tie-break by list position.
    seq: int = 0


def _seq(req: GangRequest) -> int:
    return req.seq


class SchedulingPolicy(Protocol):
    """Chooses the next request from a non-empty pending list."""

    def pick(self, pending: list[GangRequest]) -> GangRequest: ...


class FifoPolicy:
    """Strict arrival order."""

    #: The grant pass's fast path: each pending queue is kept in arrival
    #: (= seq) order, so the lowest-seq head of an eligible queue IS the
    #: FIFO winner — no eligible-list materialization needed.
    picks_first_eligible = True

    def pick(self, pending: list[GangRequest]) -> GangRequest:
        return min(pending, key=lambda r: r.seq)

    def __repr__(self) -> str:
        return "FifoPolicy()"


class ProportionalSharePolicy:
    """Stride scheduling: clients receive device time ∝ their weight.

    Each client carries a *pass* value; the pending request whose client
    has the lowest pass wins, and the winner's pass advances by
    ``cost / weight``.  Unknown clients default to weight 1.
    """

    def __init__(self, weights: Optional[dict[str, float]] = None):
        self.weights: dict[str, float] = dict(weights or {})
        self._pass: dict[str, float] = {}

    def set_weight(self, client: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.weights[client] = weight

    def _weight(self, client: str) -> float:
        return self.weights.get(client, 1.0)

    def pick(self, pending: list[GangRequest]) -> GangRequest:
        # New clients join at the current minimum pass (so they cannot
        # monopolize by starting at zero) and advance independently from
        # there on.
        floor = min(self._pass.values(), default=0.0)
        for r in pending:
            self._pass.setdefault(r.client, floor)
        choice = min(pending, key=lambda r: (self._pass[r.client], r.seq))
        self._pass[choice.client] += choice.cost_us / self._weight(choice.client)
        return choice

    def __repr__(self) -> str:
        return f"ProportionalSharePolicy({self.weights})"


class EarliestDeadlinePolicy:
    """EDF for latency-class gangs: the pending request with the nearest
    deadline is sequenced first; deadline-free (best-effort) requests
    run behind every latency-class gang, in arrival order.

    The policy online serving installs on its islands: a just-admitted
    request with little SLO budget left overtakes queued work that can
    still afford to wait, which lowers deadline evictions without ever
    killing granted gangs (eviction semantics are unchanged — this only
    reorders *pending* work).
    """

    def pick(self, pending: list[GangRequest]) -> GangRequest:
        return min(
            pending,
            key=lambda r: (
                r.deadline_at_us if r.deadline_at_us is not None else math.inf,
                r.seq,
            ),
        )

    def __repr__(self) -> str:
        return "EarliestDeadlinePolicy()"


class IslandScheduler:
    """The grant pass for one island.

    Two responsibilities:

    * **consistent order** — grants are serialized (one at a time, each
      acknowledged after its kernels are appended), so every device
      observes the same relative order of overlapping gangs;
    * **admission control** — at most ``config.scheduler_queue_depth``
      granted-but-unfinished computations per device.  Deep enough to
      keep the non-preemptible queues busy (double buffering), shallow
      enough that the *policy*, not arrival order, apportions device
      time — this is what makes proportional share (Figure 9)
      enforceable at millisecond timescales.

    Every public entry point changes the scheduler's state when it is
    called.  Only the grant pass takes simulated time: :meth:`_kick`
    starts it as a zero-delay event whenever a gang was queued,
    admission was released or granting resumed, and it continues from
    each decision's timeout and each winner's ``enqueued_ack`` until
    nothing is eligible.
    """

    def __init__(
        self,
        sim: Simulator,
        island: Island,
        config: SystemConfig,
        policy: Optional[SchedulingPolicy] = None,
    ):
        self.sim = sim
        self.island = island
        self.config = config
        self.policy: SchedulingPolicy = policy if policy is not None else FifoPolicy()
        #: Pending requests grouped by their exact device set, each queue
        #: in arrival (= seq) order.  Requests sharing a device set are
        #: all eligible or all blocked, so a grant checks admission once
        #: per device set instead of once per pending request.  Empty
        #: queues are dropped.
        self._pending: dict[tuple[int, ...], deque[GangRequest]] = {}
        self._outstanding: dict[int, int] = {}
        #: Admitted-but-unfinished requests by seq -> live device ids,
        #: recorded when a request leaves its queue (before its decision
        #: delay).  This is the authoritative admission-control record: a
        #: ``complete`` for a request no longer here (evicted, or its
        #: device was readmitted after a restart) is stale and must not
        #: touch the fresh counters.
        self._live_grants: dict[int, tuple[int, ...]] = {}
        self.decisions = 0
        self.evictions = 0
        self.deadline_evictions = 0
        self.stale_completions = 0
        self.rejected_draining = 0
        #: Set while the island is preempted: pending requests are kept
        #: (with their original sequence numbers) but nothing is granted.
        self._paused = False
        #: Set while the island is draining for a graceful handback:
        #: in-flight gangs finish, nothing new is granted.
        self._draining = False
        self._drain_waiters: list[Event] = []
        #: Set from a kick until the grant pass finds nothing eligible;
        #: while set, a further kick has nothing to start.
        self._busy = False

    def submit(
        self,
        client: str,
        program: str,
        node_label: str,
        cost_us: float = 1.0,
        device_ids: tuple[int, ...] = (),
        deadline_at_us: Optional[float] = None,
    ) -> GangRequest:
        """Register a computation for sequencing; caller waits on
        ``request.grant``, enqueues its kernels, triggers
        ``request.enqueued_ack`` so the next grant can proceed, and calls
        :meth:`complete` when the computation finishes on-device.

        ``deadline_at_us`` (absolute sim time) arms deadline eviction: if
        the request is still pending when the deadline passes, it leaves
        the queue through the eviction path and its grant fails with
        :class:`DeadlineExceeded`.  Granted gangs are never killed by
        their deadline — non-preemptible devices are already running them.
        """
        debug = self.sim.debug_names
        req = GangRequest(
            client=client,
            program=program,
            node_label=node_label,
            grant=self.sim.event(name=f"grant:{node_label}" if debug else ""),
            enqueued_ack=self.sim.event(name=f"ack:{node_label}" if debug else ""),
            cost_us=cost_us,
            device_ids=tuple(device_ids),
            deadline_at_us=deadline_at_us,
            submitted_us=self.sim.now,
            seq=self.sim.next_id("gang_request"),
        )
        if self._draining:
            # Not admitted: fail fast so the client's retry path can
            # remap onto a non-draining island instead of wedging on a
            # grant that will never come.
            self.rejected_draining += 1
            device = req.device_ids[0] if req.device_ids else -1
            req.grant.fail(
                DeviceFailure(
                    device,
                    f"island {self.island.island_id} draining: rejected {node_label}",
                )
            )
        else:
            self._pending.setdefault(req.device_ids, deque()).append(req)
            self._kick()
        if deadline_at_us is not None:
            delay = max(0.0, deadline_at_us - self.sim.now)
            self.sim.timeout(delay, value=req).add_callback(self._expire)
        return req

    def complete(self, req: GangRequest) -> None:
        """Signal that a granted computation finished executing."""
        devices = self._live_grants.pop(req.seq, None)
        if devices is None:
            # Granted before an eviction/readmit of one of its devices:
            # the counters were already settled then.
            self.stale_completions += 1
        else:
            self._release(devices)
            tr = self.sim.tracer
            if tr is not None and tr.enabled:
                tr.complete(
                    f"gang:{req.node_label}",
                    "sched.granted",
                    req.granted_us,
                    self.sim.now,
                    track=f"sched/island{self.island.island_id}",
                    args={
                        "client": req.client,
                        "program": req.program,
                        "devices": len(devices),
                    },
                )
        self._check_drained()

    def stats(self):
        """Frozen scheduler snapshot (unified ``repro.stats`` protocol)."""
        from repro.stats import SchedulerStats

        return SchedulerStats(
            island_id=self.island.island_id,
            decisions=self.decisions,
            pending=sum(len(q) for q in self._pending.values()),
            live_grants=len(self._live_grants),
            evictions=self.evictions,
            deadline_evictions=self.deadline_evictions,
            stale_completions=self.stale_completions,
            rejected_draining=self.rejected_draining,
        )

    # -- fault tolerance ----------------------------------------------------
    def evict_device(self, device_id: int) -> None:
        """A device failed: fail every pending grant that names it and
        forget its granted-but-unfinished accounting.

        Requests on *surviving* devices keep their original sequence
        numbers, so the relative enqueue order of everything that can
        still run is unchanged — the consistent-order invariant survives
        the eviction.  Evicted work is replayed by the client's
        ``retry_on_failure`` path after the resource manager remaps its
        virtual slice.
        """
        self._purge_device(device_id)
        doomed_keys = [k for k in self._pending if device_id in k]
        doomed = sorted(
            (r for k in doomed_keys for r in self._pending.pop(k)), key=_seq
        )
        for req in doomed:
            self.evictions += 1
            if not req.grant.triggered:
                req.grant.fail(DeviceFailure(device_id, f"evicted {req.node_label}"))
        self._check_drained()

    def readmit_device(self, device_id: int) -> None:
        """A previously-evicted device restarted: drop any stale
        admission accounting so the device is schedulable again.

        Without this, a ``complete`` for a gang granted *before* the
        eviction can race work granted *after* the restart and corrupt
        the fresh counters (over-admitting past the queue depth).
        """
        self._purge_device(device_id)
        self._check_drained()

    def pause(self) -> None:
        """Island preemption: stop granting; pending requests are kept."""
        self._paused = True

    def resume(self) -> None:
        """End of preemption: resume granting in original seq order."""
        self._paused = False
        self._kick()

    # -- elastic drain/handback --------------------------------------------
    def drain(self) -> Event:
        """Stop admitting new gangs; admitted work runs to completion.

        The graceful half of a preemption notice: unlike :meth:`pause`
        (which strands granted work when the island's devices are then
        failed), a drain lets everything already admitted — granted
        gangs *and* requests pending at drain time — finish in order.
        *New* submissions fail fast (their grant fails with
        :class:`DeviceFailure`), which sends resilient clients through
        their recovery path, where the resource manager remaps them off
        the draining island.  Returns an event that fires once nothing
        admitted remains (no pending requests, no granted-but-unfinished
        gangs).
        """
        drained = self.sim.event(name=lambda: f"drained[{self.island.island_id}]")
        self._draining = True
        self._drain_waiters.append(drained)
        self._check_drained()
        return drained

    def undrain(self) -> None:
        """Resume granting after a drain (island handed back / kept)."""
        self._draining = False

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def in_flight(self) -> int:
        """Admitted-but-unfinished gangs (granted, or chosen and inside
        their decision delay)."""
        return len(self._live_grants)

    # -- internals -----------------------------------------------------
    def _eligible(self, device_ids: tuple[int, ...]) -> bool:
        depth = self.config.scheduler_queue_depth
        get = self._outstanding.get
        for d in device_ids:
            if get(d, 0) >= depth:
                return False
        return True

    def _select(self) -> Optional[GangRequest]:
        """The policy's pick among the eligible pending requests, or
        None when every pending request is blocked."""
        eligible = [q for key, q in self._pending.items() if self._eligible(key)]
        if not eligible:
            return None
        if getattr(self.policy, "picks_first_eligible", False):
            return min((q[0] for q in eligible), key=_seq)
        return self.policy.pick(sorted((r for q in eligible for r in q), key=_seq))

    def _unqueue(self, req: GangRequest) -> None:
        """Remove ``req`` (known to be pending) from its queue."""
        key = req.device_ids
        queue = self._pending[key]
        queue.remove(req)
        if not queue:
            del self._pending[key]

    def _release(self, device_ids: tuple[int, ...]) -> None:
        for d in device_ids:
            remaining = self._outstanding.get(d, 0) - 1
            if remaining > 0:
                self._outstanding[d] = remaining
            else:
                self._outstanding.pop(d, None)
        self._kick()

    def _purge_device(self, device_id: int) -> None:
        """Forget granted-work accounting involving ``device_id``; the
        surviving devices of affected gangs are released too (their
        kernels were aborted by the collective release)."""
        for seq, devices in list(self._live_grants.items()):
            if device_id in devices:
                del self._live_grants[seq]
                self._release(devices)

    def _expire(self, timeout: Timeout) -> None:
        """A submission's deadline passed: evict it if still pending."""
        req = timeout.value
        queue = self._pending.get(req.device_ids)
        if queue is None or req not in queue:
            return
        # Same removal path as a device eviction: surviving requests
        # keep their sequence numbers, so the relative enqueue order of
        # everything still eligible holds.
        self._unqueue(req)
        self.deadline_evictions += 1
        tr = self.sim.tracer
        if tr is not None and tr.enabled:
            tr.instant(
                f"evict:{req.node_label}",
                "sched.evict",
                track=f"sched/island{self.island.island_id}",
                args={"client": req.client, "reason": "deadline"},
            )
        if not req.grant.triggered:
            req.grant.fail(DeadlineExceeded(req.node_label, req.deadline_at_us))
        self._check_drained()

    def _check_drained(self) -> None:
        if not self._draining or self._live_grants or self._pending:
            return
        waiters, self._drain_waiters = self._drain_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(None)

    def _kick(self) -> None:
        """Start the grant pass at this instant unless it is running."""
        if not self._busy:
            self._busy = True
            self.sim.timeout(0.0).add_callback(self._grant_pass)

    def _grant_pass(self, _ev: Event) -> None:
        """Admit the policy's next eligible pick, or stop the pass.

        The winner's slots are taken as it leaves its queue, so an
        eviction or drain during the decision delay already sees it as
        admitted.  Draining does not stop the pass: requests admitted
        before the drain still grant in order.
        """
        choice = None if self._paused else self._select()
        if choice is None:
            self._busy = False
            return
        self._unqueue(choice)
        for d in choice.device_ids:
            self._outstanding[d] = self._outstanding.get(d, 0) + 1
        self._live_grants[choice.seq] = choice.device_ids
        decision_us = self.config.scheduler_decision_us
        if decision_us > 0:
            self.sim.timeout(decision_us).add_callback(lambda ev: self._grant(choice))
        else:
            self._grant(choice)

    def _grant(self, choice: GangRequest) -> None:
        """Grant ``choice``; the pass continues once it acknowledges."""
        self.decisions += 1
        choice.granted_us = self.sim.now
        tr = self.sim.tracer
        if tr is not None and tr.enabled:
            tr.complete(
                f"pend:{choice.node_label}",
                "sched.pending",
                choice.submitted_us,
                choice.granted_us,
                track=f"sched/island{self.island.island_id}",
                args={"client": choice.client, "program": choice.program},
            )
        choice.grant.succeed(None)
        # Serialize: the winner must finish appending its kernels before
        # anyone else is granted, preserving a single global enqueue
        # order on this island.
        choice.enqueued_ack.add_callback(self._grant_pass)
