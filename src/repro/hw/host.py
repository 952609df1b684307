"""Hosts: serial CPUs with PCIe-attached devices.

A host owns a handful of devices (4 or 8 in the paper's configurations)
and performs all *host-side* work: Python/C++ dispatch, executor
preparation (buffer allocation, launch descriptor setup), and DCN message
handling.  The CPU is a serial resource — host-side work on the critical
path is exactly what parallel asynchronous dispatch (paper §4.5) removes,
so contention here must be modeled, not abstracted away.

A host *crash* takes down more than its PCIe-attached devices: the CPU
itself becomes unavailable, so executor prep that is queued for (or
holding) the CPU fails fast with :class:`HostFailure` instead of
"running" on dead silicon.  That failure cascades into the dispatching
program exactly like a :class:`~repro.hw.device.DeviceFailure`, which is
where ``retry_on_failure`` catches it.

The hosts of a gang lane (:mod:`repro.hw.lane`) prep in lockstep: the
lane's leader host issues one :meth:`Host.prep_request` for all of them,
queues it on its own CPU and mirrors each acquire and release onto the
others.  A crash, an overlapping bind or any CPU use from outside the
lane expands the in-flight lane preps into one prep per host
(:meth:`Host.expand_lane_preps`).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, TYPE_CHECKING

from repro.config import SystemConfig
from repro.sim import Event, Process, Resource, Simulator

from repro.hw.device import Device, FaultError, Kernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.lane import GangLane

__all__ = ["Host", "HostFailure"]


class HostFailure(FaultError):
    """Host-side work was lost because its host crashed.

    Mirrors :class:`~repro.hw.device.DeviceFailure` for the CPU half of a
    host crash: executor preps queued on (or holding) the dead host's CPU
    fail with this instead of completing impossibly.
    """

    def __init__(self, host_id: int, reason: str = "host crash"):
        super().__init__(f"host h{host_id} failed: {reason}")
        self.host_id = host_id
        self.reason = reason


class Host:
    """A machine with a serial CPU, a NIC, and PCIe-attached devices."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        host_id: int,
        island_id: int,
    ):
        self.sim = sim
        self.config = config
        self.host_id = host_id
        self.island_id = island_id
        self.devices: list[Device] = []
        debug = sim.debug_names
        #: Serial CPU doing dispatch/prep work.  Leak-checked: every
        #: grant must be released by drain end (the PR-3 slot-leak bug
        #: class) — the sim-sanitizer enforces it when enabled.
        self.cpu = Resource(
            sim,
            capacity=1,
            name=f"cpu[h{host_id}]" if debug else "cpu",
            leak_check=True,
        )
        #: NIC egress serialization for DCN sends (leak-checked too).
        self.nic = Resource(
            sim,
            capacity=1,
            name=f"nic[h{host_id}]" if debug else "nic",
            leak_check=True,
        )
        #: Set while the host is crashed; its devices are down with it.
        self.failed = False
        #: In-flight prep work processes, interrupted on crash.
        #: Insertion-ordered (dict-as-set): crash interrupts walk these
        #: in spawn order — a hash set would iterate by object address
        #: and make the failure schedule nondeterministic.
        self._prep_procs: dict[Process, None] = {}
        #: In-flight event-chain preps (:meth:`prep_request`), aborted
        #: on crash.  Same ordering argument as ``_prep_procs``.
        self._live_preps: dict[_PrepState, None] = {}
        self.preps_aborted = 0
        #: The gang lane whose hosts this one preps in lockstep with.
        self.lane: Optional["GangLane"] = None
        #: Crash observers (the transport layer fails in-flight messages
        #: routed through this host's NIC on crash).
        self._crash_listeners: list[Callable[["Host"], object]] = []

    @property
    def name(self) -> str:
        return f"h{self.host_id}"

    def crash(self, reason: str = "host crash") -> None:
        """Take the host down: every attached device fails, and the CPU
        becomes unavailable — queued acquisitions and in-flight prep work
        fail fast with :class:`HostFailure`."""
        if self.failed:
            return
        if self.lane is not None:
            self.lane.split_hosts()
        self.failed = True
        for device in self.devices:
            device.fail(reason)
        cause = HostFailure(self.host_id, reason)
        # Queued CPU waiters first (they would otherwise be granted a
        # slot on the dead CPU), then in-flight holders.
        self.cpu.fail_waiters(cause)
        # Sends still queued for the dead NIC can never serialize.
        self.nic.fail_waiters(cause)
        for proc in list(self._prep_procs):
            self.preps_aborted += 1
            proc.interrupt(cause)
        for state in list(self._live_preps):
            self.preps_aborted += 1
            state.abort(cause)
        # Route invalidation: the transport fails in-flight messages
        # endpointed at this host's NIC.
        for listener in list(self._crash_listeners):
            listener(self)

    def restore(self) -> None:
        """Bring the host and its devices back (empty queues)."""
        if not self.failed:
            return
        self.failed = False
        for device in self.devices:
            device.restart()

    def add_crash_listener(self, fn: Callable[["Host"], object]) -> None:
        """Run ``fn(host)`` whenever this host crashes (after its CPU and
        NIC waiters have been failed, so a listener observes the queues
        already settled)."""
        self._crash_listeners.append(fn)

    def attach(self, device: Device) -> None:
        device.host = self
        self.devices.append(device)

    # -- host-side work ----------------------------------------------------
    def cpu_work(self, work_us: float) -> Generator:
        """Occupy the serial CPU for ``work_us``.  ``yield from`` this."""
        yield from self.cpu.using(self.sim, work_us)

    def prep_process(self, work_us: float, name: str = "") -> Process:
        """Spawn executor-prep CPU work as a crash-aware process.

        The returned process fails with :class:`HostFailure` if the host
        is already down or crashes while the work is queued or running —
        the fail-fast path that feeds ``retry_on_failure``.
        """
        proc = self.sim.process(
            self._guarded_cpu_work(work_us),
            name=name or (f"prep@{self.name}" if self.sim.debug_names else ""),
        )
        self._prep_procs[proc] = None
        proc.add_callback(lambda ev: self._prep_procs.pop(proc, None))
        return proc

    def _guarded_cpu_work(self, work_us: float) -> Generator:
        if self.failed:
            raise HostFailure(self.host_id, "prep on crashed host")
        yield from self.cpu.using(self.sim, work_us)

    def prep_request(self, work_us: float, lane: Optional["GangLane"] = None) -> Event:
        """Crash-aware executor-prep CPU occupancy, without a process.

        Semantically :meth:`prep_process` (acquire the serial CPU, hold
        it for ``work_us``, release; fail fast with
        :class:`HostFailure` if the host is down or crashes meanwhile)
        but wired as an event chain — no generator, no Process, no
        bootstrap — because the executor layer issues one of these per
        (node, host) and paper-scale dispatch sweeps create hundreds of
        thousands of them.  Returns the completion event.

        With ``lane`` (this host leads the lane's hosts) the one request
        stands for the prep of every lane host.
        """
        done = Event(self.sim)
        if self.failed:
            done.fail(HostFailure(self.host_id, "prep on crashed host"))
            return done
        mirrors = lane.hosts[1:] if lane is not None else ()
        state = _PrepState(self, done, work_us, mirrors)
        self._live_preps[state] = None
        from_lane = lane is not None
        # Slot ownership transfers to the _PrepState, which releases it
        # in on_done/abort on every path.
        if self.cpu.try_acquire(from_lane):  # repro: noqa[RPR005]
            # Uncontended CPU: go straight to the hold phase.
            state.hold()
        else:
            # Same ownership transfer on the contended path: on_grant
            # either starts the hold or hands the slot straight back if
            # the prep was aborted meanwhile.
            self.cpu.request(from_lane).add_callback(state.on_grant)  # repro: noqa[RPR005]
        return done

    def expand_lane_preps(self) -> None:
        """Turn this (former lane leader) host's in-flight lane preps into
        one prep per host.

        Each mirrored host gets its own :class:`_PrepState`: it keeps the
        CPU slot the lane prep mirrored onto it, or queues on its own CPU
        in the lane prep's FIFO place.  The lane prep's completion event
        then fires once every host's part is done, or fails with the
        first part that fails.
        """
        for state in list(self._live_preps):
            mirrors = state.mirrors
            if not mirrors:
                continue
            state.mirrors = ()
            barrier = state.barrier
            if barrier is None:
                barrier = state.barrier = _PrepBarrier(state.done)
            for host in mirrors:
                part = _PrepState(host, state.done, state.work_us, (), barrier)
                barrier.remaining += 1
                host._live_preps[part] = None
                if state.holding:
                    # The mirrored slot becomes the part's own; it is
                    # released when the lane prep's hold ends.
                    part.holding = True
                    state.riders += (part,)
                else:
                    host.cpu.request(True).add_callback(part.on_grant)  # repro: noqa[RPR005]

    def _finish_prep(self, state: "_PrepState") -> None:
        self._live_preps.pop(state, None)

    def enqueue_kernel(self, device: Device, kernel: Kernel) -> Generator:
        """Dispatch one kernel over PCIe: CPU launch work + PCIe latency.

        Returns (via StopIteration value) the kernel's completion event,
        which the caller may or may not wait on — enqueue is asynchronous
        (Appendix A.2).
        """
        if device.host is not self:
            raise ValueError(
                f"device {device.name} is attached to "
                f"{device.host.name if device.host else 'no host'}, not {self.name}"
            )
        yield from self.cpu_work(self.config.host_launch_work_us)
        yield self.sim.timeout(self.config.pcie_latency_us)
        return device.enqueue(kernel)


class _PrepBarrier:
    """The completion of a lane prep expanded into per-host parts: fires
    once every part is done, or fails with the first part that fails."""

    __slots__ = ("done", "remaining")

    def __init__(self, done: Event):
        self.done = done
        self.remaining = 1

    def settle(self, exc: Optional[BaseException]) -> None:
        done = self.done
        if done.triggered:
            return
        if exc is not None:
            done.fail(exc)
            return
        self.remaining -= 1
        if self.remaining == 0:
            done.succeed_inline(None)


class _PrepState:
    """In-flight :meth:`Host.prep_request` bookkeeping.

    Mirrors the acquire/hold/release lifecycle of
    ``Resource.using`` as explicit callbacks, plus the crash path: if
    the host dies while this prep is queued or holding the CPU, the
    completion event fails with :class:`HostFailure` and the CPU slot is
    returned (a granted-but-unobserved slot is released when the stale
    grant is processed, so a crash can never leak the serial CPU).

    ``mirrors`` are the other hosts of a gang lane whose CPUs this prep
    holds in lockstep with its own; ``riders`` are parts of an expanded
    lane prep whose hold ends with this one's (see
    :meth:`Host.expand_lane_preps`).
    """

    __slots__ = (
        "host", "done", "work_us", "holding", "finished", "mirrors", "barrier", "riders",
    )

    def __init__(
        self,
        host: Host,
        done: Event,
        work_us: float,
        mirrors=(),
        barrier: Optional[_PrepBarrier] = None,
    ):
        self.host = host
        self.done = done
        self.work_us = work_us
        self.holding = False
        #: Settled or aborted: a grant arriving now is handed back.
        self.finished = False
        self.mirrors = mirrors
        self.barrier = barrier
        self.riders: tuple[_PrepState, ...] = ()

    def _settle(self, exc: Optional[BaseException]) -> None:
        self.finished = True
        if self.barrier is not None:
            self.barrier.settle(exc)
        elif not self.done.triggered:
            if exc is None:
                # Completion notification: the only waiter is the
                # executor's prep barrier, which reacts at this same
                # instant either way.
                self.done.succeed_inline(None)
            else:
                self.done.fail(exc)

    def hold(self) -> None:
        self.holding = True
        if self.mirrors:
            # Released in on_done, or by each host's part once expanded.
            Resource.shift_lockstep([host.cpu for host in self.mirrors], 1)
        if self.work_us > 0:
            # Identical prep work fans out to every host of a group at
            # the same instant; share the completion timeout.
            self.host.sim.shared_timeout(self.work_us).add_callback(self.on_done)
        else:
            self.on_done(None)

    def on_grant(self, ev: Event) -> None:
        host = self.host
        if self.finished:
            # Aborted (crash) while queued.  A grant that nevertheless
            # arrived reserved a slot for a dead prep: hand it back.
            if ev._exc is None:
                host.cpu.release()
            return
        if ev._exc is not None:
            # Queued waiter failed by Host.crash via cpu.fail_waiters.
            host._finish_prep(self)
            self._settle(ev._exc)
            return
        self.hold()

    def on_done(self, ev: Optional[Event]) -> None:
        if self.holding:
            self.holding = False
            host = self.host
            host._finish_prep(self)
            host.cpu.release()
            if self.mirrors:
                Resource.shift_lockstep([mirror.cpu for mirror in self.mirrors], -1)
            self._settle(None)
        # else: aborted (crash) while holding; CPU already released there.
        if self.riders:
            riders, self.riders = self.riders, ()
            for part in riders:
                part.on_done(ev)

    def abort(self, cause: BaseException) -> None:
        host = self.host
        host._finish_prep(self)
        if self.holding:
            self.holding = False
            host.cpu.release()
        self._settle(cause)
