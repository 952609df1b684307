"""Gang lanes: a homogeneous gang's devices and hosts, simulated once.

The shards of a gang-scheduled SPMD computation are identical by
construction: every device of the gang runs the same kernels in the same
order and finishes each at the same instant, and every host of the gang
does the same executor prep at the same time.  Simulating each shard on
its own repeats the same event chain once per device and once per host.

A :class:`GangLane` is the set of a bound
:class:`~repro.core.placement.DeviceGroup`'s devices, and their hosts,
that currently move in lockstep.  It is simulated once:

* the lane's **leader** device runs the :class:`~repro.hw.device.Device`
  drain state machine for every member.  It joins each collective once,
  with the member count as its weight, and applies each member's
  ``busy_us``, ``kernels_run``, ``kernels_aborted`` and HBM accounting at
  the same instant and in member order, so every per-device read stays
  exact;
* the lane's **leader host** issues one
  :meth:`~repro.hw.host.Host.prep_request` for all lane hosts.  It queues
  on its own serial CPU and mirrors each acquire and release onto the
  other lane hosts' CPUs.

Symmetry breaks member by member.  A device leaves the lane on its
failure, on a direct :meth:`~repro.hw.device.Device.enqueue` from outside
the lane, on an HBM grant that would queue, or when a later bind
overlaps it.  The leaving device takes a copy of the lane's drain state
(:meth:`~repro.hw.device.Device.adopt`) and from then on runs the same
state machine on its own.  The hosts leave together, on a host crash, on
any use of a lane host's CPU from outside the lane (input pipelines,
baselines) or on an overlapping bind.  Each in-flight lane prep is then
expanded into one prep per host.  Members never rejoin; a remap binds a
fresh group, which forms a fresh lane.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hw.device import Device, Kernel
from repro.hw.host import Host
from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.placement import DeviceGroup

__all__ = ["GangLane"]


def _quiescent_device(dev: Device) -> bool:
    return (
        not dev.failed
        and dev.lane is None
        and dev._idle
        and not dev._queue
        and not dev.hbm.queue_len
    )


def _quiescent_host(host: Host) -> bool:
    return (
        not host.failed
        and host.lane is None
        and host.cpu.in_use == 0
        and host.cpu.queue_len == 0
    )


class GangLane:
    """The lockstep devices and hosts of one bound device group.

    ``order`` and ``host_order`` are the whole group, in group order;
    ``devices`` and ``hosts`` are the members still in the lane (leader
    first).  :meth:`enqueue`, :meth:`prep` and :meth:`alloc` address the
    group: one call on the leader for the members, and the ordinary
    per-device or per-host call for everything that has left.
    """

    def __init__(self, group: "DeviceGroup", devices: list[Device], hosts: list[Host]):
        if not devices:
            raise ValueError("a gang lane needs at least one device")
        self.order = group.devices
        self.host_order = group.hosts
        self.devices = devices
        self.hosts = hosts
        self.sim = sim = devices[0].sim
        for dev in devices:
            dev.lane = self
        devices[0]._weight = len(devices)
        for host in hosts:
            host.lane = self
            host.cpu.on_acquire = self.split_hosts
        if sim.sanitize and sim.sanitizer is not None:
            #: Per-member accounting when it joined (sanitizer reference).
            self._joined_at = {
                dev.device_id: (dev.kernels_run, dev.kernels_aborted, dev.busy_us)
                for dev in devices
            }
            sim.sanitizer.watch(self)

    @classmethod
    def form(cls, group: "DeviceGroup") -> Optional["GangLane"]:
        """The lane of a freshly bound ``group``, or None.

        An overlapping bind breaks the lanes it touches: every device of
        ``group`` leaves the lane it was in, and the host side of any lane
        holding one of its hosts expands.  The new lane takes the devices that are idle, healthy
        and have no queued HBM grant, and the hosts of those devices that
        are up with an idle CPU.  With fewer than two such devices there
        is nothing to share, and with fewer than two such hosts each host
        preps on its own.
        """
        for dev in group.devices:
            if dev.lane is not None:
                dev.lane.split(dev)
        for host in group.hosts:
            if host.lane is not None:
                host.lane.split_hosts()
        devices = [d for d in group.devices if _quiescent_device(d)]
        if len(devices) < 2:
            return None
        hosts: list[Host] = []
        for dev in devices:
            host = dev.host
            if host is not None and host not in hosts and _quiescent_host(host):
                hosts.append(host)
        return cls(group, devices, hosts if len(hosts) > 1 else [])

    # -- the group's entry points ----------------------------------------
    def enqueue(self, kernel: Kernel) -> None:
        """Append the gang kernel ``kernel`` (one with a collective) to
        every device of the group, in group order."""
        members = self.devices
        if len(members) == len(self.order):
            members[0].enqueue(kernel, self)
            return
        for dev in self.order:
            if dev.lane is not self:
                dev.enqueue(kernel)
            elif dev is members[0]:
                dev.enqueue(kernel, self)

    def prep(self, work_us: float) -> list[Event]:
        """Executor prep of ``work_us`` on every host of the group; the
        completion events to wait on."""
        hosts = self.hosts
        if hosts and len(hosts) == len(self.host_order):
            return [hosts[0].prep_request(work_us, self)]
        events = []
        for host in self.host_order:
            if host.lane is not self:
                events.append(host.prep_request(work_us))
            elif host is hosts[0]:
                events.append(host.prep_request(work_us, self))
        return events

    def alloc(self, nbytes: int) -> list[tuple[Device, Event]]:
        """Reserve ``nbytes`` of HBM on every device of the group.

        Returns ``(device, grant)`` per device in group order.  Members
        share one instant grant, applied to each member's allocator in
        member order; a member whose grant would queue leaves the lane
        and reserves on its own, in its group-order place.
        """
        for dev in list(self.devices):
            if not dev.hbm.grant_now(nbytes):
                self.split(dev)
        granted = self.sim.granted()
        if len(self.devices) == len(self.order):
            return [(dev, granted) for dev in self.order]
        return [
            (dev, granted if dev.lane is self else dev.hbm.alloc(nbytes))
            for dev in self.order
        ]

    # -- splitting ------------------------------------------------------------
    def split(self, dev: Device) -> None:
        """``dev`` leaves the lane with a copy of the lane's drain state.

        If ``dev`` leads the lane, the next member takes over as leader
        with the same copy.  Safe to call for a device not in this lane.
        """
        if dev.lane is not self:
            return
        members = self.devices
        leader = members[0]
        members.remove(dev)
        dev.lane = None
        dev._weight = 1
        if dev is leader:
            if members:
                members[0].adopt(dev)
                members[0]._weight = len(members)
        else:
            dev.adopt(leader)
            leader._weight = len(members)

    def split_hosts(self) -> None:
        """Every lane host leaves, each taking its share of the lane's
        in-flight preps (see :meth:`Host.expand_lane_preps`)."""
        hosts = self.hosts
        if not hosts:
            return
        self.hosts = []
        for host in hosts:
            host.lane = None
            host.cpu.on_acquire = None
        hosts[0].expand_lane_preps()

    # -- sim-sanitizer ---------------------------------------------------------
    def _sanitizer_problems(self) -> list[tuple[str, str]]:
        """Drain-end check: no failed device is still in the lane, and
        every member ran, aborted and was busy for the same kernels since
        it joined."""
        problems: list[tuple[str, str]] = []
        deltas = []
        for dev in self.devices:
            if dev.failed:
                problems.append(
                    ("lanes", f"failed device {dev.name} is still in a gang lane")
                )
            run0, aborted0, busy0 = self._joined_at[dev.device_id]
            deltas.append(
                (dev.kernels_run - run0, dev.kernels_aborted - aborted0, dev.busy_us - busy0)
            )
        if deltas:
            run, aborted, busy = deltas[0]
            tol = 1e-9 * max(1.0, abs(busy))
            if any(
                (r, a) != (run, aborted) or abs(b - busy) > tol for r, a, b in deltas
            ):
                names = ", ".join(d.name for d in self.devices)
                problems.append(
                    (
                        "lanes",
                        f"gang lane [{names}] members' accounting diverged: {deltas}",
                    )
                )
        return problems
