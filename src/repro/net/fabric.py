"""The routed DCN fabric: links, routes, multipath, and contention.

The fabric models the datacenter network as a two-tier tree the way
first-principles infrastructure simulators do (MLSYSIM): every host owns
an egress (tx) and ingress (rx) NIC link, every island shares one uplink
pair to the spine, and ``SystemConfig.spine_paths`` parallel spine links
connect islands.  Routes are

* intra-island: ``src NIC tx -> dst NIC rx``
* cross-island: ``src NIC tx -> island uplink tx -> spine path ->
  island uplink rx -> dst NIC rx``

With ``spine_paths == 1`` (the default) the single spine path makes
routes static, reproducing the historical fabric byte-identically.  With
``spine_paths > 1`` the spine path is chosen per flow by a *seeded CRC*
of (src host, dst host, flow seq) — ECMP hash routing; deliberately not
Python ``hash()`` or ``id()``, which vary across interpreters and runs —
restricted to the paths currently up, so a spine-link failure rehashes
onto the survivors and :meth:`Fabric.route` returns ``None`` only when
*no* viable path exists (dead uplink, or every spine path down).

Links can be taken down (:meth:`Fabric.take_down`) and restored
(:meth:`Fabric.restore_link`): taking a link down evicts every flow
crossing it with exact capacity release — the same abort machinery host
crashes use — and hands the evicted flow keys back to the caller (the
transport), which reroutes or parks them.  A downed link therefore holds
zero capacity by construction and is exempt from the sanitizer's
drain-end ``LeakedCapacityError`` sweep until restore.

Links are shared under the flow-level fluid model packet-switched
networks approximate: a message occupies *every* link on its route
simultaneously and progresses at ``min over links of (link bandwidth /
flows on that link)``, recomputed whenever flow membership changes.  A
lone flow runs at its bottleneck link rate; aggregate goodput through a
shared uplink saturates at exactly the uplink bandwidth.

The fluid model runs on :class:`ScopedFluidSolver`, an incremental
engine: each link keeps the insertion-ordered set of flows crossing it,
so a membership change touches only the *affected set* (flows sharing a
link whose flow count changed), flow progress integrates lazily per
flow (work-remaining updated only when that flow's rate changes), and
projected completions live in a keyed heap with lazy invalidation —
O(affected · route + log F) per change.  Its reference,
:class:`repro.testing.oracles.DenseFluidSolver`, recomputes every live
flow's rate and min-scans all projected completions, O(F) per change;
tests and the NET-F bench row install it into an idle fabric.  Both
share the same flow arithmetic (:class:`_FluidSolver`) and drive one
cancellable :class:`~repro.sim.TimerHandle`, so they produce
**byte-identical schedules** — not merely equal delivery times — on
every scenario (``tests/test_fluid_solver.py`` pins this property).

Aborts are exact — an in-flight message whose endpoint host crashed
releases its share of every route link immediately, the network
analogue of the host CPU-slot release on crash: a failure may never
strand link bandwidth.

Links are created lazily per host/island, so elastically added islands
(:meth:`~repro.core.system.PathwaysSystem.add_island`) join the fabric
transparently.
"""

from __future__ import annotations

import heapq
import re
import zlib
from collections import deque
from operator import attrgetter
from typing import Deque, Optional, TYPE_CHECKING

from repro.config import SystemConfig
from repro.sim import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.host import Host

__all__ = ["Fabric", "Link", "ScopedFluidSolver"]

#: "Never finishes" sentinel for unrated flows' projected completion.
_NEVER = float("inf")


class Link:
    """One fabric hop: a bandwidth capacity plus its accounting.

    The :class:`Fabric`'s fluid solver drives progress; the link holds
    the flows crossing it, its up/down state, and busy-time history.
    """

    __slots__ = (
        "sim",
        "name",
        "kind",
        "up",
        "faults",
        "bytes_per_us",
        "bytes_carried",
        "flows_completed",
        "flows_aborted",
        "max_concurrency",
        "fluid_flows",
        "_fluid",
        "util_window_us",
        "_busy_since",
        "_busy_log",
    )

    def __init__(
        self,
        sim: Simulator,
        bytes_per_us: float,
        name: str = "",
        util_window_us: float = 100_000.0,
        kind: str = "link",
    ):
        if bytes_per_us <= 0:
            raise ValueError(f"link bandwidth must be positive, got {bytes_per_us}")
        self.sim = sim
        self.name = name or "link"
        #: Topology tier: "nic" (an endpoint hop — its death loses the
        #: messages endpointed there), "uplink", "spine", or "link".
        self.kind = kind
        #: False while the link is failed; a down link carries nothing
        #: (take-down evicts all occupancy) and refuses new crossings.
        self.up = True
        #: Times this link has been taken down.
        self.faults = 0
        self.bytes_per_us = bytes_per_us
        self.bytes_carried = 0
        self.flows_completed = 0
        self.flows_aborted = 0
        self.max_concurrency = 0
        #: Live fluid flows crossing this link (maintained by the fluid
        #: solver).  The count is denormalized from ``_fluid`` because
        #: it sits inside the rate formula's inner loop.
        self.fluid_flows = 0
        #: The flows themselves, insertion-ordered (dict-as-set): the
        #: scoped solver's affected-set walk and take-down eviction both
        #: iterate this, so a hash set here would feed the schedule from
        #: object addresses (RPR002).
        self._fluid: dict = {}
        #: How far back :meth:`busy_fraction` can look; older busy
        #: intervals are dropped so the log stays bounded.
        self.util_window_us = util_window_us
        #: Start of the current busy period (None while idle) plus the
        #: closed [start, end] busy intervals inside the window.
        self._busy_since: Optional[float] = None
        self._busy_log: Deque[list] = deque()

    # -- introspection ----------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when no flow occupies this link — the capacity-leak
        check benches and tests assert after faults."""
        return self.fluid_flows == 0

    # -- busy-time accounting (the utilization snapshot API) ----------------
    def _sync_busy(self) -> None:
        """Fold the carrying/idle transition into the busy log.

        Called after every occupancy change.  A link is *busy* while at
        least one flow crosses it.
        """
        busy = self.fluid_flows > 0
        now = self.sim.now
        if busy:
            if self._busy_since is None:
                self._busy_since = now
            return
        start, self._busy_since = self._busy_since, None
        if start is None or now <= start:
            return
        log = self._busy_log
        if log and start <= log[-1][1]:
            # Contiguous with (or overlapping) the previous interval —
            # merge so back-to-back flows cost one log entry.
            log[-1][1] = now
        else:
            log.append([start, now])
        horizon = now - self.util_window_us
        while log and log[0][1] < horizon:
            log.popleft()

    def busy_fraction(
        self, window_us: Optional[float] = None, now: Optional[float] = None
    ) -> float:
        """Fraction of the trailing window this link carried traffic.

        ``window_us`` is clamped to :attr:`util_window_us` (history is
        only kept that long) and to the elapsed simulation time, so an
        early query reports the fraction of time that actually passed.
        """
        if now is None:
            now = self.sim.now
        window = self.util_window_us if window_us is None else window_us
        window = min(window, self.util_window_us)
        lo = max(0.0, now - window)
        span = now - lo
        if span <= 0:
            return 1.0 if self._busy_since is not None else 0.0
        busy = 0.0
        for start, end in self._busy_log:
            busy += max(0.0, min(end, now) - max(start, lo))
        if self._busy_since is not None:
            busy += now - max(self._busy_since, lo)
        return min(1.0, busy / span)

    # -- fluid-flow membership (driven by the fluid solver) -----------------
    def fluid_enter(self, flow) -> None:
        self._fluid[flow] = None
        self.fluid_flows += 1
        if self.fluid_flows > self.max_concurrency:
            self.max_concurrency = self.fluid_flows
        self._sync_busy()

    def fluid_exit(self, flow) -> None:
        del self._fluid[flow]
        self.fluid_flows -= 1
        self._sync_busy()


class _Flow:
    """One fluid flow spanning its whole route."""

    __slots__ = (
        "key", "route", "remaining", "nbytes", "ev", "rate",
        "seq", "synced_at", "finish_at", "epoch", "cal_ver",
    )

    def __init__(self, key, route: list[Link], nbytes: int, ev: Event,
                 seq: int, now: float):
        self.key = key
        self.route = route
        self.remaining = float(nbytes)
        self.nbytes = nbytes
        self.ev = ev
        self.rate = 0.0
        #: Start order — the deterministic tie-break for same-instant
        #: completions (identical to the dense engine's insertion-order
        #: registry walk).
        self.seq = seq
        #: Last time ``remaining`` was integrated (lazy advance: work
        #: only moves from projection to state when the rate changes).
        self.synced_at = now
        #: Projected completion time at the current rate.
        self.finish_at = _NEVER
        #: Scoped-solver bookkeeping: last affected-set epoch (dedup
        #: across a multi-link walk) and the completion-calendar entry
        #: version (lazy invalidation of superseded projections).
        self.epoch = 0
        self.cal_ver = 0


_BY_SEQ = attrgetter("seq")


class _FluidSolver:
    """Shared machinery for the fluid fair-share engines.

    Subclasses choose the membership-update and next-finish strategy;
    everything observable — flow arithmetic, completion semantics,
    eviction order, the timer schedule — lives here and is shared,
    which is what makes the engines *byte-identical* rather than merely
    approximately equal (``tests/test_fluid_solver.py`` pins this).
    """

    def __init__(self, fabric: "Fabric"):
        self.fabric = fabric
        self.sim = fabric.sim
        #: key -> flow, insertion-ordered = start order (RPR002: a hash
        #: set here would order completions by object address).
        self.flows: dict = {}
        self.seq = 0
        #: The one next-finish timer.  ``schedule()`` at an unchanged
        #: target is a seq-free no-op, so both engines consume sequence
        #: numbers identically — whole-simulation schedules match.
        self.timer = self.sim.timer_handle(self._on_timer, name="net_next_finish")
        #: Observability (see ``FabricStats``).
        self.peak_flows = 0
        self.completed = 0
        self.membership_updates = 0
        self.flows_touched = 0
        self.rate_recomputes = 0

    # -- shared canonical arithmetic ------------------------------------
    def _update_flow(self, flow: _Flow, now: float) -> bool:
        """Recompute one flow's fair-share rate; on change, integrate
        progress at the old rate and re-project completion.

        The exact-float compare carries the equivalence argument: a
        flow's rate is a pure function of its route links' flow counts,
        so a flow none of whose links changed recomputes to the
        bit-identical value and is skipped — the dense engine's skip
        set equals the scoped engine's unaffected set exactly.
        """
        self.rate_recomputes += 1
        rate = min(link.bytes_per_us / link.fluid_flows for link in flow.route)
        if rate == flow.rate:
            return False
        elapsed = now - flow.synced_at
        if elapsed > 0.0:
            flow.remaining -= flow.rate * elapsed
            flow.synced_at = now
        flow.rate = rate
        remaining = flow.remaining
        if remaining < 0.0:
            remaining = 0.0
        flow.finish_at = now + remaining / rate
        return True

    def _sync(self, flow: _Flow, now: float) -> float:
        """Integrate ``remaining`` up to ``now`` without a rate change
        (eviction reporting); returns the clamped remaining bytes."""
        elapsed = now - flow.synced_at
        if elapsed > 0.0:
            flow.remaining -= flow.rate * elapsed
            flow.synced_at = now
        remaining = flow.remaining
        return remaining if remaining > 0.0 else 0.0

    # -- membership ------------------------------------------------------
    def start(self, key, route: list[Link], nbytes: int, ev: Event) -> None:
        now = self.sim._now
        self.seq += 1
        flow = _Flow(key, route, nbytes, ev, self.seq, now)
        self.flows[key] = flow
        n = len(self.flows)
        if n > self.peak_flows:
            self.peak_flows = n
        for link in route:
            link.fluid_enter(flow)
        self._membership_changed((route,), now)
        self._settle_timer(now)

    def abort(self, key) -> bool:
        flow = self.flows.pop(key, None)
        if flow is None:
            return False
        flow.cal_ver += 1
        for link in flow.route:
            link.fluid_exit(flow)
            link.flows_aborted += 1
        now = self.sim._now
        self._membership_changed((flow.route,), now)
        self._settle_timer(now)
        return True

    def evict_crossing(self, link: Link) -> list[tuple[object, float]]:
        """Sync and report every fluid flow crossing ``link``, in start
        order, with its exact remaining bytes (take-down eviction).
        The caller aborts the victims afterwards."""
        now = self.sim._now
        return [(flow.key, self._sync(flow, now)) for flow in link._fluid]

    # -- completion ------------------------------------------------------
    def _on_timer(self, handle) -> None:
        self._run_completions(self.sim._now)

    def _run_completions(self, now: float) -> None:
        due = self._collect_due(now)
        while due:
            self.completed += len(due)
            for flow in due:
                del self.flows[flow.key]
                flow.cal_ver += 1
                for link in flow.route:
                    link.fluid_exit(flow)
                    link.bytes_carried += flow.nbytes
                    link.flows_completed += 1
                if not flow.ev.triggered:
                    flow.ev.succeed(None)
            self._membership_changed([f.route for f in due], now)
            # Survivors' rates only rose, so a projection can land on
            # ``now`` again (float dust): complete those too, this
            # instant, exactly like the historical synchronous path.
            due = self._collect_due(now)
        self._settle_timer(now)

    def _settle_timer(self, now: float) -> None:
        """Re-arm the next-finish timer after any membership change."""
        if not self.flows:
            self.timer.cancel()
            self._on_idle()
            return
        best = self._min_finish()
        if best <= now:
            self._run_completions(now)
            return
        self.timer.schedule(best)

    def _on_idle(self) -> None:
        """Hook: the last flow left the fabric."""

    # -- strategy hooks --------------------------------------------------
    def _membership_changed(self, routes, now: float) -> None:
        raise NotImplementedError

    def _collect_due(self, now: float) -> list[_Flow]:
        raise NotImplementedError

    def _min_finish(self) -> float:
        raise NotImplementedError


class ScopedFluidSolver(_FluidSolver):
    """Scoped incremental engine: O(affected) updates + a completion
    calendar.

    A membership change re-rates only the flows that share a link with
    the changed route(s) — the only flows whose ``bandwidth / count``
    inputs moved.  Changed projections push versioned entries into a
    keyed heap; superseded entries are invalidated lazily on contact,
    so the next-finish question is an O(log F) peek instead of a
    min-scan.
    """

    def __init__(self, fabric: "Fabric"):
        super().__init__(fabric)
        self.epoch = 0
        #: Completion calendar: ``(finish_at, seq, cal_ver, flow)``
        #: entries; an entry is live while its version matches the
        #: flow's current ``cal_ver``.
        self.calendar: list = []

    def _membership_changed(self, routes, now: float) -> None:
        self.membership_updates += 1
        epoch = self.epoch = self.epoch + 1
        touched = 0
        cal = self.calendar
        push = heapq.heappush
        update = self._update_flow
        for route in routes:
            for link in route:
                for flow in link._fluid:
                    if flow.epoch == epoch:
                        continue
                    flow.epoch = epoch
                    touched += 1
                    if update(flow, now):
                        ver = flow.cal_ver = flow.cal_ver + 1
                        push(cal, (flow.finish_at, flow.seq, ver, flow))
        self.flows_touched += touched
        if len(cal) > 64 and len(cal) > 4 * len(self.flows):
            # Compact: at most one entry per flow is live; the rest is
            # superseded-projection garbage.  Values are untouched, so
            # this is schedule-neutral.
            live = [e for e in cal if e[2] == e[3].cal_ver]
            heapq.heapify(live)
            self.calendar = live

    def _collect_due(self, now: float) -> list[_Flow]:
        cal = self.calendar
        due = []
        pop = heapq.heappop
        while cal:
            head = cal[0]
            if head[2] != head[3].cal_ver:
                pop(cal)
                continue
            if head[0] > now:
                break
            pop(cal)
            due.append(head[3])
        if len(due) > 1:
            # Same-instant completions resolve in start order — exactly
            # the dense engine's registry-walk order.
            due.sort(key=_BY_SEQ)
        return due

    def _min_finish(self) -> float:
        cal = self.calendar
        pop = heapq.heappop
        while cal:
            head = cal[0]
            if head[2] == head[3].cal_ver:
                return head[0]
            pop(cal)
        # Unreachable while flows exist: every live flow keeps one live
        # calendar entry (pushed at birth and on every rate change).
        return _NEVER

    def _on_idle(self) -> None:
        self.calendar.clear()


class Fabric:
    """Topology-aware link set with static two-tier routes.

    Links are created on first use from the config's bandwidth knobs, so
    islands added at runtime get fabric links with no registration step.
    The fabric also runs the fluid fair-share engine
    (:meth:`start_flow` / :meth:`abort_flow`) that carries every
    contended message.
    """

    def __init__(self, sim: Simulator, config: SystemConfig):
        self.sim = sim
        self.config = config
        if config.spine_paths < 1:
            raise ValueError(
                f"spine_paths must be >= 1, got {config.spine_paths}"
            )
        self._nic_tx: dict[int, Link] = {}
        self._nic_rx: dict[int, Link] = {}
        self._uplink_tx: dict[int, Link] = {}
        self._uplink_rx: dict[int, Link] = {}
        self._spines: list[Link] = []
        #: The fluid fair-share engine.
        self._solver = ScopedFluidSolver(self)
        if sim.sanitize and sim.sanitizer is not None:
            sim.sanitizer.watch(self)

    # -- link accessors ----------------------------------------------------
    def _nic_tx_link(self, host_id: int) -> Link:
        link = self._nic_tx.get(host_id)
        if link is None:
            link = self._nic_tx[host_id] = Link(
                self.sim,
                self.config.dcn_bytes_per_us,
                name=f"nic_tx[h{host_id}]",
                util_window_us=self.config.net_util_window_us,
                kind="nic",
            )
        return link

    def _nic_rx_link(self, host_id: int) -> Link:
        link = self._nic_rx.get(host_id)
        if link is None:
            link = self._nic_rx[host_id] = Link(
                self.sim,
                self.config.dcn_bytes_per_us,
                name=f"nic_rx[h{host_id}]",
                util_window_us=self.config.net_util_window_us,
                kind="nic",
            )
        return link

    def nic_tx(self, host: "Host") -> Link:
        return self._nic_tx_link(host.host_id)

    def nic_rx(self, host: "Host") -> Link:
        return self._nic_rx_link(host.host_id)

    def uplink_tx(self, island_id: int) -> Link:
        link = self._uplink_tx.get(island_id)
        if link is None:
            link = self._uplink_tx[island_id] = Link(
                self.sim,
                self.config.net_island_uplink_bytes_per_us,
                name=f"uplink_tx[i{island_id}]",
                util_window_us=self.config.net_util_window_us,
                kind="uplink",
            )
        return link

    def uplink_rx(self, island_id: int) -> Link:
        link = self._uplink_rx.get(island_id)
        if link is None:
            link = self._uplink_rx[island_id] = Link(
                self.sim,
                self.config.net_island_uplink_bytes_per_us,
                name=f"uplink_rx[i{island_id}]",
                util_window_us=self.config.net_util_window_us,
                kind="uplink",
            )
        return link

    def spine_links(self) -> list[Link]:
        """The k parallel spine paths (built lazily on first use)."""
        if not self._spines:
            k = self.config.spine_paths
            self._spines = [
                Link(
                    self.sim,
                    self.config.net_spine_bytes_per_us,
                    # The single-path name stays "spine" so default-config
                    # schedules, stats keys, and goldens are unchanged.
                    name="spine" if k == 1 else f"spine[p{i}]",
                    util_window_us=self.config.net_util_window_us,
                    kind="spine",
                )
                for i in range(k)
            ]
        return self._spines

    @property
    def spine(self) -> Link:
        """Spine path 0 (the whole spine when ``spine_paths == 1``)."""
        return self.spine_links()[0]

    # -- routing -----------------------------------------------------------
    def spine_path(self, src: "Host", dst: "Host", flow_seq: int) -> Optional[Link]:
        """ECMP: hash one flow onto a surviving spine path (None if all
        are down).  The hash is a seeded CRC of the flow identity —
        stable across runs, interpreters, and ``debug_names`` — and is
        taken over the *up* paths, so a failed path's flows rehash onto
        the survivors while flows on healthy paths keep their path."""
        spines = self.spine_links()
        if len(spines) == 1:
            return spines[0] if spines[0].up else None
        up = [link for link in spines if link.up]
        if not up:
            return None
        digest = zlib.crc32(
            b"%d:%d:%d:%d"
            % (self.config.net_ecmp_seed, src.host_id, dst.host_id, flow_seq)
        )
        return up[digest % len(up)]

    def route(
        self, src: "Host", dst: "Host", flow_seq: int = 0
    ) -> Optional[list[Link]]:
        """The route for one flow (loopback routes are empty).

        Down *endpoint* NICs are still returned — whether a dead NIC
        loses the message is the transport's call — but a cross-island
        route is only viable through live middle hops: ``None`` means no
        surviving path exists right now (an uplink on the only path is
        down, or every spine path is) and the flow should park until a
        restore.
        """
        if src is dst:
            return []
        if src.island_id == dst.island_id:
            return [self.nic_tx(src), self.nic_rx(dst)]
        up_tx = self.uplink_tx(src.island_id)
        up_rx = self.uplink_rx(dst.island_id)
        if not (up_tx.up and up_rx.up):
            return None
        spine = self.spine_path(src, dst, flow_seq)
        if spine is None:
            return None
        return [self.nic_tx(src), up_tx, spine, up_rx, self.nic_rx(dst)]

    # -- the fluid fair-share engine ----------------------------------------
    def start_flow(self, key, route: list[Link], nbytes: int) -> Event:
        """Start one fluid flow across ``route``; returns its completion.

        The flow progresses at the min over its links of
        ``bandwidth / flows_on_link``, maintained by the configured
        fluid solver (scoped incremental by default; see the module
        docstring).
        """
        debug = self.sim.debug_names
        ev = Event(self.sim, "flow" if debug else "")
        if nbytes <= 0 or not route:
            ev.succeed(None)
            return ev
        self._solver.start(key, route, nbytes, ev)
        return ev

    def abort_flow(self, key) -> bool:
        """Remove one fluid flow, releasing its share on every link."""
        return self._solver.abort(key)

    # -- link faults ---------------------------------------------------------
    _LINK_NAME = re.compile(
        r"^(?:(nic_tx|nic_rx)\[h(\d+)\]|(uplink_tx|uplink_rx)\[i(\d+)\]"
        r"|spine(?:\[p(\d+)\])?)$"
    )

    def link_by_name(self, name: str) -> Link:
        """Resolve a link by its stable name, materializing it if needed.

        Accepts ``nic_tx[hN]`` / ``nic_rx[hN]`` / ``uplink_tx[iN]`` /
        ``uplink_rx[iN]`` / ``spine`` / ``spine[pN]`` — the same names
        :meth:`utilization` reports — so fault schedules can target
        links that have not carried traffic yet.
        """
        m = self._LINK_NAME.match(name)
        if m is None:
            raise KeyError(f"unknown link name {name!r}")
        nic_kind, host_id, up_kind, island_id, spine_idx = m.groups()
        if nic_kind == "nic_tx":
            return self._nic_tx_link(int(host_id))
        if nic_kind == "nic_rx":
            return self._nic_rx_link(int(host_id))
        if up_kind == "uplink_tx":
            return self.uplink_tx(int(island_id))
        if up_kind == "uplink_rx":
            return self.uplink_rx(int(island_id))
        idx = int(spine_idx) if spine_idx is not None else 0
        spines = self.spine_links()
        if idx >= len(spines):
            raise KeyError(
                f"spine path {idx} out of range (spine_paths={len(spines)})"
            )
        return spines[idx]

    def take_down(self, link: Link) -> list[tuple[object, float]]:
        """Fail one link, evicting every flow crossing it *exactly*.

        Flows with the link on their route are aborted (their share on
        every route link released).  Returns the evicted flow keys in
        deterministic (start-order) sequence, each with the flow's
        remaining bytes at eviction time.  The caller — the transport —
        decides each victim's fate: reroute, park, or lose.

        A downed link holds zero capacity by construction, so it is
        exempt from the drain-end ``LeakedCapacityError`` sweep until
        :meth:`restore_link`.
        """
        if not link.up:
            return []
        link.up = False
        link.faults += 1
        victims = self._solver.evict_crossing(link)
        for key, _ in victims:
            self._solver.abort(key)
        return victims

    def restore_link(self, link: Link) -> bool:
        """Bring a downed link back up (False if it was not down)."""
        if link.up:
            return False
        link.up = True
        return True

    def down_links(self) -> list[Link]:
        return [link for link in self.links() if not link.up]

    # -- introspection -----------------------------------------------------
    def links(self) -> list[Link]:
        return (
            list(self._nic_tx.values())
            + list(self._nic_rx.values())
            + list(self._uplink_tx.values())
            + list(self._uplink_rx.values())
            + list(self._spines)
        )

    @property
    def active_flows(self) -> int:
        return len(self._solver.flows)

    @property
    def idle(self) -> bool:
        """No flow anywhere on the fabric (capacity-leak invariant)."""
        return not self._solver.flows and all(link.idle for link in self.links())

    def busy_links(self) -> list[Link]:
        """Links carrying traffic.  Down links are exempt:
        take-down evicts all occupancy, so they hold zero capacity by
        construction until restored."""
        return [link for link in self.links() if link.up and not link.idle]

    def _sanitizer_problems(self) -> list[tuple[str, str]]:
        """Drain-end capacity invariant: every flow gone, every link idle.

        A residual here is the network slot-leak — an abort path that
        failed to hand back a flow's share of link capacity.
        """
        problems: list[tuple[str, str]] = []
        flows = self._solver.flows
        if flows:
            keys = ", ".join(repr(getattr(k, "name", k)) for k in flows)
            problems.append(
                (
                    "capacity",
                    f"fabric drained with {len(flows)} live fluid "
                    f"flow(s): {keys}",
                )
            )
        stuck = self.busy_links()
        if stuck:
            names = ", ".join(link.name for link in stuck[:8])
            more = "" if len(stuck) <= 8 else f" (+{len(stuck) - 8} more)"
            problems.append(
                (
                    "capacity",
                    f"{len(stuck)} fabric link(s) not idle at drain end: "
                    f"{names}{more}",
                )
            )
        return problems

    def stats(self):
        """Frozen fluid-solver snapshot (the unified ``repro.stats``
        protocol) — solver observability for benches and workloads."""
        from repro.stats import FabricStats

        s = self._solver
        t = s.timer
        links = self.links()
        return FabricStats(
            active_flows=len(s.flows),
            peak_concurrent_flows=s.peak_flows,
            flows_started=s.seq,
            flows_completed=s.completed,
            membership_updates=s.membership_updates,
            flows_touched=s.flows_touched,
            rate_recomputes=s.rate_recomputes,
            timer_rearms=t.rearms,
            timer_cancels=t.cancels,
            timer_fires=t.fires,
            links=len(links),
            links_down=sum(1 for link in links if not link.up),
            idle=self.idle,
        )

    def utilization(self, window_us: Optional[float] = None) -> dict[str, float]:
        """Per-link busy fraction over the trailing sliding window.

        Keys are link names (``nic_tx[h0]``, ``uplink_rx[i1]``,
        ``spine``, ...); values are the fraction of the last
        ``window_us`` (default, and at most, the config's
        ``net_util_window_us``) the link spent carrying traffic.  The
        serving autoscaler reads this to prefer islands with idle
        uplinks, and it is the seed signal for congestion-aware
        placement.
        """
        now = self.sim.now
        return {
            link.name: link.busy_fraction(window_us, now)
            for link in self.links()
        }

    def uplink_utilization(
        self, island_id: int, window_us: Optional[float] = None
    ) -> float:
        """Busier direction of one island's uplink pair (0.0..1.0)."""
        now = self.sim.now
        return max(
            self.uplink_tx(island_id).busy_fraction(window_us, now),
            self.uplink_rx(island_id).busy_fraction(window_us, now),
        )
