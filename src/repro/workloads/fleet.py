"""Config-C fleet timer load: the calendar-queue engine's stress test.

A fleet deployment is many configuration-C cells (4 islands of
4 hosts x 8 TPUs each) run as one simulation.  Its event population has
a very particular shape that a binary heap handles badly and a calendar
queue handles in O(1):

* a large **active** set of fixed-period recurring clocks — per-device
  telemetry scrapes and per-host heartbeats — that drives the event
  *rate*, and
* an even larger **dormant** set of long-horizon one-shot timers — MTBF
  failure draws, lease expirations, checkpoint deadlines — that sits far
  in the future, almost never fires, yet deepens every ``heappop`` to
  ``log2(active + dormant)`` levels of pointer-chasing.

The calendar queue keeps the dormant population untouched in its
overflow ring and services the active set from O(1) buckets, so its cost
per event is flat in the dormant depth.  ``run_fleet_telemetry`` builds
exactly this population (sized from a per-cell :class:`ClusterSpec`,
config C by default), warms it past the initial bucket-sizing phase,
and times nothing but the steady-state drain — setup and warmup are
reported separately so the measured events/sec is the engine's, not the
allocator's.

Timing hygiene (why ``manage_gc``): CPython's gen-0 collector triggers
on *net* allocations.  A steady-state timer population allocates and
frees at the same rate, so the counter stalls and hundreds of thousands
of live objects accumulate un-promoted — then one collection pass lands
inside the measured window as seconds of noise.  The standard bench
practice (pyperf does the same) is to collect, freeze the survivors,
and disable the collector around the measured region; tick paths are
allocation-free (:class:`~repro.sim.Ticker`), so nothing leaks.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.hw.cluster import ClusterSpec, config_c
from repro.sim import Simulator
from repro.testing.oracles import use_timer_queue

__all__ = ["FleetResult", "run_fleet_telemetry"]

#: Dormant timers are armed this far past the measured window (µs): far
#: enough that the calendar queue parks them in its overflow ring.
DORMANT_HORIZON_US = 1e9


@dataclass(frozen=True)
class FleetResult:
    """Steady-state drain measurement of a fleet timer population."""

    n_cells: int
    cell_name: str
    active_timers: int     # recurring clocks (tickers) live in the drain
    dormant_timers: int    # long-horizon one-shots never firing in-window
    ticks: int             # action invocations observed in the window
    #: Engine events processed in the measured window only.
    sim_events: int
    #: Simulated time covered by the measured window (µs).
    sim_elapsed_us: float
    #: Wall seconds of the measured drain (best repeat when repeats > 1).
    wall_s: float
    #: Wall seconds per repeat, worst to diagnose variance.
    repeat_wall_s: tuple = field(default_factory=tuple)
    #: Events per repeat window — machine-independent; identical across
    #: timer-queue engines by the determinism guarantee.
    repeat_events: tuple = field(default_factory=tuple)
    #: Setup + warmup wall seconds (excluded from the measurement).
    setup_wall_s: float = 0.0
    system_handle: object = None

    @property
    def events_per_sec(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.sim_events / self.wall_s


def _lcg(state: int) -> int:
    return (state * 1103515245 + 12345) & 0x7FFFFFFF


def run_fleet_telemetry(
    n_cells: int,
    cell: Optional[ClusterSpec] = None,
    telemetry_period_us: float = 10_000.0,
    heartbeat_period_us: float = 20_000.0,
    dormant_per_device: int = 2,
    dormant_per_host: int = 2,
    duration_us: float = 20_000.0,
    warmup_us: float = 5_000.0,
    repeats: int = 1,
    timer_queue: Optional[type] = None,
    manage_gc: bool = True,
    seed: int = 12345,
) -> FleetResult:
    """Drive a fleet of ``n_cells`` config-C cells of pure timer load.

    Each device carries one fixed-period telemetry ticker and
    ``dormant_per_device`` long-horizon timers; each host carries one
    heartbeat ticker and ``dormant_per_host`` more.  Phase offsets come
    from a seeded LCG so the schedule is fully deterministic.  After
    ``warmup_us`` of simulated time, ``repeats`` windows of
    ``duration_us`` are drained back to back and the fastest is
    reported (repeats share one simulation; sim-time keeps advancing).

    Keep ``duration_us`` an exact multiple of both periods (the
    defaults are): then every repeat window holds the *same* event
    count, so the reported ``sim_events`` is machine-independent no
    matter which repeat wins on wall time — the property the sweep
    merge determinism test and the CI event-count gate rely on.

    ``timer_queue`` installs a reference engine class (for instance
    :class:`repro.testing.oracles.HeapTimerQueue`) in place of the
    calendar queue before any timer is armed.
    """
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    cell = cell if cell is not None else config_c()
    setup_t0 = time.perf_counter()
    sim = Simulator()
    if timer_queue is not None:
        use_timer_queue(sim, timer_queue)
    ticks = [0]

    def scrape(_ticker) -> None:
        ticks[0] += 1

    state = seed & 0x7FFFFFFF or 1
    active = 0
    dormant = 0
    for _cell in range(n_cells):
        for n_hosts, devices_per_host in cell.islands:
            for _host in range(n_hosts):
                state = _lcg(state)
                sim.ticker(
                    heartbeat_period_us, scrape,
                    start_delay=heartbeat_period_us * (state / 0x7FFFFFFF),
                )
                active += 1
                for _ in range(dormant_per_host):
                    state = _lcg(state)
                    sim.timeout(DORMANT_HORIZON_US * (1.0 + state / 0x7FFFFFFF))
                    dormant += 1
                for _dev in range(devices_per_host):
                    state = _lcg(state)
                    sim.ticker(
                        telemetry_period_us, scrape,
                        start_delay=telemetry_period_us * (state / 0x7FFFFFFF),
                    )
                    active += 1
                    for _ in range(dormant_per_device):
                        state = _lcg(state)
                        sim.timeout(DORMANT_HORIZON_US * (1.0 + state / 0x7FFFFFFF))
                        dormant += 1

    # Warm past the calendar's initial bucket sizing so the measured
    # region sees the steady state, exactly like a real fleet sweep
    # whose measured phase starts after ramp-up.
    sim.run(until=warmup_us, detect_deadlock=False)
    setup_wall_s = time.perf_counter() - setup_t0

    measured: list[tuple[int, float]] = []
    if manage_gc:
        gc.collect()
        gc.freeze()
        gc.disable()
    try:
        horizon = warmup_us
        for _ in range(max(1, repeats)):
            before = sim.events_processed
            horizon += duration_us
            t0 = time.perf_counter()
            sim.run(until=horizon, detect_deadlock=False)
            wall = time.perf_counter() - t0
            measured.append((sim.events_processed - before, wall))
    finally:
        if manage_gc:
            gc.enable()
            gc.unfreeze()

    best_events, best_wall = max(
        measured, key=lambda ew: ew[0] / ew[1] if ew[1] > 0 else 0.0
    )
    return FleetResult(
        n_cells=n_cells,
        cell_name=cell.name,
        active_timers=active,
        dormant_timers=dormant,
        ticks=ticks[0],
        sim_events=best_events,
        sim_elapsed_us=duration_us,
        wall_s=best_wall,
        repeat_wall_s=tuple(w for _, w in measured),
        repeat_events=tuple(e for e, _ in measured),
        setup_wall_s=setup_wall_s,
        system_handle=sim,
    )
