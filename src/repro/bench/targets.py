"""Sweep-target adapters: workloads wrapped in the sweep protocol.

Every function here is addressable by dotted name
(``"repro.bench.targets:<fn>"``) from a :class:`~repro.bench.sweep.SweepTask`
and returns the mapping the runner expects — ``events`` / ``sim_us``
plus optional ``wall_s`` / ``extra`` / ``checks`` (see
:mod:`repro.bench.sweep` for the contract).  Keeping them importable,
argument-only functions is what lets sweep points pickle into pool
workers; scenario invariants travel back as ``checks`` so a fan-out run
fails exactly where a serial run would.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "churn_reliability",
    "dispatch_point",
    "fleet_speedup",
    "net_contention",
    "net_ecmp",
    "net_flow_scale",
    "serving_slo",
    "trace_overhead",
]


def dispatch_point(
    system: str,
    variant: str,
    n_hosts: int,
    devices_per_host: int = 8,
    n_calls: int = 8,
) -> dict:
    """One Figure-5 dispatch microbenchmark point (``system``:
    ``"pathways"`` or ``"jax"``)."""
    from repro.workloads.microbench import run_jax, run_pathways

    runner = {"pathways": run_pathways, "jax": run_jax}[system]
    r = runner(variant, n_hosts, devices_per_host=devices_per_host, n_calls=n_calls)
    return {"events": r.sim_events, "sim_us": r.sim_elapsed_us}


def churn_reliability(
    n_clients: int = 3,
    steps_per_client: int = 20,
    slice_devices: int = 512,
    n_hosts: int = 512,
    devices_per_host: int = 4,
    mtbf_us: float = 400_000.0,
    checkpoint_interval_us: float = 15_000.0,
) -> dict:
    """Config-A churn point: multi-tenant training under device churn."""
    from repro.workloads.churn import run_churn

    r = run_churn(
        n_clients=n_clients,
        steps_per_client=steps_per_client,
        slice_devices=slice_devices,
        n_hosts=n_hosts,
        devices_per_host=devices_per_host,
        mtbf_us=mtbf_us,
        checkpoint_interval_us=checkpoint_interval_us,
    )
    return {
        "events": r.system_handle.sim.events_processed,
        "sim_us": r.elapsed_us,
        "checks": {
            "all_steps_or_none_abandoned": (
                r.useful_steps == n_clients * steps_per_client or not r.abandoned
            ),
        },
    }


def net_contention(
    n_senders: int = 4,
    streams: int = 2,
    hosts_per_island: int = 4,
    devices_per_host: int = 4,
    flow_bytes: int = 8 << 20,
    duration_us: float = 40_000.0,
    n_probes: int = 4,
    crash_sender_at: float = 10_000.0,
    crash_repair_us: float = 8_000.0,
) -> dict:
    """Contended-fabric point: bulk flows + crash/retransmit cycle."""
    from repro.workloads.netload import run_net_congestion

    r = run_net_congestion(
        n_senders=n_senders,
        streams=streams,
        hosts_per_island=hosts_per_island,
        devices_per_host=devices_per_host,
        flow_bytes=flow_bytes,
        duration_us=duration_us,
        n_probes=n_probes,
        crash_sender_at=crash_sender_at,
        crash_repair_us=crash_repair_us,
    )
    return {
        "events": r.system_handle.sim.events_processed,
        "sim_us": r.elapsed_us,
        "checks": {
            "fabric_idle": r.fabric_idle,
            "no_probe_failures": r.probe_failures == 0,
        },
    }


def net_ecmp(
    n_senders: int = 4,
    streams: int = 2,
    hosts_per_island: int = 4,
    devices_per_host: int = 4,
    flow_bytes: int = 8 << 20,
    duration_us: float = 40_000.0,
    spine_paths: int = 4,
    link_down_at: float = 12_000.0,
    link_repair_us: float = 10_000.0,
) -> dict:
    """ECMP multipath point: spine-bound flows, mid-run spine-link
    failure, reroute onto survivors, restore — the reroute hot path."""
    from repro.config import DEFAULT_CONFIG
    from repro.workloads.netload import run_net_congestion

    # Narrow spine paths under a wide uplink so the spine is the
    # bottleneck ECMP spreads (and the failure perturbs).
    cfg = DEFAULT_CONFIG.with_overrides(
        net_island_uplink_gbps=100.0, net_spine_gbps=8.0
    )
    r = run_net_congestion(
        n_senders=n_senders,
        streams=streams,
        hosts_per_island=hosts_per_island,
        devices_per_host=devices_per_host,
        flow_bytes=flow_bytes,
        duration_us=duration_us,
        n_probes=0,
        spine_paths=spine_paths,
        link_down_at=link_down_at,
        link_repair_us=link_repair_us,
        config=cfg,
    )
    return {
        "events": r.system_handle.sim.events_processed,
        "sim_us": r.elapsed_us,
        "checks": {
            "no_message_loss": r.messages_lost == 0,
            "rerouted": r.reroutes > 0,
            "fabric_idle": r.fabric_idle,
            "no_nic_leak": r.nic_slots_leaked == 0,
        },
    }


def net_flow_scale(
    n_flows: int = 2600,
    hosts: int = 64,
    flow_bytes: int = 1 << 20,
    arrival_window_us: float = 1_000.0,
    min_peak_flows: int = 2000,
    min_speedup: Optional[float] = 3.0,
) -> dict:
    """NET-F point: flow-scale fabric load, scoped vs dense fluid solver.

    Mirrors :func:`fleet_speedup`: the identical flow fleet runs on the
    dense reference engine and then the scoped engine back to back in
    this one process, so the speedup ratio is stable under concurrent
    sweep points.  The reported point is the *scoped* measurement (the
    shipping engine); the dense reference and the ratio land in
    ``extra``.  ``identical_deliveries`` is the byte-identity invariant
    — exact float equality of every per-flow delivery time.

    The primary complexity gate is deterministic: the scoped engine's
    flows-touched-per-update counter must be a small fraction of the
    dense reference's (exact event counts, immune to runner noise).
    The wall-clock ratio is asserted too, but a noisy runner can demote
    it to reported-only with ``REPRO_BENCH_SOFT_TIMING=1`` (see
    :func:`repro.bench.harness.soft_timing`).
    """
    from repro.bench.harness import soft_timing
    from repro.testing.oracles import DenseFluidSolver
    from repro.workloads.netload import run_flow_fleet

    dense = run_flow_fleet(
        n_flows=n_flows, hosts=hosts, flow_bytes=flow_bytes,
        arrival_window_us=arrival_window_us, fluid_solver=DenseFluidSolver,
    )
    scoped = run_flow_fleet(
        n_flows=n_flows, hosts=hosts, flow_bytes=flow_bytes,
        arrival_window_us=arrival_window_us,
    )
    speedup = dense.wall_s / scoped.wall_s if scoped.wall_s else 0.0
    scoped_touched = scoped.fabric.flows_touched_per_update
    touched_gap = (
        dense.fabric.flows_touched_per_update / scoped_touched
        if scoped_touched else 0.0
    )
    checks = {
        "identical_deliveries": scoped.deliveries == dense.deliveries,
        f"peak_flows_>={min_peak_flows}": (
            scoped.peak_concurrent_flows >= min_peak_flows
        ),
        "fabric_idle": scoped.fabric.idle and dense.fabric.idle,
        # The affected set is a small fraction of the live fleet
        # (~hosts/2 smaller at this shape, measured ~32x).
        "scoped_touches_8x_fewer_flows": touched_gap >= 8.0,
    }
    if min_speedup is not None and not soft_timing():
        checks[f"scoped_speedup_>={min_speedup:g}x"] = speedup >= min_speedup
    return {
        "events": scoped.events,
        "sim_us": scoped.elapsed_us,
        "wall_s": scoped.wall_s,
        "extra": {
            "peak_flows": scoped.peak_concurrent_flows,
            "dense_wall_s": dense.wall_s,
            "scoped_wall_s": scoped.wall_s,
            "speedup": speedup,
            "scoped_touched_per_update": scoped_touched,
            "dense_touched_per_update": dense.fabric.flows_touched_per_update,
            "touched_gap": touched_gap,
        },
        "checks": checks,
    }


def serving_slo(
    rate_rps: float = 600.0,
    duration_us: float = 120_000.0,
    islands: int = 2,
    hosts_per_island: int = 2,
    devices_per_host: int = 4,
    n_replicas: int = 2,
    devices_per_replica: int = 4,
    max_batch: int = 8,
    slo_us: float = 50_000.0,
    contention: bool = True,
    fail_replica_at: float = 50_000.0,
    repair_us: float = 30_000.0,
    seed: int = 3,
) -> dict:
    """Serving point: Poisson admission, batching, replica-loss recovery."""
    from repro.workloads.serving import run_serving

    r = run_serving(
        rate_rps=rate_rps,
        duration_us=duration_us,
        islands=islands,
        hosts_per_island=hosts_per_island,
        devices_per_host=devices_per_host,
        n_replicas=n_replicas,
        devices_per_replica=devices_per_replica,
        max_batch=max_batch,
        slo_us=slo_us,
        contention=contention,
        fail_replica_at=fail_replica_at,
        repair_us=repair_us,
        seed=seed,
    )
    return {
        "events": r.system_handle.sim.events_processed,
        "sim_us": r.elapsed_us,
        "checks": {
            "none_abandoned": r.abandoned == 0,
            "completed_some": r.completed > 0,
            "recovered": r.recoveries >= 1,
            "fabric_idle": r.fabric_idle,
        },
    }


def trace_overhead(
    rate_rps: float = 800.0,
    duration_us: float = 1_000_000.0,
    islands: int = 2,
    hosts_per_island: int = 2,
    devices_per_host: int = 4,
    n_replicas: int = 2,
    repeats: int = 3,
    max_overhead: Optional[float] = 0.03,
) -> dict:
    """TRACE-OFF point: a disabled tracer's cost on the serving stack.

    The pay-as-you-go contract of ``repro.telemetry``: a simulator
    carrying a *disabled* :class:`~repro.telemetry.Tracer` pays one
    ``is None``/``enabled`` check per instrumentation site and must
    stay within ``max_overhead`` of the tracer-less baseline's
    events/sec.  The two variants run *interleaved* in adjacent pairs
    (off, base, off, base, ...) inside this one process; each round's
    paired ratio shares its noise conditions, and the gate takes the
    **min ratio over rounds** — a grouped A...AB...B best-of ordering
    reads ~10% phantom overhead from the cold first group, and a single
    scheduler-noise spike inflates one round, where the min-of-paired-
    rounds measures the real cost (~1-2%).  Identical engine event
    counts pin schedule-neutrality on the way.  A noisy runner can
    still demote the ratio gate to reported-only via
    ``REPRO_BENCH_SOFT_TIMING=1``.
    """
    import time

    from repro.bench.harness import soft_timing
    from repro.telemetry import Tracer
    from repro.workloads.serving import run_serving

    kwargs = dict(
        rate_rps=rate_rps,
        duration_us=duration_us,
        islands=islands,
        hosts_per_island=hosts_per_island,
        devices_per_host=devices_per_host,
        n_replicas=n_replicas,
    )

    def timed(make_tracer):
        t0 = time.perf_counter()
        r = run_serving(tracer=make_tracer(), **kwargs)
        wall = time.perf_counter() - t0
        return wall, r.system_handle.sim.events_processed, r.elapsed_us

    base_wall = off_wall = None
    base_events = off_events = 0
    base_sim_us = off_sim_us = 0.0
    round_ratios = []
    for _ in range(repeats):
        off_w, off_events, off_sim_us = timed(lambda: Tracer(enabled=False))
        base_w, base_events, base_sim_us = timed(lambda: None)
        round_ratios.append(off_w / base_w - 1.0 if base_w else 0.0)
        if off_wall is None or off_w < off_wall:
            off_wall = off_w
        if base_wall is None or base_w < base_wall:
            base_wall = base_w
    base_eps = base_events / base_wall if base_wall else 0.0
    off_eps = off_events / off_wall if off_wall else 0.0
    overhead = min(round_ratios) if round_ratios else 0.0
    checks = {
        # A disabled tracer must not perturb the schedule: same engine
        # event count as no tracer at all (exact, noise-immune).
        "identical_event_count": off_events == base_events,
    }
    if max_overhead is not None and not soft_timing():
        checks[f"trace_off_within_{max_overhead:.0%}"] = (
            overhead <= max_overhead
        )
    return {
        "events": off_events,
        "sim_us": off_sim_us,
        "wall_s": off_wall,
        "extra": {
            "base_wall_s": base_wall,
            "off_wall_s": off_wall,
            "base_sim_us": base_sim_us,
            "base_events_per_sec": base_eps,
            "off_events_per_sec": off_eps,
            "overhead_frac": overhead,
        },
        "checks": checks,
    }


def fleet_speedup(
    n_cells: int,
    repeats: int = 3,
    duration_us: float = 20_000.0,
    min_speedup: Optional[float] = 2.0,
    seed: int = 12345,
) -> dict:
    """FLEET-C point: config-C fleet timer load, calendar vs heap.

    Runs the identical fleet population on the heap core and then the
    calendar core back to back in this one process, so the two
    measurements share cache/GC conditions and their ratio is stable
    even when other sweep points run concurrently.  The reported point
    is the *calendar* measurement (the shipping engine); the heap
    reference and the speedup land in ``extra``.
    """
    from repro.bench.harness import soft_timing
    from repro.testing.oracles import HeapTimerQueue
    from repro.workloads.fleet import run_fleet_telemetry

    heap = run_fleet_telemetry(
        n_cells, repeats=repeats, duration_us=duration_us,
        timer_queue=HeapTimerQueue, seed=seed,
    )
    cal = run_fleet_telemetry(
        n_cells, repeats=repeats, duration_us=duration_us, seed=seed,
    )
    speedup = (
        cal.events_per_sec / heap.events_per_sec if heap.events_per_sec else 0.0
    )
    checks = {"same_schedule": cal.repeat_events == heap.repeat_events}
    if min_speedup is not None and not soft_timing():
        checks[f"calendar_speedup_>={min_speedup:g}x"] = speedup >= min_speedup
    return {
        "events": cal.sim_events,
        "sim_us": cal.sim_elapsed_us,
        "wall_s": cal.wall_s,
        "extra": {
            "active_timers": cal.active_timers,
            "dormant_timers": cal.dormant_timers,
            "setup_wall_s": cal.setup_wall_s,
            "heap_events_per_sec": heap.events_per_sec,
            "calendar_events_per_sec": cal.events_per_sec,
            "speedup": speedup,
        },
        "checks": checks,
    }
