"""Engine throughput: wall-clock cost of the paper-scale sweeps.

Unlike every other bench (which reports *simulated* quantities), this
one measures the simulator itself: wall-clock seconds and engine
events/sec per sweep point — the Figure-5 dispatch sweep at
configuration-B scale, a paper-scale churn point (configuration A), the
contended-fabric and serving scenarios, the FLEET-C point: a fleet
of configuration-C cells of pure timer load that pits the calendar-queue
core against the reference heap core at fleet scale (hundreds of
thousands of live timers) and asserts the calendar's >=2x events/sec,
and the NET-F point: thousands of concurrent fluid flows that pit the
scoped incremental fair-share solver against the dense reference and
assert the scoped >=3x wall-clock win at byte-identical schedules.
The TRACE-OFF point pins the telemetry pay-as-you-go contract: the
serving scenario with a *disabled* tracer attached must hold its
events/sec within 3% of the tracer-less baseline (and its engine event
count exactly equal — schedule neutrality).

Every point is an independent :class:`~repro.bench.sweep.SweepTask`, so
the sweep fans out across cores (``benchmarks/run.py --jobs N`` or
``REPRO_BENCH_JOBS``) and merges deterministically in spec order; the
three points that gate a wall-clock ratio run serially after the pool.  The
merged ``BENCH_sim_throughput.json`` trajectory (see
:mod:`repro.bench.wallclock`) is uploaded by the CI perf-smoke job,
which fails on a >30% events/sec regression against the checked-in
baseline (``benchmarks/baselines/sim_throughput_smoke.json``) via
``benchmarks/check_throughput_regression.py``.
"""

from __future__ import annotations

from repro.bench.harness import Table, geometric_range, smoke_mode, soft_timing
from repro.bench.sweep import SweepTask, run_sweep, sweep_jobs
from repro.bench.wallclock import WallclockRecorder

#: Config-B scale: 8 TPUs/host, 2..64 hosts (512 cores at the top).
HOSTS = geometric_range(2, 64, smoke_stop=8)
DEVICES_PER_HOST = 8

#: FLEET-C scale: config-C cells (16 hosts x 8 TPUs each) of pure timer
#: load — 144 recurring clocks and 288 dormant long-horizon timers per
#: cell.  Smoke: 1000 cells = 144k live tickers over 288k dormant
#: timers; full: 4000 cells = 576k over 1.15M.
FLEET_CELLS_SMOKE = 1000
FLEET_CELLS_FULL = 4000

#: Acceptance floor for the calendar core at fleet scale.
FLEET_MIN_SPEEDUP = 2.0

#: NET-F scale: one island of 64 hosts paired into 32 sender/receiver
#: NIC pairs, 2600 open-loop 1 MiB flows arriving inside a 1 ms burst —
#: >=2000 simultaneously-live fluid flows at the peak.
NET_FLOW_COUNT = 2600

#: Acceptance floor for the scoped fluid solver at flow scale.
NET_FLOW_MIN_SPEEDUP = 3.0


#: Points whose checks gate a wall-clock ratio timed inside the task.
#: They run one at a time after the pool, so no sweep neighbour competes
#: for the core they are timed on.
SERIAL_SERIES = ("NET-F", "TRACE-OFF", "FLEET-C")


def _tasks() -> list[SweepTask]:
    tasks = []
    for h in HOSTS:
        dispatch = "repro.bench.targets:dispatch_point"
        for series, system, variant, n_calls in (
            ("PW-C", "pathways", "chained", 4),
            ("PW-O", "pathways", "opbyop", 8),
            ("PW-F", "pathways", "fused", 8),
            ("JAX-F", "jax", "fused", 15),
        ):
            tasks.append(
                SweepTask(
                    series, h, dispatch,
                    kwargs=dict(
                        system=system, variant=variant, n_hosts=h,
                        devices_per_host=DEVICES_PER_HOST, n_calls=n_calls,
                    ),
                )
            )
    # Paper-scale reliability point: config A (512 hosts x 4 TPUs),
    # three tenants on aggregate 512-core slices under device churn.
    steps = 10 if smoke_mode() else 20
    tasks.append(
        SweepTask(
            "CHURN-A", 512, "repro.bench.targets:churn_reliability",
            kwargs=dict(steps_per_client=steps),
        )
    )
    # Contended-fabric point: bulk flows over the island uplink plus a
    # crash/retransmit cycle — the repro.net hot path — so network-layer
    # throughput regressions fail CI exactly like engine regressions.
    tasks.append(SweepTask("NET-C", 4, "repro.bench.targets:net_contention"))
    # ECMP multipath point: spine-bound flows with a mid-run spine-link
    # failure and restore — regression-gates the reroute/park hot path.
    tasks.append(SweepTask("NET-E", 4, "repro.bench.targets:net_ecmp"))
    # NET-F: flow-scale fluid-solver acceptance point.  The identical
    # flow fleet runs on the dense reference engine then the scoped
    # engine inside one task (the FLEET-C pattern), asserting exact
    # per-flow delivery equality plus the scoped >=3x wall-clock win.
    tasks.append(
        SweepTask(
            "NET-F", NET_FLOW_COUNT, "repro.bench.targets:net_flow_scale",
            kwargs=dict(
                n_flows=NET_FLOW_COUNT, min_speedup=NET_FLOW_MIN_SPEEDUP,
            ),
        )
    )
    # Serving point: open-loop Poisson traffic through the repro.serve
    # stack (frontend admission, continuous batching, deadline-armed
    # gangs, a replica-loss recovery) over the contended fabric.
    tasks.append(SweepTask("SERVE", 2, "repro.bench.targets:serving_slo"))
    # TRACE-OFF: the telemetry pay-as-you-go acceptance point.  The
    # serving scenario runs tracer-less and then with a disabled Tracer
    # back to back in one task, asserting identical engine event counts
    # and disabled-tracing events/sec within 3% of the bare baseline.
    tasks.append(SweepTask("TRACE-OFF", 2, "repro.bench.targets:trace_overhead"))
    # FLEET-C: the calendar-queue acceptance point.  Both cores run
    # back to back inside one task so the speedup ratio is immune to
    # concurrent sweep neighbours; the row records the calendar core.
    cells = FLEET_CELLS_SMOKE if smoke_mode() else FLEET_CELLS_FULL
    tasks.append(
        SweepTask(
            "FLEET-C", cells, "repro.bench.targets:fleet_speedup",
            kwargs=dict(n_cells=cells, min_speedup=FLEET_MIN_SPEEDUP),
        )
    )
    return tasks


def sweep() -> WallclockRecorder:
    tasks = _tasks()
    alone = [i for i, t in enumerate(tasks) if t.series in SERIAL_SERIES]
    pooled = [i for i in range(len(tasks)) if i not in alone]
    points = {}
    for group, jobs in ((pooled, sweep_jobs()), (alone, 1)):
        results = run_sweep([tasks[i] for i in group], jobs=jobs)
        points.update(zip(group, results))
    rec = WallclockRecorder("sim_throughput")
    for _, point in sorted(points.items()):
        rec.add_point(
            point["series"], point["x"],
            wall_s=point["wall_s"],
            events=point["events"],
            sim_us=point["sim_us"],
            **point["extra"],
        )
    return rec


def test_sim_throughput():
    rec = sweep()

    table = Table(
        "Simulator throughput: engine events/sec and wall-clock per "
        "sweep point (Fig. 5 dispatch at config B + config-A churn + "
        "config-C fleet timers)",
        columns=["series", "x", "events", "wall (s)", "events/s", "sim us/s"],
    )
    for p in rec.points:
        table.add_row(
            p.series, p.x, p.events, p.wall_s, p.events_per_sec,
            p.sim_us_per_wall_s,
        )
    # The Figure-5 dispatch sweep on its own (the headline ≥5× speedup
    # quantity) and the overall total including the scenario points.
    scenario = (
        "CHURN-A", "NET-C", "NET-E", "NET-F", "SERVE", "TRACE-OFF", "FLEET-C",
    )
    fig5 = [p for p in rec.points if p.series not in scenario]
    fig5_wall = sum(p.wall_s for p in fig5)
    fig5_events = sum(p.events for p in fig5)
    table.add_row(
        "FIG5-B", 0, fig5_events, fig5_wall,
        fig5_events / fig5_wall if fig5_wall > 0 else 0.0, 0.0,
    )
    table.add_row(
        "TOTAL", 0, rec.total_events, rec.total_wall_s,
        rec.aggregate_events_per_sec, 0.0,
    )
    table.show()

    fleet = rec.series("FLEET-C")[0]
    print(
        f"FLEET-C: {fleet.extra['active_timers']:,d} live timers over "
        f"{fleet.extra['dormant_timers']:,d} dormant — calendar "
        f"{fleet.extra['calendar_events_per_sec']:,.0f} ev/s vs heap "
        f"{fleet.extra['heap_events_per_sec']:,.0f} ev/s "
        f"({fleet.extra['speedup']:.2f}x)"
    )
    netf = rec.series("NET-F")[0]
    print(
        f"NET-F: {netf.extra['peak_flows']:,d} peak concurrent flows — "
        f"scoped {netf.extra['scoped_wall_s']:.2f}s vs dense "
        f"{netf.extra['dense_wall_s']:.2f}s ({netf.extra['speedup']:.2f}x); "
        f"flows touched/update {netf.extra['scoped_touched_per_update']:.1f} "
        f"vs {netf.extra['dense_touched_per_update']:.1f}"
    )
    troff = rec.series("TRACE-OFF")[0]
    print(
        f"TRACE-OFF: disabled tracer {troff.extra['off_events_per_sec']:,.0f} "
        f"ev/s vs bare {troff.extra['base_events_per_sec']:,.0f} ev/s "
        f"({troff.extra['overhead_frac']:+.1%} overhead)"
    )

    path = rec.write()
    print(f"trajectory artifact written to {path}")

    # Smoke-safe sanity: every point did real work and was timed.  The
    # scenario invariants (churn steps, fabric idle, serving recovery,
    # FLEET-C >=2x) travel back from the workers as sweep checks and
    # have already been asserted by run_sweep.
    for p in rec.points:
        assert p.events > 0 and p.wall_s > 0 and p.sim_us > 0, p
    # Deterministic complexity gate: exact work counters, machine-
    # noise-immune — the scoped engine touches a small fraction of the
    # fleet per membership change.
    assert (
        netf.extra["scoped_touched_per_update"] * 8
        <= netf.extra["dense_touched_per_update"]
    ), netf.extra
    assert netf.extra["peak_flows"] >= 2000, netf.extra
    # Wall-clock ratio floors: sharp on dedicated hardware; noisy
    # runners demote them to reported-only via REPRO_BENCH_SOFT_TIMING.
    if not soft_timing():
        assert fleet.extra["speedup"] >= FLEET_MIN_SPEEDUP, fleet.extra
        assert netf.extra["speedup"] >= NET_FLOW_MIN_SPEEDUP, netf.extra
    # Very conservative floor — catches only catastrophic engine
    # regressions; the CI baseline comparison is the sharp check.
    assert rec.aggregate_events_per_sec > 10_000, rec.aggregate_events_per_sec
