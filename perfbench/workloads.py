"""The four benchmark workloads, built through the public entry points.

Each workload function builds its system, runs one simulation to drain
and returns an :class:`Outcome`: the modelled end-to-end figures (all in
simulated time, so they repeat exactly for a given seed), the
deterministic per-layer counts, and the output checks.  The caller wraps
the call in a :class:`~probes.Probes` block, whose engine-entry stamp
splits set-up from the measured simulation.

Every workload uses a different gang width and program-graph shape:

* ``fig5-dispatch`` -- one 128-wide gang, a 128-node chain program;
* ``pipeline-16``   -- sixteen 8-wide gangs, a GPipe DAG of 2*S*M+S nodes;
* ``serve-drill``   -- 4-wide replica gangs, one single-node program per batch;
* ``churn-a``       -- three 512-wide aggregate gangs, single-node steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from repro import PathwaysSystem, config_b
from repro.models.pipeline import PipelineBuilder
from repro.models.transformer import DECODER_3B
from repro.workloads.churn import run_churn
from repro.workloads.serving import run_serving
from repro.xla.computation import scalar_allreduce_add

from probes import Probes
from summary import percentile_with_refusals

__all__ = ["MODEL_METRICS", "Outcome", "TINY", "WORKLOADS"]

#: Modelled (simulated-time) metrics.  A workload reports the ones it
#: defines (``failed_frac`` is added per run); the others read 0 on it.
MODEL_METRICS = (
    "sim_cps",
    "sim_tokens_per_s",
    "sim_util",
    "sim_goodput_rps",
    "sim_p50_ms",
    "sim_p99_ms",
    "sim_steps_per_s",
    "failed_frac",
)

#: Serving SLO of serve-drill; a refused request counts as missing it.
SLO_US = 50_000.0


@dataclass
class Outcome:
    """What one simulation of a workload produced."""

    #: Operations attempted: program executions, pipeline steps, arrived
    #: requests or step executions, by workload.
    attempted: int
    #: Operations the model itself failed: abandoned executions,
    #: rejected or abandoned requests.
    failed: int
    model: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)


def _layer_counts(system, probes: Probes) -> dict[str, float]:
    """Per-layer counts every workload shares, from public snapshots."""
    st = system.stats()
    net = st.net
    fab = net.fabric
    rec = st.recovery
    frontend = system.frontends[0] if system.frontends else None
    serve = frontend.stats() if frontend is not None else None
    stage = serve.latency.stage_mean_us if serve is not None else {}
    max_batch = frontend.replicas.max_batch if frontend is not None else 1
    return {
        "sim.events": st.sim.events_processed,
        "hw.kernels": probes.kernels,
        "hw.host_preps": probes.host_preps,
        "core.programs": st.programs_dispatched,
        "core.computations": st.computations_executed,
        "core.sched_decisions": sum(s.decisions for s in st.schedulers),
        "core.sched_evictions": sum(s.evictions for s in st.schedulers),
        "core.abandoned": sum(c.executions_abandoned for c in st.clients),
        "net.messages": net.messages_sent,
        "net.bytes": net.bytes_sent,
        "net.lost": net.messages_lost,
        "net.retransmits": net.retransmits,
        "net.reroutes": net.reroutes,
        "net.fabric_updates": fab.membership_updates if fab else 0,
        "net.flows_touched_per_update": fab.flows_touched_per_update if fab else 0.0,
        "net.rate_recomputes": fab.rate_recomputes if fab else 0,
        "net.timer_fire_ratio": (
            fab.timer_fires / fab.timer_rearms if fab and fab.timer_rearms else 0.0
        ),
        "serve.arrived": serve.arrived if serve else 0,
        "serve.completed": serve.completed if serve else 0,
        "serve.rejected": serve.rejected if serve else 0,
        "serve.abandoned": serve.abandoned if serve else 0,
        "serve.batches": probes.batches,
        "serve.batch_fill": (
            probes.batched_requests / (probes.batches * max_batch)
            if probes.batches else 0.0
        ),
        "serve.net_ms": stage.get("net", 0.0) / 1e3,
        "serve.queue_ms": stage.get("queue", 0.0) / 1e3,
        "serve.dispatch_ms": stage.get("dispatch", 0.0) / 1e3,
        "serve.compute_ms": stage.get("compute", 0.0) / 1e3,
        "resilience.faults": (
            rec.device_failures + rec.host_crashes + rec.preemptions + rec.link_faults
            if rec else 0
        ),
        "resilience.recoveries": rec.programs_recovered if rec else 0,
        "resilience.remaps": rec.remaps if rec else 0,
        "resilience.replayed_steps": 0,
        "resilience.useful_ratio": 0.0,
        "resilience.ckpt_ms": 0.0,
    }


def _common_checks(system) -> dict[str, bool]:
    """Drain invariants: no fabric capacity, NIC slot or queue leak."""
    fab = system.stats().net.fabric
    return {
        "fabric_idle": fab is None or fab.idle,
        "no_nic_leak": sum(
            h.nic.in_use + h.nic.queue_len for h in system.cluster.hosts
        ) == 0,
    }


def _busy_fraction(system) -> float:
    """Mean modelled busy fraction of the devices that ran the workload's
    kernels (the devices bound to its slices), over the run so far."""
    now = system.sim.now
    used = [d for d in system.cluster.devices if d.kernels_run]
    if not used or now <= 0:
        return 0.0
    return sum(d.busy_us for d in used) / (len(used) * now)


# ---------------------------------------------------------------------------
# fig5-dispatch: the Figure-5 Pathways Chained point at configuration B
# ---------------------------------------------------------------------------
def fig5_dispatch(
    seed: int,
    probes: Probes,
    n_hosts: int = 16,
    chain_len: int = 128,
    n_calls: int = 32,
) -> Outcome:
    """A ``chain_len``-node chain of scalar AllReduce+add, gang-scheduled
    over every core of ``config_b(n_hosts)`` and driven ``n_calls`` times
    with two calls in flight.  No random inputs: ``seed`` is unused."""
    system = PathwaysSystem.build(config_b(n_hosts))
    client = system.client("bench")
    n_devices = n_hosts * 8
    devs = system.make_virtual_device_set().add_slice(tpu_devices=n_devices)
    step = client.wrap(scalar_allreduce_add(n_devices, 0.5), devices=devs)

    @client.program
    def chain(v):
        x = v
        for _ in range(chain_len):
            x = step(x)
        return x

    program = chain.trace(np.float32(0.0))
    driver = system.sim.process(
        client.drive_pipelined(program, (0.0,), n_iters=n_calls, max_in_flight=2),
        name="driver",
    )
    system.sim.run_until_triggered(driver)

    elapsed_s = system.sim.now / 1e6
    counts = _layer_counts(system, probes)
    abandoned = int(counts["core.abandoned"])
    return Outcome(
        attempted=n_calls,
        failed=abandoned,
        model={
            "sim_cps": chain_len * n_calls / elapsed_s,
            "sim_util": _busy_fraction(system),
        },
        counts=counts,
        checks={
            **_common_checks(system),
            "no_abandoned_execution": abandoned == 0,
            "every_call_dispatched": counts["core.programs"] >= n_calls,
        },
    )


# ---------------------------------------------------------------------------
# pipeline-16: Table 2's 3B decoder, S=16 x M=64 on 128 cores
# ---------------------------------------------------------------------------
#: Table 2 settings (see benchmarks/bench_table2_pipeline_vs_spmd.py).
BATCH_TOKENS = 2048 * 1024
EFFICIENCY = 0.365
P3B = 3_000_000_000
PAPER_S16_TOKENS_PER_S = 131_400.0


def pipeline_16(
    seed: int,
    probes: Probes,
    n_stages: int = 16,
    n_microbatches: int = 64,
    cores: int = 128,
    n_steps: int = 1,
) -> Outcome:
    """GPipe training steps of the 3B decoder as one Pathways program
    per step.  No random inputs: ``seed`` is unused."""
    system = PathwaysSystem.build(config_b(cores // 8))
    builder = PipelineBuilder(
        system, DECODER_3B, n_stages, n_microbatches, cores // n_stages,
        BATCH_TOKENS, EFFICIENCY, nominal_params=P3B,
    )
    builder.build()
    result = builder.run(system.client("train"), n_steps=n_steps)

    counts = _layer_counts(system, probes)
    abandoned = int(counts["core.abandoned"])
    checks = {
        **_common_checks(system),
        "no_abandoned_execution": abandoned == 0,
    }
    if (n_stages, n_microbatches, cores) == (16, 64, 128):
        # The paper's 16-stage row, as the Table-2 bench calibrates it.
        checks["table2_within_10pct"] = (
            abs(result.tokens_per_second / PAPER_S16_TOKENS_PER_S - 1.0) <= 0.10
        )
    return Outcome(
        attempted=n_steps,
        failed=abandoned,
        model={
            "sim_tokens_per_s": result.tokens_per_second,
            "sim_util": _busy_fraction(system),
        },
        counts=counts,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# serve-drill: open-loop Poisson serving at the knee, with a replica loss
# ---------------------------------------------------------------------------
#: ~0.9 x ReplicaSet.capacity_rps() of the default two-replica set
#: (1201.5 req/s); checked on every run.
SERVE_RATE_RPS = 1080.0


def serve_drill(
    seed: int,
    probes: Probes,
    duration_us: float = 4_000_000.0,
    rate_rps: float = SERVE_RATE_RPS,
) -> Outcome:
    """Seeded Poisson arrivals over the contended 2-island fabric, with
    a device failure under replica 0 halfway through (repaired 30 ms
    later)."""
    r = run_serving(
        rate_rps=rate_rps,
        duration_us=duration_us,
        slo_us=SLO_US,
        fail_replica_at=duration_us / 2,
        repair_us=30_000.0,
        seed=seed,
    )
    system = r.system_handle
    frontend = system.frontends[0]
    refused = r.total_rejected + r.abandoned
    latencies = frontend.recorder.latencies
    counts = _layer_counts(system, probes)
    load = rate_rps / r.capacity_rps if r.capacity_rps else 0.0
    return Outcome(
        attempted=r.arrived,
        failed=refused,
        model={
            "sim_goodput_rps": r.goodput_rps,
            "sim_p50_ms": percentile_with_refusals(latencies, refused, 50.0) / 1e3,
            "sim_p99_ms": percentile_with_refusals(latencies, refused, 99.0) / 1e3,
            "sim_util": _busy_fraction(system),
        },
        counts=counts,
        checks={
            **_common_checks(system),
            "one_outcome_per_request": (
                r.arrived == r.completed + r.total_rejected + r.abandoned
                and frontend.outstanding == 0
            ),
            "none_abandoned": r.abandoned == 0,
            "replica_recovered": r.recoveries >= 1,
            "load_near_0.9_capacity": 0.85 <= load <= 0.95,
            # At the knee the system serves at least 99% of requests, so
            # sim_p99_ms is a completed latency, never a refusal.
            "refused_under_1pct": refused * 100 < r.arrived,
        },
    )


# ---------------------------------------------------------------------------
# churn-a: configuration A, three tenants under seeded device churn
# ---------------------------------------------------------------------------
def churn_a(
    seed: int,
    probes: Probes,
    steps_per_client: int = 100,
    slice_devices: int = 512,
    n_hosts: int = 512,
    n_clients: int = 3,
) -> Outcome:
    """Three tenants training on ``slice_devices``-device slices of
    ``config_a(n_hosts)`` while a seeded Poisson process fails and repairs
    devices (MTBF 400 ms), with checkpoint/restore every 15 ms."""
    r = run_churn(
        n_clients=n_clients,
        steps_per_client=steps_per_client,
        slice_devices=slice_devices,
        n_hosts=n_hosts,
        devices_per_host=4,
        mtbf_us=400_000.0,
        checkpoint_interval_us=15_000.0,
        seed=seed,
    )
    system = r.system_handle
    counts = _layer_counts(system, probes)
    executions = r.useful_steps + r.replayed_steps
    counts["resilience.faults"] = r.faults_injected
    counts["resilience.replayed_steps"] = r.replayed_steps
    counts["resilience.useful_ratio"] = r.useful_steps / executions if executions else 0.0
    counts["resilience.ckpt_ms"] = r.checkpoint_overhead_us / 1e3
    abandoned = len(r.abandoned)
    return Outcome(
        attempted=executions + abandoned,
        failed=abandoned,
        model={
            "sim_steps_per_s": r.goodput_steps_per_second,
            "sim_util": _busy_fraction(system),
        },
        counts=counts,
        checks={
            **_common_checks(system),
            "steps_complete_or_typed_abandon": (
                r.useful_steps == n_clients * steps_per_client or abandoned > 0
            ),
        },
    )


WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "fig5-dispatch": fig5_dispatch,
    "pipeline-16": pipeline_16,
    "serve-drill": serve_drill,
    "churn-a": churn_a,
}

#: Small sizes of each workload, for the benchmark's own tests.
TINY: dict[str, dict] = {
    "fig5-dispatch": dict(n_hosts=2, chain_len=8, n_calls=3),
    "pipeline-16": dict(n_stages=2, n_microbatches=4, cores=16),
    "serve-drill": dict(duration_us=200_000.0),
    "churn-a": dict(steps_per_client=4, slice_devices=8, n_hosts=8),
}
