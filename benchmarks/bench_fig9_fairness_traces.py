"""Figures 9 & 11: gang-scheduled interleaving traces + proportional share.

Renders ASCII per-core timelines of four concurrent clients on one
island, for scheduler weight ratios 1:1:1:1 and 1:2:4:8, and checks the
measured device-time shares against the targets.  Also reproduces the
Figure 11 utilization claim: more concurrent clients drive devices to
~100% busy when a single client cannot.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import full_asserts, smoke_trim
from repro.telemetry import Tracer
from repro.trace import (
    interleave_granularity_us,
    program_share,
    render_timeline,
    utilization_by_device,
)
from repro.workloads.multitenant import run_pathways_multitenant

WEIGHT_SETS = smoke_trim(([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 4.0, 8.0]), keep=1)
UTIL_CLIENTS = smoke_trim((1, 4, 16), keep=2)


def run_fairness(wts):
    weights = {f"client{i}": w for i, w in enumerate(wts)}
    return run_pathways_multitenant(
        4, 2000.0, n_hosts=2, devices_per_host=8, iters_per_client=25,
        weights=weights, tracer=Tracer(), pipelined=True,
        scale_iters_by_weight=True,
    )


def run_all():
    fairness = {tuple(wts): run_fairness(wts) for wts in WEIGHT_SETS}
    utilization = {
        n: run_pathways_multitenant(
            n, 330.0, n_hosts=2, devices_per_host=8, iters_per_client=20,
            tracer=Tracer(), pipelined=True,
        )
        for n in UTIL_CLIENTS
    }
    return fairness, utilization


def test_fig9_fairness_traces(benchmark):
    fairness, utilization = benchmark.pedantic(run_all, rounds=1, iterations=1)

    for wts, res in fairness.items():
        trace = res.system_handle.sim.tracer
        lo, hi = trace.extent("kernel")
        window = (lo + 0.1 * (hi - lo), lo + 0.8 * (hi - lo))
        shares = program_share(trace, window=window)
        total = sum(wts)
        ratio = ":".join(str(int(w)) for w in wts)
        print(f"\n== Figure 9: proportional share {ratio} ==")
        print(render_timeline(trace, width=100, devices=range(4)))
        for i, w in enumerate(wts):
            measured = shares.get(f"step_client{i}_solo", 0.0)
            print(f"  client{i}: share {measured:.3f} (target {w/total:.3f})")
            assert measured == pytest.approx(w / total, abs=0.05)
        gran = interleave_granularity_us(trace)
        print(f"  interleave granularity: {gran/1000:.2f} ms")
        assert gran < 20_000.0

    print("\n== Figure 11: utilization vs concurrent clients (0.33 ms) ==")
    utils = {}
    for n, res in utilization.items():
        u = utilization_by_device(res.system_handle.sim.tracer)
        utils[n] = sum(u.values()) / len(u)
        print(f"  {n:3d} client(s): mean device utilization {utils[n]:.1%}")
    # A single client cannot saturate; many clients approach ~100%.
    assert utils[1] < 0.5
    if full_asserts():
        assert utils[16] > 0.85
