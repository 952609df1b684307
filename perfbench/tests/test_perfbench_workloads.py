"""Metric extraction on a tiny configuration of each workload."""

import pytest

from probes import Probes
from workloads import TINY, WORKLOADS

#: The modelled metrics each workload defines (all others read 0).
MODEL = {
    "fig5-dispatch": {"sim_cps", "sim_util"},
    "pipeline-16": {"sim_tokens_per_s", "sim_util"},
    "serve-drill": {"sim_goodput_rps", "sim_p50_ms", "sim_p99_ms", "sim_util"},
    "churn-a": {"sim_steps_per_s", "sim_util"},
}


def _run(name, seed=1):
    with Probes() as probes:
        out = WORKLOADS[name](seed, probes, **TINY[name])
    return out, probes


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_reports_its_metrics_and_passes_checks(name):
    out, probes = _run(name)
    assert out.checks and all(out.checks.values()), out.checks
    assert set(out.model) == MODEL[name]
    assert all(v > 0 for v in out.model.values()), out.model
    assert 0.0 < out.model["sim_util"] <= 1.0
    assert out.attempted >= 1 and 0 <= out.failed <= out.attempted
    # Set-up only builds: the first engine entry finds nothing processed.
    assert probes.first_event_at is not None and probes.events_before_run == 0
    c = out.counts
    assert c["sim.events"] > 0 and c["hw.kernels"] > 0 and c["core.programs"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_repeats_exactly(name):
    a, _ = _run(name, seed=2)
    b, _ = _run(name, seed=2)
    assert (a.model, a.counts, a.attempted, a.failed) == (
        b.model, b.counts, b.attempted, b.failed
    )


def test_layer_contrasts_on_tiny_workloads():
    fig5, _ = _run("fig5-dispatch")
    serve, _ = _run("serve-drill")
    churn, _ = _run("churn-a")
    # Net, serve and resilience do no work on the dispatch control.
    for key in ("net.messages", "serve.arrived", "resilience.faults"):
        assert fig5.counts[key] == 0, key
    assert serve.counts["net.messages"] > 0
    assert serve.counts["serve.arrived"] == serve.attempted
    assert serve.counts["serve.batches"] > 0
    assert 0 < serve.counts["serve.batch_fill"] <= 1
    assert churn.counts["resilience.faults"] > 0
    assert 0 < churn.counts["resilience.useful_ratio"] <= 1


def test_probes_restore_the_wrapped_methods():
    from repro.hw.device import Device
    from repro.sim.engine import Simulator

    before = (Device.enqueue, Simulator.run_until_triggered)
    with Probes():
        assert Device.enqueue is not before[0]
    assert (Device.enqueue, Simulator.run_until_triggered) == before
