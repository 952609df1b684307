"""Tests for the kernel-span renderers: analysis and timeline rendering
over a :class:`~repro.telemetry.Tracer`'s ``kernel`` spans."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.telemetry import Tracer
from repro.trace import (
    interleave_granularity_us,
    program_share,
    render_timeline,
    utilization_by_device,
)
from repro.xla.computation import scalar_allreduce_add


def make_trace():
    trace = Tracer()
    # Device 0: A [0,10], B [10,20], A [20,30]
    trace.record(0, 0.0, 10.0, program="A")
    trace.record(0, 10.0, 20.0, program="B")
    trace.record(0, 20.0, 30.0, program="A")
    # Device 1: A [0,15], idle [15,30]
    trace.record(1, 0.0, 15.0, program="A")
    return trace


class TestRecorder:
    def test_span(self):
        assert make_trace().extent("kernel") == (0.0, 30.0)

    def test_filters(self):
        trace = make_trace()
        kernels = trace.by_cat("kernel")
        assert [s.args["device"] for s in kernels].count(0) == 3
        assert [s.args["program"] for s in kernels].count("A") == 3
        assert sorted(utilization_by_device(trace)) == [0, 1]
        assert sorted(program_share(trace)) == ["A", "B"]

    def test_disabled_recorder_drops_events(self):
        trace = Tracer(enabled=False)
        trace.record(0, 0.0, 1.0)
        assert trace.spans == []

    def test_clear(self):
        trace = make_trace()
        trace.clear()
        assert trace.extent("kernel") == (0.0, 0.0)

    def test_event_duration(self):
        trace = Tracer()
        trace.record(0, 2.0, 5.0)
        (span,) = trace.by_cat("kernel")
        assert span.duration_us == 3.0
        assert span.track == "device0"


class TestAnalysis:
    def test_utilization(self):
        util = utilization_by_device(make_trace())
        assert util[0] == pytest.approx(1.0)
        assert util[1] == pytest.approx(0.5)

    def test_utilization_with_window(self):
        util = utilization_by_device(make_trace(), window=(0.0, 15.0))
        assert util[0] == pytest.approx(1.0)
        assert util[1] == pytest.approx(1.0)

    def test_program_share(self):
        shares = program_share(make_trace())
        assert shares["A"] == pytest.approx(35 / 45)
        assert shares["B"] == pytest.approx(10 / 45)

    def test_program_share_empty(self):
        assert program_share(Tracer()) == {}

    def test_interleave_granularity(self):
        # Device 0 runs: A(10), B(10), A(10) -> mean run 10.
        g = interleave_granularity_us(make_trace(), device=0)
        assert g == pytest.approx(10.0)

    def test_granularity_merges_adjacent_same_program(self):
        trace = Tracer()
        trace.record(0, 0.0, 5.0, program="A")
        trace.record(0, 5.0, 10.0, program="A")
        trace.record(0, 10.0, 20.0, program="B")
        assert interleave_granularity_us(trace, device=0) == pytest.approx(10.0)

    def test_non_kernel_spans_are_ignored(self):
        trace = make_trace()
        trace.complete("dispatch", "core", 0.0, 100.0, track="device0")
        assert trace.extent("kernel") == (0.0, 30.0)
        assert program_share(trace)["A"] == pytest.approx(35 / 45)


class TestRender:
    def test_rows_and_legend(self):
        out = render_timeline(make_trace(), width=30)
        lines = out.splitlines()
        assert any(line.startswith("core    0") for line in lines)
        assert any(line.startswith("core    1") for line in lines)
        assert "legend:" in lines[-1]
        assert "A=A" in lines[-1]

    def test_idle_shown_as_dots(self):
        out = render_timeline(make_trace(), width=30)
        row1 = [l for l in out.splitlines() if l.startswith("core    1")][0]
        assert "." in row1

    def test_empty_trace(self):
        assert render_timeline(Tracer()) == "(empty trace)"

    def test_device_filter(self):
        out = render_timeline(make_trace(), width=10, devices=[1])
        assert "core    0" not in out


def run_lane_chain(tracer: Tracer) -> PathwaysSystem:
    """A 4-node chain of one 8-wide gang on 2 hosts x 4 devices, traced
    by ``tracer``; returns the drained system."""
    system = PathwaysSystem.build(
        ClusterSpec(islands=((2, 4),), name="lanes"), tracer=tracer
    )
    client = system.client("t")
    devs = system.make_virtual_device_set().add_slice(tpu_devices=8)
    step = client.wrap(scalar_allreduce_add(8, 200.0), devices=devs)

    @client.program
    def chain(v):
        x = v
        for _ in range(4):
            x = step(x)
        return x

    execution = client.submit(
        chain.trace(np.float32(0.0)), (0.0,), compute_values=False
    )
    # The gang was bound as one lane: only its leader drains.
    assert all(d.lane is not None for d in system.cluster.devices)
    system.sim.run_until_triggered(execution.done)
    system.sim.run()
    return system


class TestSystemKernelSpans:
    def test_lane_members_each_get_kernel_spans(self):
        """A gang-lane leader completes every kernel once for all its
        members; each member still gets its own kernel span, so the
        per-device span count equals ``kernels_run`` and the timeline
        draws every core."""
        tracer = Tracer()
        system = run_lane_chain(tracer)
        assert system.sim.tracer is tracer
        devices = system.cluster.devices
        spans = tracer.by_cat("kernel")
        for dev in devices:
            count = sum(1 for s in spans if s.args["device"] == dev.device_id)
            assert count == dev.kernels_run > 0
        art = render_timeline(tracer, width=40)
        for dev in devices:
            assert f"core {dev.device_id:4d} |" in art

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        system = run_lane_chain(tracer)
        assert tracer.spans == []
        assert all(d.kernels_run > 0 for d in system.cluster.devices)
