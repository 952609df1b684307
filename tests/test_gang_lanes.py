"""Gang lanes: a lockstep gang simulated once must compute what the
per-device simulation computes.

The differential test runs one seeded fault schedule twice on a
2-host x 4-device island: once with the lanes the resource manager
forms at bind, and once with every lane split at bind through the
production :meth:`GangLane.split` / :meth:`GangLane.split_hosts` path,
which leaves every device and host simulated on its own.  Per-device
accounting, every execution's typed outcome and the drain time must be
identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PathwaysSystem
from repro.core.input_pipeline import InputPipeline
from repro.hw.cluster import ClusterSpec
from repro.hw.device import Kernel
from repro.resilience import FaultInjector, FaultSchedule, RecoveryManager
from repro.sim import LaneDivergenceError
from repro.xla.computation import scalar_allreduce_add

SPEC = ClusterSpec(islands=((2, 4),), name="lanes")


def split_every_lane(system: PathwaysSystem) -> None:
    """Split every lane the resource manager forms, right at bind."""
    rm = system.resource_manager
    bind = rm.bind_slice

    def bind_and_split(vslice):
        group = bind(vslice)
        lane = group.lane
        if lane is not None:
            for dev in list(lane.devices):
                lane.split(dev)
            lane.split_hosts()
        return group

    rm.bind_slice = bind_and_split


def _chain_program(system, client, n_devices: int, length: int):
    devs = system.make_virtual_device_set().add_slice(tpu_devices=n_devices)
    step = client.wrap(scalar_allreduce_add(n_devices, 200.0), devices=devs)

    @client.program
    def chain(v):
        x = v
        for _ in range(length):
            x = step(x)
        return x

    return chain.trace(np.float32(0.0)), devs


def _outcome(execution) -> tuple:
    ev = execution.finished
    if ev.ok:
        return ("ok",)
    cause = ev._exc.cause
    return (type(cause).__name__, getattr(cause, "device_id", None),
            getattr(cause, "host_id", None))


def run_drill(faults: FaultSchedule, enqueues, split: bool, cpu_work=()) -> dict:
    """Three retrying 6-node chains over all 8 cores under ``faults``,
    plus direct kernels ``(at_us, device_id, duration_us)`` enqueued
    from outside the gang and host CPU work ``(at_us, host_id, work_us)``
    from outside the lane."""
    system = PathwaysSystem.build(SPEC)
    sim = system.sim
    if split:
        split_every_lane(system)
    recovery = RecoveryManager(system, detection_us=100.0, retry_backoff_us=500.0)
    FaultInjector(recovery, faults)
    client = system.client("t")
    program, _ = _chain_program(system, client, 8, 6)
    executions = [
        client.submit(program, (0.0,), compute_values=False,
                      retry_on_failure=True, max_attempts=3)
        for _ in range(3)
    ]

    def outsider(at_us, device_id, duration_us):
        yield sim.timeout(at_us)
        system.cluster.device(device_id).enqueue(Kernel(sim, duration_us=duration_us))

    def cpu_user(at_us, host_id, work_us):
        yield sim.timeout(at_us)
        yield from system.cluster.hosts[host_id].cpu.using(sim, work_us)

    for args in enqueues:
        sim.process(outsider(*args))
    for args in cpu_work:
        sim.process(cpu_user(*args))
    sim.run_until_triggered(sim.all_settled([e.finished for e in executions]))
    sim.run()
    return {
        "now": sim.now,
        "devices": [
            (d.busy_us, d.kernels_run, d.kernels_aborted, d.fail_count)
            for d in system.cluster.devices
        ],
        "cpu_busy": [h.cpu.busy_time() for h in system.cluster.hosts],
        "outcomes": [_outcome(e) for e in executions],
    }


# -- the differential ---------------------------------------------------------
faults_st = st.lists(
    st.one_of(
        st.tuples(st.just("dev"), st.floats(0, 6_000), st.integers(0, 7),
                  st.floats(0, 2_000)),
        st.tuples(st.just("host"), st.floats(0, 6_000), st.integers(0, 1),
                  st.floats(1, 2_000)),
    ),
    max_size=3,
)
enqueues_st = st.lists(
    st.tuples(st.floats(0, 6_000), st.integers(0, 7), st.floats(0, 300)),
    max_size=2,
)
cpu_work_st = st.lists(
    st.tuples(st.floats(0, 6_000), st.integers(0, 1), st.floats(0, 100)),
    max_size=1,
)


def _schedule(faults) -> FaultSchedule:
    schedule = FaultSchedule()
    for kind, at, target, repair in faults:
        if kind == "dev":
            schedule.device_failure(at, target, repair_us=repair)
        else:
            schedule.host_crash(at, target, repair_us=repair)
    return schedule


@settings(max_examples=25, deadline=None)
@given(faults=faults_st, enqueues=enqueues_st, cpu_work=cpu_work_st)
def test_lanes_match_split_simulation(faults, enqueues, cpu_work):
    laned = run_drill(_schedule(faults), enqueues, False, cpu_work)
    split = run_drill(_schedule(faults), enqueues, True, cpu_work)
    assert laned == split


@pytest.mark.parametrize(
    "faults, enqueues, cpu_work",
    [
        # Outside CPU work lands while lane preps queue on the leader
        # host (the chains' preps start at ~1,482 us), then a follower
        # fails, the leader's host crashes, and outside kernels land.
        (
            [("dev", 2_300.0, 5, 300.0), ("host", 3_100.0, 0, 800.0)],
            [(2_100.0, 2, 120.0), (3_500.0, 6, 50.0)],
            [(1_490.0, 1, 40.0)],
        ),
        # A follower host crashes while lane preps are queued.
        ([("host", 1_495.0, 1, 500.0)], [], []),
    ],
)
def test_differential_covers_splits_mid_run(faults, enqueues, cpu_work):
    laned = run_drill(_schedule(faults), enqueues, False, cpu_work)
    assert laned == run_drill(_schedule(faults), enqueues, True, cpu_work)
    assert sum(k for _, k, _, _ in laned["devices"]) > 0


@pytest.mark.parametrize("member", [0, 5])
def test_split_inside_a_kernel_completion(monkeypatch, member):
    """A kernel-done callback (which runs inside the leader's completion)
    enqueues onto the leader or a follower: the member leaves the lane
    mid-completion and must drain right after the leader does."""
    from repro.core.executor import NodeExecutor

    on_done = NodeExecutor._on_kernel_done

    def run(split: bool):
        fired = []

        def hooked(self, ev):
            on_done(self, ev)
            if not fired:
                fired.append(True)
                dev = self.node.group.devices[member]
                dev.enqueue(Kernel(dev.sim, duration_us=30.0))

        monkeypatch.setattr(NodeExecutor, "_on_kernel_done", hooked)
        return run_drill(FaultSchedule(), [], split=split)

    laned, split = run(False), run(True)
    assert laned == split
    runs = [k for _, k, _, _ in laned["devices"]]
    assert runs[member] == runs[member - 1 if member else 1] + 1


# -- lane mechanics -------------------------------------------------------------
def _bound_chain(spec=SPEC, n_devices=8, length=4):
    system = PathwaysSystem.build(spec)
    client = system.client("t")
    program, vslice = _chain_program(system, client, n_devices, length)
    return system, client, program, vslice.group


class TestLaneMechanics:
    def test_bind_forms_one_lane_over_the_gang(self):
        system, client, program, group = _bound_chain()
        lane = group.lane
        assert lane is not None
        assert lane.devices == group.devices
        assert lane.hosts == group.hosts
        assert lane.devices[0]._weight == 8

    def test_one_enqueue_and_one_prep_per_node(self, monkeypatch):
        from repro.hw.device import Device
        from repro.hw.host import Host

        calls = {"enqueue": 0, "prep": 0}
        enqueue, prep = Device.enqueue, Host.prep_request

        def counted_enqueue(self, *a, **k):
            calls["enqueue"] += 1
            return enqueue(self, *a, **k)

        def counted_prep(self, *a, **k):
            calls["prep"] += 1
            return prep(self, *a, **k)

        monkeypatch.setattr(Device, "enqueue", counted_enqueue)
        monkeypatch.setattr(Host, "prep_request", counted_prep)
        system, client, program, group = _bound_chain(length=5)
        execution = client.submit(program, (0.0,), compute_values=False)
        system.sim.run_until_triggered(execution.done)
        assert calls == {"enqueue": 5, "prep": 5}
        assert [d.kernels_run for d in system.cluster.devices] == [5] * 8
        busy = {d.busy_us for d in system.cluster.devices}
        assert len(busy) == 1 and busy.pop() > 0

    def test_direct_enqueue_splits_the_member_with_lane_state(self):
        system, client, program, group = _bound_chain()
        sim = system.sim
        execution = client.submit(program, (0.0,), compute_values=False)
        sim.run(until=sim.now + 300.0)
        member = group.devices[3]
        member.enqueue(Kernel(sim, duration_us=25.0))
        assert member.lane is None
        assert member not in group.lane.devices
        assert group.lane.devices[0]._weight == 7
        sim.run_until_triggered(execution.done)
        sim.run()
        runs = [d.kernels_run for d in group.devices]
        assert runs[3] == runs[0] + 1

    def test_leader_failure_promotes_the_next_member(self):
        system, client, program, group = _bound_chain()
        sim = system.sim
        lane = group.lane
        leader = lane.devices[0]
        client.submit(program, (0.0,), compute_values=False)
        sim.run(until=sim.now + 300.0)
        leader.fail()
        assert leader.lane is None
        assert lane.devices[0] is group.devices[1]
        assert lane.devices[0]._weight == 7

    def test_outside_cpu_use_expands_the_host_lane(self):
        system, client, program, group = _bound_chain()
        lane = group.lane
        assert lane.hosts
        sim = system.sim
        execution = client.submit(program, (0.0,), compute_values=False)
        InputPipeline(sim, [group.hosts[1]], 200.0, prefetch_depth=1)
        sim.run_until_triggered(execution.done)
        assert lane.hosts == []
        assert all(h.lane is None for h in group.hosts)

    def test_overlapping_bind_splits_the_old_lane(self):
        system, client, program, group = _bound_chain(n_devices=4)
        old = group.lane
        assert len(old.devices) == 4
        system.make_virtual_device_set().add_slice(tpu_devices=8)
        assert old.devices == []

    def test_remap_forms_a_fresh_lane(self):
        system = PathwaysSystem.build(SPEC)
        vslice = system.make_virtual_device_set().add_slice(tpu_devices=4)
        group = vslice.group
        group.devices[0].fail()
        new_group = system.resource_manager.rebind_slice(vslice)
        assert new_group.lane is not None and new_group.lane is not group.lane
        assert all(not d.failed for d in new_group.lane.devices)


@pytest.fixture
def sanitized_lane(monkeypatch):
    """A bound 8-device lane on a sanitizing simulator."""
    monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
    system = PathwaysSystem.build(SPEC)
    vslice = system.make_virtual_device_set().add_slice(tpu_devices=8)
    return system.sim, vslice.group.lane


class TestLaneSanitizer:
    def test_failed_device_left_in_a_lane_is_flagged(self, sanitized_lane):
        _, lane = sanitized_lane
        # Break the invariant directly: fail a member without the split.
        lane.devices[2].failed = True
        problems = lane._sanitizer_problems()
        assert any("failed device" in msg for _, msg in problems)

    def test_diverged_member_accounting_is_flagged(self, sanitized_lane):
        _, lane = sanitized_lane
        lane.devices[1].kernels_run += 1
        problems = lane._sanitizer_problems()
        assert any("diverged" in msg for _, msg in problems)

    def test_drain_sweep_raises_typed_error(self, sanitized_lane):
        sim, lane = sanitized_lane
        lane.devices[4].kernels_aborted += 1
        with pytest.raises(LaneDivergenceError):
            sim.sanitizer.check_drained(sim)

    def test_clean_lane_passes_the_drain_sweep(self, sanitized_lane):
        sim, lane = sanitized_lane
        assert lane._sanitizer_problems() == []
