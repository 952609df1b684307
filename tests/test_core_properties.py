"""Property-based tests on core-runtime invariants (hypothesis)."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.object_store import ShardedObjectStore
from repro.core.placement import DeviceGroup
from repro.core.scheduler import (
    DeadlineExceeded,
    EarliestDeadlinePolicy,
    FifoPolicy,
    GangRequest,
    IslandScheduler,
    ProportionalSharePolicy,
)
from repro.hw.device import DeviceFailure
from repro.hw.topology import Island
from repro.sim import Simulator


@given(
    depth=st.integers(1, 4),
    jobs=st.lists(
        st.tuples(st.integers(0, 3), st.floats(10.0, 200.0)),  # (device, cost)
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=40, deadline=None)
def test_scheduler_admission_never_exceeds_depth(depth, jobs):
    """At no instant may more than ``depth`` granted-but-unfinished
    computations exist on any device."""
    sim = Simulator()
    cfg = DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=depth)
    island = Island(sim, cfg, 0, n_hosts=1, devices_per_host=4)
    sched = IslandScheduler(sim, island, cfg)
    live: dict[int, int] = {}
    max_live = [0]

    def unit(dev, cost):
        req = sched.submit("c", "p", "n", cost_us=cost, device_ids=(dev,))
        yield req.grant
        live[dev] = live.get(dev, 0) + 1
        max_live[0] = max(max_live[0], live[dev])
        req.enqueued_ack.succeed(None)
        yield sim.timeout(cost)
        live[dev] -= 1
        sched.complete(req)

    procs = [sim.process(unit(dev, cost)) for dev, cost in jobs]
    sim.run_until_triggered(sim.all_of(procs))
    assert max_live[0] <= depth


class LinearScanScheduler(IslandScheduler):
    """Reference grant selection: one linear scan over every pending
    request in seq order, checking each request's admission on its own."""

    def _select(self):
        pending = sorted(
            (r for queue in self._pending.values() for r in queue),
            key=lambda r: r.seq,
        )
        if getattr(self.policy, "picks_first_eligible", False):
            for r in pending:
                if self._eligible(r.device_ids):
                    return r
            return None
        eligible = [r for r in pending if self._eligible(r.device_ids)]
        return self.policy.pick(eligible) if eligible else None


#: Device sets on a 1-host x 4-device island: disjoint, overlapping and
#: (drawn more than once) identical.
_DEVICE_SETS = ((0,), (1,), (3,), (0, 1), (1, 2), (2, 3), (0, 1, 2, 3))

_submit_ops = st.tuples(
    st.just("submit"),
    st.sampled_from(("a", "b", "c")),
    st.sampled_from(_DEVICE_SETS),
    st.integers(1, 120),  # cost (us)
    st.one_of(st.none(), st.integers(0, 300)),  # deadline offset (us)
)
_control_ops = st.tuples(
    # Pause windows queue up bursts that then contend at resume.
    st.sampled_from(
        ("evict", "readmit", "pause", "pause", "resume", "resume", "drain", "undrain")
    ),
    st.integers(0, 3),
)


def _run_schedule(scheduler_cls, policy, depth, ops, decision_us):
    """Play ``ops`` against one scheduler; returns every grant, typed
    failure and drain completion in order, plus the final stats."""
    sim = Simulator()
    cfg = DEFAULT_CONFIG.with_overrides(
        scheduler_queue_depth=depth, scheduler_decision_us=decision_us
    )
    island = Island(sim, cfg, 0, n_hosts=1, devices_per_host=4)
    sched = scheduler_cls(sim, island, cfg, policy=policy)
    log = []

    def unit(label, client, devices, cost, deadline):
        req = sched.submit(
            client, "p", label, cost_us=float(cost), device_ids=devices,
            deadline_at_us=deadline,
        )
        try:
            yield req.grant
        except (DeviceFailure, DeadlineExceeded) as exc:
            log.append(("fail", label, type(exc).__name__, str(exc), sim.now))
            return
        log.append(("grant", label, sim.now))
        req.enqueued_ack.succeed(None)
        yield sim.timeout(float(cost))
        sched.complete(req)

    def play():
        for i, (dt, op) in enumerate(ops):
            yield sim.timeout(float(dt))
            kind = op[0]
            if kind == "submit":
                _, client, devices, cost, offset = op
                deadline = None if offset is None else sim.now + offset
                sim.process(unit(f"g{i}", client, devices, cost, deadline))
            elif kind == "evict":
                sched.evict_device(op[1])
            elif kind == "readmit":
                sched.readmit_device(op[1])
            elif kind == "pause":
                sched.pause()
            elif kind == "resume":
                sched.resume()
            elif kind == "drain":
                sched.drain().add_callback(
                    lambda ev, i=i: log.append(("drained", i, sim.now))
                )
            else:
                sched.undrain()
        # Let everything still pending run to the end.
        sched.resume()
        sched.undrain()

    sim.process(play())
    sim.run()
    return log, sched.stats(), sim.now


@pytest.mark.parametrize(
    "make_policy",
    [
        FifoPolicy,
        lambda: ProportionalSharePolicy({"a": 1.0, "b": 2.0, "c": 4.0}),
        EarliestDeadlinePolicy,
    ],
    ids=["fifo", "proportional", "edf"],
)
@given(
    depth=st.integers(1, 2),
    decision_us=st.sampled_from((0.0, 4.0)),
    ops=st.lists(
        st.tuples(
            st.integers(0, 20), st.one_of(_submit_ops, _submit_ops, _control_ops)
        ),
        min_size=1,
        max_size=40,
    ),
)
# Two queues whose heads are out of queue-creation order: after g1 is
# granted, (0,)'s head is g3 but (1,)'s head g2 arrived first.
@example(
    depth=2,
    decision_us=4.0,
    ops=[
        (0, ("pause", 0)),
        (0, ("submit", "a", (0,), 50, None)),
        (0, ("submit", "b", (1,), 50, None)),
        (0, ("submit", "c", (0,), 50, None)),
        (10, ("resume", 0)),
    ],
)
@settings(max_examples=40, deadline=None)
def test_grant_index_matches_linear_scan(make_policy, depth, decision_us, ops):
    """The device-set grant index picks exactly what a linear scan over
    every pending request picks, under every policy and through
    evictions, readmits, deadline expiries, pause/resume and drains."""
    indexed = _run_schedule(IslandScheduler, make_policy(), depth, ops, decision_us)
    reference = _run_schedule(
        LinearScanScheduler, make_policy(), depth, ops, decision_us
    )
    assert indexed == reference
    assert indexed[1].pending == 0


@given(
    weights=st.lists(st.floats(0.5, 8.0), min_size=2, max_size=5),
    rounds=st.integers(100, 400),
)
@settings(max_examples=25, deadline=None)
def test_stride_policy_converges_to_weights(weights, rounds):
    """With all clients always pending, device-time shares converge to
    the weight vector."""
    names = [f"c{i}" for i in range(len(weights))]
    policy = ProportionalSharePolicy(dict(zip(names, weights)))
    sim = Simulator()
    time_share = {n: 0.0 for n in names}
    cost = 10.0
    for _ in range(rounds):
        pending = [
            GangRequest(n, "p", "x", sim.event(), sim.event(), cost_us=cost)
            for n in names
        ]
        winner = policy.pick(pending)
        time_share[winner.client] += cost
    total = sum(time_share.values())
    wsum = sum(weights)
    for n, w in zip(names, weights):
        assert time_share[n] / total == pytest.approx(w / wsum, abs=0.08)


@given(
    actions=st.lists(
        st.tuples(st.booleans(), st.integers(1, 1 << 16)),  # (release?, nbytes)
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=40, deadline=None)
def test_object_store_hbm_conservation(actions):
    """HBM in use always equals the sum of live objects' per-shard sizes,
    and everything returns to zero after owner GC."""
    sim = Simulator()
    cfg = DEFAULT_CONFIG
    island = Island(sim, cfg, 0, n_hosts=1, devices_per_host=2)
    group = DeviceGroup(island=island, devices=island.devices, n_logical=2)
    store = ShardedObjectStore(sim)
    live = []
    for release_one, nbytes in actions:
        if release_one and live:
            handle = live.pop()
            store.release(handle)
        else:
            handle, _ = store.allocate(nbytes, 2, owner="fuzz", group=group)
            live.append(handle)
        sim.run()
        expected = sum(h.nbytes_per_shard for h in live)
        for dev in group.devices:
            assert dev.hbm.used == expected
    store.collect_owner("fuzz")
    assert all(dev.hbm.used == 0 for dev in group.devices)
    assert len(store) == 0


@given(
    s=st.integers(1, 6),
    m_mult=st.integers(1, 6),
)
@settings(max_examples=20, deadline=None)
def test_pipeline_program_always_schedulable(s, m_mult):
    """Any (S, M) GPipe program builds a valid DAG whose execution
    terminates — the gating + FIFO + admission control combination never
    deadlocks for pipelines."""
    from repro.core.system import PathwaysSystem
    from repro.hw.cluster import ClusterSpec
    from repro.models.pipeline import PipelineBuilder
    from repro.models.transformer import TransformerConfig

    m = s * m_mult  # microbatches >= stages keeps shapes sane
    model = TransformerConfig("tiny", n_layers=max(6, s), d_model=64, d_ff=256, n_heads=4)
    system = PathwaysSystem.build(ClusterSpec(islands=((max(2, s), 2),)))
    batch = m * 32
    builder = PipelineBuilder(
        system, model, n_stages=s, n_microbatches=m, cores_per_stage=2,
        batch_tokens=batch, efficiency=0.5,
    )
    result = builder.run(system.client("t"))
    assert result.step_time_us > 0
    assert result.tokens_per_second > 0
    # The graph is exactly arg + 2*S*M + S + result nodes.
    assert builder.build().graph.n_nodes == 2 + 2 * s * m + s
