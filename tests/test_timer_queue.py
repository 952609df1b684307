"""The calendar timer queue against the reference heap, property-style.

The calendar queue must be *observationally identical* to a binary heap
ordered by ``(when, seq)`` — same pop order for every interleaving of
pushes and pops, across the delay mixes that stress its machinery:
same-instant ties (seq tiebreak), dense near-future bursts (bucket
splits), far-future outliers (overflow ring + rotation), and draining
to empty (horizon rebuild).  The golden-determinism suite then checks
the same property end to end through real workloads; these tests pin it
at the queue layer where shrinking is cheap.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CalendarTimerQueue, Simulator
from repro.testing.oracles import HeapTimerQueue, use_timer_queue

#: Delay pools chosen to hit every calendar mechanism: sub-width ties,
#: in-horizon spread, and way-past-horizon overflow.
WHENS = st.one_of(
    st.sampled_from([0.0, 1.0, 5.0, 5.0, 32.0]),          # same-instant ties
    st.floats(min_value=0.0, max_value=1e4),              # in-horizon spread
    st.floats(min_value=1e8, max_value=1e12),             # far-future overflow
)

#: An op sequence: push a `when`, or pop (``None``).
OPS = st.lists(st.one_of(WHENS, st.none()), min_size=1, max_size=200)


def run_ops(queue, ops):
    """Apply pushes/pops; returns the observed pop stream."""
    seq = 0
    pops = []
    for op in ops:
        if op is None:
            if len(queue):
                pops.append(queue.pop())
        else:
            seq += 1
            queue.push(op, seq, f"ev{seq}")
    while len(queue):
        pops.append(queue.pop())
    return pops


@given(ops=OPS)
@settings(max_examples=200, deadline=None)
def test_pop_order_matches_heap_reference(ops):
    assert run_ops(CalendarTimerQueue(), ops) == run_ops(HeapTimerQueue(), ops)


@given(ops=OPS)
@settings(max_examples=100, deadline=None)
def test_min_when_tracks_heap_reference(ops):
    cal, heap = CalendarTimerQueue(), HeapTimerQueue()
    seq = 0
    for op in ops:
        if op is None:
            if len(heap):
                cal.pop()
                heap.pop()
        else:
            seq += 1
            cal.push(op, seq, None)
            heap.push(op, seq, None)
        assert cal.min_when == heap.min_when
        assert len(cal) == len(heap)


def test_zero_delay_burst_pops_in_seq_order():
    q = CalendarTimerQueue()
    for seq in range(100):
        q.push(0.0, seq, seq)
    assert [q.pop()[1] for _ in range(100)] == list(range(100))


def test_far_future_overflow_round_trip():
    """Entries past the horizon park in the overflow ring and still pop
    in global order once the near-future population drains."""
    q = CalendarTimerQueue()
    q.push(1e9, 1, "far")
    q.push(1.0, 2, "near")
    q.push(5e11, 3, "farther")
    assert q.min_when == 1.0
    assert [q.pop()[2] for _ in range(3)] == ["near", "far", "farther"]
    assert len(q) == 0


def test_dense_bucket_triggers_resize_and_keeps_order():
    """10k entries landing in one default-width bucket force the
    load-time split; order must survive it."""
    rng = random.Random(7)
    q, ref = CalendarTimerQueue(), HeapTimerQueue()
    for seq in range(10_000):
        when = 5.0 + rng.random() * 20.0  # dense: ~1 default bucket wide
        q.push(when, seq, seq)
        ref.push(when, seq, seq)
    while len(ref):
        assert q.pop() == ref.pop()


def test_interleaved_steady_state_churn():
    """Timer-wheel steady state: pop one, push one, far beyond the
    initial horizon — exercises rotation after every horizon exhaustion."""
    rng = random.Random(3)
    q, ref = CalendarTimerQueue(), HeapTimerQueue()
    now, seq = 0.0, 0
    for seq in range(500):
        when = now + rng.random() * 1000.0
        q.push(when, seq, seq)
        ref.push(when, seq, seq)
    for seq in range(500, 20_000):
        got, want = q.pop(), ref.pop()
        assert got == want
        now = want[0]
        when = now + rng.random() * 1000.0
        q.push(when, seq, seq)
        ref.push(when, seq, seq)


class _Shot:
    """Minimal cancellable entry (the TimerHandle-shot contract)."""

    __slots__ = ("tag", "_dead")

    def __init__(self, tag):
        self.tag = tag
        self._dead = False


#: Push a `when`, pop (``None``), or discard a random live entry.
DISCARD_OPS = st.lists(
    st.one_of(WHENS, st.none(), st.tuples(st.just("x"), st.integers(0, 40))),
    min_size=1,
    max_size=150,
)


@given(ops=DISCARD_OPS)
@settings(max_examples=200, deadline=None)
def test_discard_matches_heap_reference(ops):
    """Random push/pop/discard streams: identical pop streams, live
    counts, and ``min_when`` on both cores.  ``min_when`` must always
    name the earliest *live* entry — the drain loop orders queue events
    against zero-delay immediates with it, so a stale value (early or
    late) after a cancellation would reorder real schedules."""
    cal, heap = CalendarTimerQueue(), HeapTimerQueue()
    seq = 0
    live = []  # (when, cal entry, heap entry), insertion order

    def pop_both():
        a, b = cal.pop(), heap.pop()
        assert (a[0], a[1], a[2].tag) == (b[0], b[1], b[2].tag)
        for i, (_, sa, _) in enumerate(live):
            if sa is a[2]:
                del live[i]
                break

    for op in ops:
        if op is None:
            if len(heap):
                pop_both()
        elif isinstance(op, tuple):
            if live:
                when, sa, sb = live.pop(op[1] % len(live))
                sa._dead = sb._dead = True
                cal.discard(when, sa)
                heap.discard(when, sb)
        else:
            seq += 1
            sa, sb = _Shot(seq), _Shot(seq)
            live.append((op, sa, sb))
            cal.push(op, seq, sa)
            heap.push(op, seq, sb)
        assert len(cal) == len(heap) == len(live)
        assert cal.min_when == heap.min_when
    while len(heap):
        pop_both()
    assert len(cal) == 0 and not live
    assert cal.min_when == heap.min_when == float("inf")


def test_head_discard_below_min_sweeps_exposed_tombstone():
    """Regression: discarding the loaded-bucket head while the global
    minimum sits *below* the loaded bucket must still sweep tombstones
    the removal exposes.  The old head path skipped the sweep when
    ``when != min_when``, leaving a dead entry as the current head;
    ``_refresh_min`` then used it as a live scan bound (stale-early
    ``min_when``), a later ``pop`` returned the dead entry and
    double-decremented the live count, and the resulting undercount
    garbage-collected live timers — a silently dropped timeout."""
    cal, ref = CalendarTimerQueue(), HeapTimerQueue()
    shots = {}

    def push(when, seq):
        sa, sb = _Shot(seq), _Shot(seq)
        shots[seq] = (when, sa, sb)
        cal.push(when, seq, sa)
        ref.push(when, seq, sb)

    def discard(seq):
        when, sa, sb = shots.pop(seq)
        sa._dead = sb._dead = True
        cal.discard(when, sa)
        ref.discard(when, sb)

    # A cluster whose first pop rotates the wheel (width 48 for this
    # population) and loads the bucket holding 100/101/102.
    push(100.0, 1)
    push(101.0, 2)
    push(102.0, 3)
    push(90.0, 0)
    assert cal.pop()[0] == ref.pop()[0] == 90.0
    # Tombstone a non-head entry of the loaded bucket...
    discard(2)
    # ...move the global minimum below the loaded bucket...
    push(10.0, 4)
    assert cal.min_when == ref.min_when == 10.0
    # ...and discard the loaded head while when (100) != min_when (10):
    # the pop exposes the 101 tombstone as the current head.
    discard(1)
    assert len(cal) == len(ref) == 2
    assert cal.min_when == ref.min_when == 10.0
    # Discarding the minimum forces _refresh_min over the survivors; a
    # dead current head here yielded the stale-early bound 101.0.
    discard(4)
    assert len(cal) == len(ref) == 1
    assert cal.min_when == ref.min_when == 102.0
    # The one live entry must actually be delivered.
    got, want = cal.pop(), ref.pop()
    assert (got[0], got[1], got[2].tag) == (want[0], want[1], want[2].tag)
    assert (got[0], got[2]._dead) == (102.0, False)
    assert len(cal) == len(ref) == 0
    assert cal.min_when == ref.min_when == float("inf")


def test_head_discard_below_min_drains_loaded_bucket():
    """Companion regression: the same below-minimum head discard where
    the sweep empties the loaded bucket entirely — the queue must fall
    back to the bucket holding the true minimum, not strand it."""
    cal, ref = CalendarTimerQueue(), HeapTimerQueue()
    pairs = {s: (_Shot(s), _Shot(s)) for s in (0, 1, 2, 4)}
    whens = {0: 90.0, 1: 100.0, 2: 101.0, 4: 10.0}
    for s in (1, 2):
        cal.push(whens[s], s, pairs[s][0])
        ref.push(whens[s], s, pairs[s][1])
    cal.push(whens[0], 0, pairs[0][0])
    ref.push(whens[0], 0, pairs[0][1])
    assert cal.pop()[0] == ref.pop()[0] == 90.0  # loads {100, 101}
    # Tombstone 101, then drop the minimum below the loaded bucket.
    pairs[2][0]._dead = pairs[2][1]._dead = True
    cal.discard(101.0, pairs[2][0])
    ref.discard(101.0, pairs[2][1])
    cal.push(10.0, 4, pairs[4][0])
    ref.push(10.0, 4, pairs[4][1])
    # Head discard at when != min_when: the sweep removes the exposed
    # 101 tombstone too, emptying the loaded bucket.
    pairs[1][0]._dead = pairs[1][1]._dead = True
    cal.discard(100.0, pairs[1][0])
    ref.discard(100.0, pairs[1][1])
    assert len(cal) == len(ref) == 1
    assert cal.min_when == ref.min_when == 10.0
    got, want = cal.pop(), ref.pop()
    assert (got[0], got[1], got[2].tag) == (want[0], want[1], want[2].tag)
    assert got[0] == 10.0 and not got[2]._dead
    assert len(cal) == 0 and cal.min_when == float("inf")


class TestTimerQueueSelection:
    def test_default_is_calendar(self):
        assert type(Simulator()._queue) is CalendarTimerQueue

    def test_explicit_heap(self):
        sim = Simulator()
        use_timer_queue(sim, HeapTimerQueue)
        assert type(sim._queue) is HeapTimerQueue

    def test_oracle_refuses_live_timers(self):
        sim = Simulator()
        sim.timeout(5.0)
        with pytest.raises(RuntimeError, match="1 timer"):
            use_timer_queue(sim, HeapTimerQueue)
        sim.run()
        use_timer_queue(sim, HeapTimerQueue)  # drained: idle again


class TestEngineCoreEquivalence:
    """The same seeded program must produce identical schedules on both
    timer-queue cores (the golden churn/net/serve suites pin this for
    the calendar default; this pins calendar *against* heap)."""

    @staticmethod
    def _schedule(timer_queue: type):
        rng = random.Random(42)
        sim = Simulator(log_schedule=True)
        use_timer_queue(sim, timer_queue)

        def proc(i):
            for _ in range(10):
                r = rng.random()
                if r < 0.1:
                    yield sim.timeout(0.0)
                elif r < 0.9:
                    yield sim.timeout(rng.random() * 100.0)
                else:
                    yield sim.timeout(1e7 * rng.random())

        for i in range(50):
            sim.process(proc(i), name=f"p{i}")
        sim.run()
        return list(sim.schedule_log)

    def test_identical_schedules(self):
        assert self._schedule(CalendarTimerQueue) == self._schedule(HeapTimerQueue)
