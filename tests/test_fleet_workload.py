"""The fleet timer workload: determinism across cores and seeds.

FLEET-C's CI gate compares event counts between the heap and calendar
engines and across serial/parallel sweep runs, so the workload itself
must be exactly deterministic: same seed -> same schedule, and the two
timer-queue cores must walk identical windows.
"""

from __future__ import annotations

import pytest

from repro.sim import CalendarTimerQueue
from repro.testing.oracles import HeapTimerQueue
from repro.workloads.fleet import run_fleet_telemetry


def tiny(**kw):
    kw.setdefault("n_cells", 1)
    kw.setdefault("repeats", 2)
    kw.setdefault("manage_gc", False)
    return run_fleet_telemetry(**kw)


def test_population_matches_config_c_shape():
    r = tiny()
    # Config C: 4 islands x 4 hosts x 8 TPUs = 16 hosts / 128 devices.
    assert r.active_timers == 128 + 16
    assert r.dormant_timers == 2 * 128 + 2 * 16
    assert r.cell_name == "C"
    assert r.n_cells == 1


def test_windows_hold_identical_event_counts():
    """duration_us is an exact multiple of both periods, so every repeat
    window must process the same number of events — the property that
    makes best-of-repeats machine-independent."""
    r = tiny(repeats=3)
    assert len(set(r.repeat_events)) == 1
    assert r.sim_events == r.repeat_events[0] > 0
    assert r.ticks > 0


def test_same_seed_same_schedule_across_cores():
    heap = tiny(timer_queue=HeapTimerQueue)
    cal = tiny()
    assert type(heap.system_handle._queue) is HeapTimerQueue
    assert type(cal.system_handle._queue) is CalendarTimerQueue
    assert heap.repeat_events == cal.repeat_events
    assert heap.ticks == cal.ticks


def test_same_seed_reproduces_exactly():
    a, b = tiny(seed=7), tiny(seed=7)
    assert (a.repeat_events, a.ticks, a.sim_events) == (
        b.repeat_events, b.ticks, b.sim_events
    )


def test_event_count_is_phase_independent():
    """With duration an exact multiple of every period, each ticker
    fires the same number of times per window no matter its phase — so
    the count survives reseeding, the strongest form of the CI gate's
    machine-independence requirement."""
    assert tiny(seed=1).sim_events == tiny(seed=2).sim_events


def test_rejects_empty_fleet():
    with pytest.raises(ValueError, match="n_cells"):
        run_fleet_telemetry(0)
