"""Percentiles with refusals, failure shares and spreads."""

import math
import statistics

import pytest

from summary import failed_frac, percentile_with_refusals, quartiles


def test_percentile_without_refusals_is_nearest_rank():
    from repro.telemetry.histogram import percentile

    lat = [float(x) for x in range(1, 201)]
    for q in (50.0, 90.0, 99.0, 100.0):
        assert percentile_with_refusals(lat, 0, q) == percentile(lat, q)


def test_refusals_rank_above_every_completed_latency():
    lat = [float(x) for x in range(1, 100)]  # 99 completed
    # One refusal in 100 requests: p99 is still the 99th completed one.
    assert percentile_with_refusals(lat, 1, 99.0) == 99.0
    # Two refusals in 101: rank 100 lands on a refusal.
    assert percentile_with_refusals(lat, 2, 99.0) == math.inf
    # The median does not move past the completed half.
    assert percentile_with_refusals(lat, 2, 50.0) == 51.0


def test_all_refused_has_no_latency():
    assert percentile_with_refusals([], 5, 50.0) == math.inf
    assert percentile_with_refusals([], 0, 50.0) == 0.0


def test_refusals_counted_even_when_faster_requests_exist():
    # Latencies are sorted; refused requests are appended after them.
    assert percentile_with_refusals([30.0, 10.0, 20.0], 1, 75.0) == 30.0
    assert percentile_with_refusals([30.0, 10.0, 20.0], 1, 76.0) == math.inf


def test_failed_frac_counts_failed_over_attempted():
    assert failed_frac(4365, 3) == pytest.approx(3 / 4365)
    assert failed_frac(32, 0) == 0.0


def test_failed_frac_counts_every_operation_of_a_failed_run():
    assert failed_frac(32, 0, run_ok=False) == 1.0
    assert failed_frac(10, 2, run_ok=False) == 1.0


def test_failed_frac_rejects_impossible_counts():
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(3, 4)


def test_quartiles_match_statistics():
    vals = [1.0, 2.0, 4.0, 8.0, 16.0, 3.0, 5.0]
    q1, med, q3 = quartiles(vals)
    assert (q1, q3) == tuple(statistics.quantiles(vals, n=4)[::2])
    assert med == statistics.median(vals)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
