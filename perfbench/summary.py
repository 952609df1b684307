"""Pure arithmetic of the benchmark: quantiles, spreads and failure shares.

Nothing here imports the simulator, so the report code and the tests can
use it without building a cluster.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

__all__ = [
    "failed_frac",
    "percentile_with_refusals",
    "quartiles",
]


def percentile_with_refusals(
    latencies: Sequence[float], refused: int, q: float
) -> float:
    """Nearest-rank ``q``-th percentile over completed *and* refused requests.

    A refused request (rejected or abandoned) never met its deadline, so
    it ranks above every completed latency.  When the rank lands on a
    refused request the percentile is ``inf``: that share of requests
    has no latency at all.  Nearest rank matches
    ``repro.telemetry.histogram.percentile`` when ``refused`` is 0.
    """
    n = len(latencies) + refused
    if n == 0:
        return 0.0
    if refused < 0:
        raise ValueError(f"refused must be >= 0, got {refused}")
    rank = min(n, max(1, math.ceil(q / 100.0 * n)))
    if rank > len(latencies):
        return math.inf
    return sorted(latencies)[rank - 1]


def failed_frac(attempted: int, failed: int, run_ok: bool = True) -> float:
    """Failed operations over attempted ones.

    A run that raised or failed a check counts every one of its
    operations as failed, whatever the simulation itself reported.
    """
    if attempted <= 0:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return 1.0 if not run_ok else failed / attempted


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles``
    gives them with its default (exclusive) method."""
    vals = list(values)
    if not vals:
        raise ValueError("no values")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3
