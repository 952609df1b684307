"""Quantitative trace analysis.

These functions compute the numbers the paper's trace figures illustrate:
per-device utilization (Figure 11: "using multiple clients increases the
device utilization to ~100%"), per-program device-time shares (Figure 9:
proportional-share ratios 1:1:1:1 and 1:2:4:8), and the granularity at
which concurrent programs interleave (Figure 11: "interleaved at a
millisecond scale or less").  Each reads the ``kernel`` spans of a
:class:`~repro.telemetry.Tracer`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.spans import Tracer

__all__ = [
    "interleave_granularity_us",
    "program_share",
    "utilization_by_device",
]


def kernel_intervals(tracer: "Tracer") -> list[tuple[int, float, float, str]]:
    """``(device, start, end, program)`` of every kernel span, in
    recording order."""
    return [
        (s.args["device"], s.start_us, s.end_us, s.args["program"])
        for s in tracer.by_cat("kernel")
    ]


def utilization_by_device(
    tracer: "Tracer", window: Optional[tuple[float, float]] = None
) -> dict[int, float]:
    """Busy fraction per device over ``window`` (default: kernel extent)."""
    kernels = kernel_intervals(tracer)
    devices = sorted({dev for dev, _, _, _ in kernels})
    lo, hi = window if window is not None else tracer.extent("kernel")
    if hi <= lo:
        return {dev: 0.0 for dev in devices}
    busy: dict[int, float] = defaultdict(float)
    for dev, start, end, _ in kernels:
        overlap = min(end, hi) - max(start, lo)
        if overlap > 0:
            busy[dev] += overlap
    return {dev: busy[dev] / (hi - lo) for dev in devices}


def program_share(
    tracer: "Tracer", window: Optional[tuple[float, float]] = None
) -> dict[str, float]:
    """Fraction of total device-time consumed by each program.

    This is the quantity the proportional-share scheduler controls: for
    target weights 1:2:4:8, the returned shares should be ~1/15, 2/15,
    4/15, 8/15.
    """
    lo, hi = window if window is not None else tracer.extent("kernel")
    time_by_program: dict[str, float] = defaultdict(float)
    total = 0.0
    for _, start, end, program in kernel_intervals(tracer):
        overlap = min(end, hi) - max(start, lo)
        if overlap > 0 and program:
            time_by_program[program] += overlap
            total += overlap
    if total == 0:
        return {}
    return {prog: t / total for prog, t in sorted(time_by_program.items())}


def interleave_granularity_us(tracer: "Tracer", device: Optional[int] = None) -> float:
    """Mean length of a same-program run before the device switches program.

    Small values mean fine-grained time-multiplexing (the paper reports
    millisecond scale or less for 4-16 concurrent clients).
    """
    by_device: dict[int, list[tuple[float, float, str]]] = defaultdict(list)
    for dev, start, end, program in kernel_intervals(tracer):
        if device is None or dev == device:
            by_device[dev].append((start, end, program))
    run_lengths: list[float] = []
    for dev in sorted(by_device):
        events = sorted(by_device[dev], key=lambda ev: ev[0])
        run_start, run_end, run_prog = events[0]
        for start, end, program in events[1:]:
            if program == run_prog:
                run_end = end
            else:
                run_lengths.append(run_end - run_start)
                run_start, run_end, run_prog = start, end, program
        run_lengths.append(run_end - run_start)
    if not run_lengths:
        return 0.0
    return sum(run_lengths) / len(run_lengths)
