"""ASCII timeline rendering — the textual analogue of Figures 9-12.

Each device is one row; time is bucketed into fixed-width columns.  A
bucket shows the symbol of the program that used the most device time in
it, ``.`` if idle.  Programs are assigned symbols in first-seen order
(``A``, ``B``, ...).  The input is a :class:`~repro.telemetry.Tracer`'s
``kernel`` spans.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence, TYPE_CHECKING

from repro.trace.timeline import kernel_intervals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.spans import Tracer

__all__ = ["render_timeline"]

_SYMBOLS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


def render_timeline(
    tracer: "Tracer",
    width: int = 100,
    devices: Optional[Sequence[int]] = None,
    window: Optional[tuple[float, float]] = None,
    legend: bool = True,
) -> str:
    """Render the kernel spans as an ASCII chart, one row per device."""
    lo, hi = window if window is not None else tracer.extent("kernel")
    if hi <= lo:
        return "(empty trace)"
    kernels = kernel_intervals(tracer)
    devs = (
        list(devices) if devices is not None
        else sorted({dev for dev, _, _, _ in kernels})
    )
    bucket_us = (hi - lo) / width

    symbol_of: dict[str, str] = {}

    def sym(program: str) -> str:
        if program not in symbol_of:
            symbol_of[program] = _SYMBOLS[len(symbol_of) % len(_SYMBOLS)]
        return symbol_of[program]

    # busy[device][bucket][program] -> accumulated time
    busy: dict[int, list[dict[str, float]]] = {
        dev: [defaultdict(float) for _ in range(width)] for dev in devs
    }
    devset = set(devs)
    for dev, start, end, program in kernels:
        if dev not in devset:
            continue
        first = max(0, int((start - lo) / bucket_us))
        last = min(width - 1, int((end - lo) / bucket_us))
        for b in range(first, last + 1):
            b_lo = lo + b * bucket_us
            b_hi = b_lo + bucket_us
            overlap = min(end, b_hi) - max(start, b_lo)
            if overlap > 0:
                busy[dev][b][program or "?"] += overlap

    lines: list[str] = []
    header = f"t = [{lo:.0f}us .. {hi:.0f}us], {bucket_us:.1f}us/col"
    lines.append(header)
    for dev in devs:
        row = []
        for bucket in busy[dev]:
            if not bucket:
                row.append(".")
            else:
                winner = max(bucket.items(), key=lambda kv: kv[1])[0]
                row.append(sym(winner))
        lines.append(f"core {dev:4d} |{''.join(row)}|")
    if legend and symbol_of:
        pairs = ", ".join(f"{s}={p}" for p, s in symbol_of.items())
        lines.append(f"legend: {pairs}, .=idle")
    return "\n".join(lines)
