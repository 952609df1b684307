"""Timeline rendering and analysis over a tracer's kernel spans.

Every device kernel interval lands in the simulator's
:class:`~repro.telemetry.Tracer` (the one trace sink) as a
``cat="kernel"`` span.  This package reads those spans: it renders the
ASCII equivalents of the paper's trace figures (Figures 9-12) — per-core
timelines showing gang-scheduled interleaving of concurrent programs,
pipeline bubbles, and DCN-overlapped transfers — and computes the
quantitative summaries the figures support: utilization,
proportional-share ratios, and interleave granularity.
"""

from repro.trace.timeline import (
    interleave_granularity_us,
    program_share,
    utilization_by_device,
)
from repro.trace.render import render_timeline

__all__ = [
    "interleave_granularity_us",
    "program_share",
    "render_timeline",
    "utilization_by_device",
]
