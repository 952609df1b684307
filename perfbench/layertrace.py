"""Host-time attribution to ``repro.<layer>`` packages by a profiler hook.

:class:`LayerTracer` installs a ``sys.setprofile`` hook that opens a span
whenever a Python call crosses from one ``repro.<layer>`` package into
another, and closes it when that frame returns (a generator's yield
closes its span; the next resume opens a new one).  Calls into code
outside ``repro`` (the standard library, numpy, generated dataclass
methods, this benchmark's own wrappers) open no span, so their time
stays with the layer that made the call.  A root span, owned by the
``bench`` pseudo-layer, covers the whole traced window.

Each span has a name (``<layer>:<qualified function name>``), a start, an
end and a parent.  Spans stay in compact arrays in memory until the run
ends.  A layer's self time is the duration of its spans minus the time
their child spans cover, so the self times of all layers sum exactly to
the root span, the traced wall time.

The hook costs a Python call per profiled event, so a traced run is
several times slower than an untraced one; its numbers are shares of
host time, never end-to-end figures.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from typing import Optional, Sequence

__all__ = ["LayerTracer", "layer_of", "self_time_table", "self_times"]

#: The root span's pseudo-layer: benchmark code and anything it calls
#: directly outside ``repro``.
ROOT_LAYER = "bench"


def layer_of(filename: str, repro_dir: str) -> Optional[str]:
    """The ``repro.<layer>`` package a code object's file belongs to.

    ``repro_dir`` is the ``repro`` package directory.  Modules directly
    inside it (``repro/config.py``, ``repro/stats.py``, ...) belong to the
    ``repro`` layer; files outside it belong to no layer (``None``).
    """
    prefix = os.path.join(repro_dir, "")
    if not filename.startswith(prefix):
        return None
    head, sep, _ = filename[len(prefix):].partition(os.sep)
    return head if sep else "repro"


def self_times(
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
    span_layers: Sequence[str],
) -> dict[str, float]:
    """Self time per layer of a span tree.

    ``parents[i]`` is the index of span ``i``'s parent (-1 for a root) and
    every parent precedes its children.  A span's self time is its
    duration minus the durations of its direct children; the per-layer
    sums therefore add up to the durations of the roots.
    """
    child = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict[str, float] = {}
    for i, layer in enumerate(span_layers):
        out[layer] = out.get(layer, 0.0) + (ends[i] - starts[i]) - child[i]
    return out


def self_time_table(self_s: dict[str, float], wall_s: float) -> str:
    """Per-layer self seconds and shares, largest first, with their sum
    and the traced wall time they add up to."""
    lines = [f"{'layer':<12} {'self_s':>10} {'share':>7}"]
    for layer, sec in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<12} {sec:10.4f} {sec / wall_s:7.1%}")
    lines.append(f"{'sum':<12} {sum(self_s.values()):10.4f}")
    lines.append(f"{'traced wall':<12} {wall_s:10.4f}")
    return "\n".join(lines) + "\n"


class LayerTracer:
    """Records cross-layer spans while started; see the module docstring."""

    def __init__(self, repro_dir: str):
        self.repro_dir = repro_dir
        #: Layer names; index 0 is the root pseudo-layer.
        self.layers: list[str] = [ROOT_LAYER]
        #: Span names; a span stores the index of its name here.
        self.names: list[str] = [ROOT_LAYER]
        self._name_layer: list[int] = [0]
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("l")
        self._active = False

    # -- recording ----------------------------------------------------------
    def _resolve(self, code) -> tuple[int, int]:
        """(layer id, name id) of a code object; layer id -1 off-layer."""
        layer = layer_of(code.co_filename, self.repro_dir)
        if layer is None:
            return -1, -1
        if layer not in self.layers:
            self.layers.append(layer)
        lid = self.layers.index(layer)
        self.names.append(f"{layer}:{code.co_qualname}")
        self._name_layer.append(lid)
        return lid, len(self.names) - 1

    def start(self) -> None:
        if self._active:
            raise RuntimeError("tracer already started")
        clock = time.perf_counter
        cache: dict = {}
        resolve = self._resolve
        starts, ends, parents, name_ids = (
            self.starts, self.ends, self.parents, self.name_ids,
        )
        # Open spans, innermost last: their frames, span indices, layers.
        frames: list = [None]
        indices: list[int] = [len(starts)]
        lids: list[int] = [0]
        self._open = (frames, indices)

        starts.append(clock())
        ends.append(0.0)
        parents.append(-1)
        name_ids.append(0)

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                entry = cache.get(code)
                if entry is None:
                    entry = cache[code] = resolve(code)
                lid = entry[0]
                if lid < 0 or lid == lids[-1]:
                    return
                idx = len(starts)
                starts.append(clock())
                ends.append(0.0)
                parents.append(indices[-1])
                name_ids.append(entry[1])
                frames.append(frame)
                indices.append(idx)
                lids.append(lid)
            elif event == "return" and frame is frames[-1]:
                ends[indices.pop()] = clock()
                frames.pop()
                lids.pop()

        self._active = True
        sys.setprofile(hook)

    def stop(self) -> None:
        """Uninstall the hook and close every span still open."""
        sys.setprofile(None)
        now = time.perf_counter()
        frames, indices = self._open
        for idx in indices:
            self.ends[idx] = now
        frames.clear()
        indices.clear()
        self._active = False

    # -- results ------------------------------------------------------------
    @property
    def n_spans(self) -> int:
        return len(self.starts)

    @property
    def wall_s(self) -> float:
        """Duration of the root span: the traced window."""
        return self.ends[0] - self.starts[0]

    def span_layers(self) -> list[str]:
        return [self.layers[self._name_layer[n]] for n in self.name_ids]

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer; the values sum to :attr:`wall_s`."""
        return self_times(self.starts, self.ends, self.parents, self.span_layers())

    def write_chrome_trace(self, path: str, max_spans: int = 100_000) -> int:
        """Write the first ``max_spans`` spans as Chrome-trace JSON.

        Spans are stored in start order and a parent always precedes its
        children, so any prefix is a closed, properly nested tree.  The
        file loads in Perfetto (ui.perfetto.dev) and chrome://tracing.
        Returns the number of spans written.
        """
        n = min(self.n_spans, max_spans)
        t0 = self.starts[0]
        with open(path, "w") as f:
            f.write('{"displayTimeUnit": "ms", "otherData": ')
            json.dump({"spans_total": self.n_spans, "spans_written": n}, f)
            f.write(', "traceEvents": [\n')
            for i in range(n):
                name = self.names[self.name_ids[i]]
                event = {
                    "name": name,
                    "cat": name.partition(":")[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (self.starts[i] - t0) * 1e6,
                    "dur": (self.ends[i] - self.starts[i]) * 1e6,
                    "args": {"span": i, "parent": self.parents[i]},
                }
                f.write(json.dumps(event))
                f.write(",\n" if i + 1 < n else "\n")
            f.write("]}\n")
        return n
