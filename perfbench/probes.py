"""Call counters and the engine-entry clock, installed from outside ``src/``.

The simulator keeps no counter for some of the per-layer figures the
benchmark reports (calls into ``Device.enqueue``, ``Host.prep_request``
and ``Frontend.complete_batch``), and no hook marks the moment set-up
ends.  :class:`Probes` wraps those public methods for the life of a
``with`` block and restores the originals on exit.  The wrappers run in
every kind of run (timed, sanitized, traced), so they cost the same in
each and never change what the simulation does.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Optional

__all__ = ["Probes"]


class Probes:
    """Counts calls into a few layer entry points and stamps the first
    entry into the engine's run loop.

    ``first_event_at`` is the ``time.monotonic()`` reading when the
    workload first called ``Simulator.run`` or
    ``Simulator.run_until_triggered``: the end of set-up and the start of
    the measured simulation.
    """

    def __init__(self) -> None:
        self.first_event_at: Optional[float] = None
        #: Engine events already processed when the run loop was first
        #: entered (0 when set-up scheduled but ran nothing).
        self.events_before_run: Optional[int] = None
        #: Whether that simulator had the runtime sanitizer attached.
        self.sanitizer_on: Optional[bool] = None
        self.kernels = 0
        self.host_preps = 0
        self.batches = 0
        self.batched_requests = 0
        self._restore: list[tuple[type, str, object]] = []

    def __enter__(self) -> "Probes":
        from repro.hw.device import Device
        from repro.hw.host import Host
        from repro.serve.frontend import Frontend
        from repro.sim.engine import Simulator

        self._wrap(Simulator, "run", self._on_engine_entry)
        self._wrap(Simulator, "run_until_triggered", self._on_engine_entry)
        self._wrap(Device, "enqueue", self._on_kernel)
        self._wrap(Host, "prep_request", self._on_host_prep)
        self._wrap(Frontend, "complete_batch", self._on_batch)
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self._restore):
            setattr(cls, name, original)
        self._restore.clear()

    def _wrap(self, cls: type, name: str, before: Callable) -> None:
        original = cls.__dict__[name]

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            before(obj, *args)
            return original(obj, *args, **kwargs)

        self._restore.append((cls, name, original))
        setattr(cls, name, wrapper)

    # -- counters -----------------------------------------------------------
    def _on_engine_entry(self, sim, *args) -> None:
        if self.first_event_at is None:
            self.first_event_at = time.monotonic()
            self.events_before_run = sim.events_processed
            self.sanitizer_on = sim.sanitizer is not None

    def _on_kernel(self, device, *args) -> None:
        self.kernels += 1

    def _on_host_prep(self, host, *args) -> None:
        self.host_preps += 1

    def _on_batch(self, frontend, batch, *args) -> None:
        self.batches += 1
        self.batched_requests += len(batch)
