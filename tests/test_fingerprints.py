"""Committed behaviour fingerprints of six small scenarios.

The golden tests in ``test_sim_determinism.py`` only check that two runs
in one process agree with each other; a change that shifts every run's
schedule the same way passes them.  These fingerprints pin *what* the
simulator computes against a committed file,
``tests/fingerprints/outputs.json``:

* ``sim.now`` at drain;
* per-device ``(busy_us, kernels_run, kernels_aborted)``;
* the sorted per-request latencies (serving requests, program calls);
* every ``PathwaysSystem.stats()`` counter except ``events_processed``
  (event counts may fall when the engine does the same work with fewer
  events; the simulated outputs may not move).

Floats are stored as ``float.hex`` so the comparison is bit-exact.
Regenerate the file (and say why in CHANGES.md) with::

    PYTHONPATH=src python tests/test_fingerprints.py --update
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import PathwaysSystem, config_b
from repro.models.pipeline import PipelineBuilder
from repro.models.transformer import DECODER_3B
from repro.workloads.churn import run_churn
from repro.workloads.netload import run_net_congestion
from repro.workloads.serving import run_serving
from repro.xla.computation import scalar_allreduce_add

from test_sim_determinism import CHURN_KWARGS, NET_KWARGS, SERVE_KWARGS

OUTPUTS = Path(__file__).parent / "fingerprints" / "outputs.json"


def _encode(value):
    """JSON-ready copy with every float as its exact hex spelling."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def fingerprint(system: PathwaysSystem, latencies=()) -> dict:
    """The pinned outputs of one drained run of ``system``."""
    stats = system.stats().as_dict()
    del stats["sim"]["events_processed"]
    return _encode(
        {
            "now": system.sim.now,
            "devices": [
                (d.busy_us, d.kernels_run, d.kernels_aborted)
                for d in system.cluster.devices
            ],
            "latencies": sorted(latencies),
            "stats": stats,
        }
    )


# -- scenarios ---------------------------------------------------------------
def churn() -> dict:
    r = run_churn(**CHURN_KWARGS)
    return fingerprint(r.system_handle)


def serving() -> dict:
    r = run_serving(**SERVE_KWARGS)
    system = r.system_handle
    return fingerprint(system, system.frontends[0].recorder.latencies)


def netload() -> dict:
    r = run_net_congestion(**NET_KWARGS)
    return fingerprint(r.system_handle)


def _fig5_chain(n_hosts: int, chain_len: int, n_calls: int) -> dict:
    """The Figure-5 Pathways-Chained program over every core of
    ``config_b(n_hosts)``, two calls in flight, per-call latencies."""
    system = PathwaysSystem.build(config_b(n_hosts))
    sim = system.sim
    client = system.client("fp")
    n_devices = n_hosts * 8
    devs = system.make_virtual_device_set().add_slice(tpu_devices=n_devices)
    step = client.wrap(scalar_allreduce_add(n_devices, 0.5), devices=devs)

    @client.program
    def chain(v):
        x = v
        for _ in range(chain_len):
            x = step(x)
        return x

    program = chain.trace(np.float32(0.0))
    latencies: list[float] = []

    def driver():
        in_flight = []
        for _ in range(n_calls):
            in_flight.append(
                (sim.now, client.submit(program, (0.0,), compute_values=False))
            )
            if len(in_flight) >= 2:
                start, execution = in_flight.pop(0)
                yield execution.done
                latencies.append(sim.now - start)
                execution.release_results()
        for start, execution in in_flight:
            yield execution.done
            latencies.append(sim.now - start)
            execution.release_results()

    sim.run_until_triggered(sim.process(driver(), name="driver"))
    return fingerprint(system, latencies)


def fig5_detailed() -> dict:
    """A 16-wide detailed gang (``config_b(2)``)."""
    return _fig5_chain(n_hosts=2, chain_len=16, n_calls=4)


def fig5_aggregate() -> dict:
    """A 128-wide aggregate gang (``config_b(16)``, 16 representatives)."""
    return _fig5_chain(n_hosts=16, chain_len=8, n_calls=3)


def gpipe() -> dict:
    """GPipe S=2, M=4 of the 3B decoder on 16 cores."""
    system = PathwaysSystem.build(config_b(2))
    builder = PipelineBuilder(
        system, DECODER_3B, 2, 4, 8, 2048 * 1024, 0.365,
        nominal_params=3_000_000_000,
    )
    builder.run(system.client("train"), n_steps=1)
    return fingerprint(system)


SCENARIOS = {
    "churn": churn,
    "serving": serving,
    "netload": netload,
    "fig5_detailed": fig5_detailed,
    "fig5_aggregate": fig5_aggregate,
    "gpipe": gpipe,
}


def _committed() -> dict:
    return json.loads(OUTPUTS.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fingerprint_matches_committed(name):
    expected = _committed()[name]
    got = SCENARIOS[name]()
    # Compare piecewise so a failure names the part that moved.
    for key in ("now", "devices", "latencies", "stats"):
        assert got[key] == expected[key], f"{name}: {key} differs from {OUTPUTS.name}"
    assert got == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_fingerprints.py --update")
    OUTPUTS.parent.mkdir(exist_ok=True)
    data = {name: fn() for name, fn in sorted(SCENARIOS.items())}
    OUTPUTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUTPUTS}")
