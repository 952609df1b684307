"""The parent's bookkeeping: agreement, failure counting, the JSON spec."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from calibrate import REFERENCE_S

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _result(mode="timed", wall=1.0, calib=REFERENCE_S, ok=True, events=100):
    return {
        "mode": mode,
        "setup_s": 0.5,
        "wall_s": wall,
        "peak_rss_mb": 50.0,
        "calib_s": calib,
        "attempted": 10,
        "failed": 1,
        "model": {"sim_util": 0.5, "failed_frac": 0.1},
        "counts": {"sim.events": events},
        "checks": {"fabric_idle": ok},
    }


def test_agreeing_set_is_correct_and_counts_no_failures():
    ws = run.WorkloadSet("w", 1, [_result(), _result()], _result("sanitize"))
    assert ws.correct and ws.problems() == []
    assert ws.op_counts() == (30, 0)


def test_a_failed_check_fails_that_run_only():
    ws = run.WorkloadSet("w", 1, [_result(), _result(ok=False)], _result("sanitize"))
    assert not ws.correct
    assert ws.problems() == ["timed run failed check fabric_idle"]
    assert ws.op_counts() == (30, 10)


def test_disagreeing_traced_run_fails_the_whole_set():
    ws = run.WorkloadSet(
        "w", 1, [_result(), _result()], _result("sanitize"), _result("traced", events=101)
    )
    assert ws.problems() == ["traced run disagrees on counts"]
    assert ws.op_counts() == (40, 40)


def test_a_run_that_raised_is_charged_the_reference_operations():
    ws = run.WorkloadSet(
        "w", 1, [_result(), {"mode": "timed", "error": "boom\nValueError: x"}],
        _result("sanitize"),
    )
    assert ws.problems() == ["timed run raised: ValueError: x"]
    assert ws.op_counts() == (30, 10)


def test_host_times_are_rescaled_by_the_calibration():
    ws = run.WorkloadSet(
        "w", 1,
        [_result(wall=1.0, calib=REFERENCE_S), _result(wall=2.0, calib=2 * REFERENCE_S),
         _result(wall=3.0, calib=REFERENCE_S)],
        _result("sanitize"),
    )
    assert ws.host("wall_s")[1] == pytest.approx(1.0)
    assert ws.host("wall_s", raw=True)[1] == 2.0
    assert ws.host("peak_rss_mb")[3] == 3


def test_every_spec_metric_is_produced():
    spec = run.load_spec(ROOT)
    ws = run.WorkloadSet("w", 1, [_result()], _result("sanitize"))
    assert {m["name"] for m in spec["end_to_end"]} == set(ws.end_to_end())
    names = {m["name"] for m in spec["per_layer"]}
    from workloads import MODEL_METRICS, TINY, WORKLOADS  # noqa: F401
    from probes import Probes

    with Probes() as probes:
        out = WORKLOADS["fig5-dispatch"](1, probes, **TINY["fig5-dispatch"])
    produced = set(MODEL_METRICS) | set(out.counts) | {"sim.events_per_s"}
    produced |= {f"{layer}.self_s" for layer in run.TRACED_LAYERS + ("other",)}
    produced |= {"trace.wall_s", "trace.overhead"}
    produced |= {"host.wall_raw_s", "host.setup_raw_s", "host.calib_s"}
    assert names == produced


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-dispatch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout or "x")
