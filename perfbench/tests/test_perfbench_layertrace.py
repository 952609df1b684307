"""Layer attribution, the self-time rule and the span recorder."""

import importlib.util
import json
import os
import textwrap

import pytest

from layertrace import LayerTracer, layer_of, self_times

REPRO_DIR = os.path.join("/x", "src", "repro")


@pytest.mark.parametrize(
    "filename, layer",
    [
        ("/x/src/repro/hw/device.py", "hw"),
        ("/x/src/repro/net/fabric.py", "net"),
        ("/x/src/repro/core/sub/deep.py", "core"),
        ("/x/src/repro/config.py", "repro"),
        ("/x/src/reproduce/hw/device.py", None),
        ("/usr/lib/python3/heapq.py", None),
        ("<string>", None),
    ],
)
def test_layer_of_maps_a_file_to_its_package(filename, layer):
    assert layer_of(filename, REPRO_DIR) == layer


def test_layer_of_real_functions():
    import repro
    from repro.hw.device import Device
    from repro.sim.engine import Simulator

    repro_dir = os.path.dirname(repro.__file__)
    assert layer_of(Device.enqueue.__code__.co_filename, repro_dir) == "hw"
    assert layer_of(Simulator.run.__code__.co_filename, repro_dir) == "sim"
    assert layer_of(json.dumps.__code__.co_filename, repro_dir) is None


def test_self_times_of_a_hand_built_tree_sum_exactly():
    # bench [0,10] > sim [1,9] > {hw [2,4], core [5,8] > hw [6,7]}
    starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    ends = [10.0, 9.0, 4.0, 8.0, 7.0]
    parents = [-1, 0, 1, 1, 3]
    layers = ["bench", "sim", "hw", "core", "hw"]
    got = self_times(starts, ends, parents, layers)
    assert got == {"bench": 2.0, "sim": 3.0, "hw": 3.0, "core": 2.0}
    assert sum(got.values()) == ends[0] - starts[0]


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def two_layers(tmp_path):
    """A fake package with layers ``alpha`` and ``beta``."""
    pkg = tmp_path / "repro"
    (pkg / "alpha").mkdir(parents=True)
    (pkg / "beta").mkdir()
    (pkg / "beta" / "mod.py").write_text(textwrap.dedent("""
        def g(k):
            return h(k) + 1

        def h(k):
            return k()

        def gen():
            yield 1
            yield 2
    """))
    beta = _load(pkg / "beta" / "mod.py", "fake_beta")
    (pkg / "alpha" / "mod.py").write_text(textwrap.dedent("""
        def f(beta):
            return beta.g(k)

        def k():
            return sorted([3, 1, 2])[0]

        def drive(beta):
            return list(beta.gen())
    """))
    alpha = _load(pkg / "alpha" / "mod.py", "fake_alpha")
    return str(pkg), alpha, beta


def _names(tr):
    return [tr.names[n] for n in tr.name_ids]


def test_spans_open_only_at_layer_crossings(two_layers):
    repro_dir, alpha, beta = two_layers
    tr = LayerTracer(repro_dir)
    tr.start()
    alpha.f(beta)
    tr.stop()
    # f (alpha) -> g (beta, h stays in beta) -> k (alpha); sorted() is
    # outside the package and opens nothing.
    assert _names(tr) == ["bench", "alpha:f", "beta:g", "alpha:k"]
    assert list(tr.parents) == [-1, 0, 1, 2]
    assert sum(tr.self_times().values()) == pytest.approx(tr.wall_s, rel=1e-12)


def test_each_generator_resume_is_its_own_span(two_layers):
    repro_dir, alpha, beta = two_layers
    tr = LayerTracer(repro_dir)
    tr.start()
    alpha.drive(beta)
    tr.stop()
    # Two yields plus the final StopIteration resume: three beta spans.
    assert _names(tr) == ["bench", "alpha:drive"] + ["beta:gen"] * 3
    assert list(tr.parents) == [-1, 0, 1, 1, 1]


def test_chrome_trace_is_nested_and_loadable(two_layers, tmp_path):
    repro_dir, alpha, beta = two_layers
    tr = LayerTracer(repro_dir)
    tr.start()
    for _ in range(3):
        alpha.f(beta)
    tr.stop()
    path = tmp_path / "t.json"
    assert tr.write_chrome_trace(str(path), max_spans=5) == 5
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert doc["otherData"] == {"spans_total": 10, "spans_written": 5}
    assert [e["ph"] for e in events] == ["X"] * 5
    for e in events[1:]:
        parent = events[e["args"]["parent"]]
        assert parent["ts"] <= e["ts"]
        assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-6
