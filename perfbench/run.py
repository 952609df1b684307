"""The simulator's benchmark: four workloads, host and simulated metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py                       # all four workloads, traced
    python3 perfbench/run.py --workload serve-drill --seed 3 --seconds 20 --trace 0

For each workload it runs a fresh process per simulation
(``perfbench/child.py``) until ``--seconds`` have passed, then one
untimed run under ``REPRO_SIM_SANITIZE=1`` and, with ``--trace 1``, one
traced run.  Runs never overlap, and there is no ``--jobs`` fan-out: on
a 2-core host a second run would compete for the cores the timed one is
measured on.  Each timed run also times a fixed calibration loop
(:mod:`calibrate`) just before and just after its simulation, and its
host seconds are rescaled to a reference host speed, which cancels most
of the drift of a shared host.

It checks every run's outputs and that all runs of the set agree exactly
on the simulated metrics and per-layer counts, prints a report, and
prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``metrics`` holds the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0`` and its ``per_layer`` metrics with ``--trace 1``.
``attempted`` counts the operations of every run; ``failed`` counts the
operations of runs that raised, failed a check or disagreed with the
others.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Optional

from calibrate import REFERENCE_S
from layertrace import self_time_table
from summary import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Raw runs, Chrome traces and self-time tables (git-ignored).
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("fig5-dispatch", "pipeline-16", "serve-drill", "churn-a")

#: Host-cost metrics of the timed runs; the ``_s`` ones are rescaled.
HOST_METRICS = ("wall_s", "setup_s", "peak_rss_mb")

#: Layers whose self time the traced run reports; the rest (bench root,
#: workloads, models, telemetry, top-level repro modules) is ``other``.
TRACED_LAYERS = ("sim", "hw", "core", "plaque", "xla", "net", "serve", "resilience")

#: Timed runs per set, at least, however short ``--seconds`` is.
MIN_SAMPLES = 3

#: Per-process time limit; a run that exceeds it counts as failed.  Three
#: hung runs (timed, sanitized, traced) still end within 180 s.
CHILD_TIMEOUT_S = 45.0


def load_spec(root: str = ROOT) -> dict:
    """``BENCHMARK.json``: the metric names and units the JSON line uses."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_child(workload: str, seed: int, mode: str) -> dict:
    """One simulation in a fresh interpreter; returns its JSON result
    (with ``error`` set when it failed to produce one)."""
    # No inherited REPRO_* knob may change what the simulation does.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    if mode == "sanitize":
        env["REPRO_SIM_SANITIZE"] = "1"
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--launched", repr(launched)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"timed out after {CHILD_TIMEOUT_S:.0f}s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"mode": mode}
    if "error" not in result and (proc.returncode != 0 or "checks" not in result):
        result["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> "WorkloadSet":
    """Timed runs for ``seconds`` (at least :data:`MIN_SAMPLES`), then the
    sanitized run and, if asked, the traced run -- one at a time."""
    timed: list[dict] = []
    t0 = time.monotonic()
    while len(timed) < MIN_SAMPLES or time.monotonic() - t0 < seconds:
        timed.append(run_child(workload, seed, "timed"))
        if "error" in timed[-1]:
            break
    sanitized = run_child(workload, seed, "sanitize")
    traced = run_child(workload, seed, "traced") if trace else None
    return WorkloadSet(workload, seed, timed, sanitized, traced)


class WorkloadSet:
    """Every run of one workload at one seed, and what they agree on."""

    def __init__(
        self,
        workload: str,
        seed: int,
        timed: list[dict],
        sanitized: dict,
        traced: Optional[dict] = None,
    ):
        self.workload = workload
        self.seed = seed
        self.timed = timed
        self.sanitized = sanitized
        self.traced = traced

    @property
    def runs(self) -> list[dict]:
        return self.timed + [self.sanitized] + ([self.traced] if self.traced else [])

    @property
    def reference(self) -> dict:
        """The first run that produced outputs (empty if none did)."""
        return next((r for r in self.runs if "error" not in r), {})

    def disagreements(self) -> list[str]:
        """Runs whose simulated outputs differ from the reference run's.

        Simulated time is deterministic for a seed, so every run -- timed,
        sanitized or traced -- must report the same modelled metrics and
        per-layer counts.  A traced run that differs would mean tracing
        changed the schedule.
        """
        ref = self.reference
        out = []
        for r in self.runs:
            if "error" in r or r is ref:
                continue
            for part in ("model", "counts", "attempted", "failed"):
                if r[part] != ref[part]:
                    out.append(f"{r['mode']} run disagrees on {part}")
        return out

    def problems(self) -> list[str]:
        """Every error, failed check and disagreement between runs."""
        out = []
        for r in self.runs:
            if "error" in r:
                out.append(f"{r['mode']} run raised: {r['error'].strip().splitlines()[-1]}")
            out.extend(
                f"{r['mode']} run failed check {name}"
                for name, ok in r.get("checks", {}).items() if not ok
            )
        return out + self.disagreements()

    @property
    def correct(self) -> bool:
        return not self.problems()

    def op_counts(self) -> tuple[int, int]:
        """(operations attempted, operations of runs that failed).

        A run that raised, failed a check or disagreed with the others
        counts every one of its operations as failed; a run that raised
        before reporting is charged the reference run's operation count.
        """
        per_run = self.reference.get("attempted", 1)
        agree = not self.disagreements()
        attempted = failed = 0
        for r in self.runs:
            n = r.get("attempted", per_run)
            attempted += n
            ok = "error" not in r and all(r["checks"].values()) and agree
            if not ok:
                failed += n
        return attempted, failed

    def save(self, out_dir: str) -> str:
        """Write every run's raw result to ``<out_dir>/<workload>-seed<n>.runs.json``."""
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{self.workload}-seed{self.seed}.runs.json")
        with open(path, "w") as f:
            json.dump(
                {"timed": self.timed, "sanitized": self.sanitized, "traced": self.traced},
                f, indent=1,
            )
        return path

    # -- figures ------------------------------------------------------------
    def host(self, name: str, raw: bool = False) -> tuple[float, float, float, int]:
        """(q1, median, q3, samples) of a host metric over the timed runs.

        Times are rescaled to the reference host speed (see
        :mod:`calibrate`) unless ``raw``.
        """
        scale = name.endswith("_s") and not raw
        vals = [
            r[name] * REFERENCE_S / r["calib_s"] if scale else r[name]
            for r in self.timed if "error" not in r
        ]
        if not vals:
            return 0.0, 0.0, 0.0, 0
        return (*quartiles(vals), len(vals))

    def end_to_end(self) -> dict[str, float]:
        return {name: self.host(name)[1] for name in HOST_METRICS}

    def per_layer(self) -> dict[str, float]:
        """Modelled metrics, per-layer counts, self times and host raws."""
        ref = self.reference
        out: dict[str, float] = {**ref.get("model", {}), **ref.get("counts", {})}
        wall = self.host("wall_s")[1]
        out["sim.events_per_s"] = out.get("sim.events", 0) / wall if wall else 0.0
        out["host.wall_raw_s"] = self.host("wall_s", raw=True)[1]
        out["host.setup_raw_s"] = self.host("setup_s", raw=True)[1]
        out["host.calib_s"] = self.host("calib_s", raw=True)[1]
        tr = (self.traced or {}).get("trace")
        if tr:
            for layer, sec in tr["self_s"].items():
                key = layer if layer in TRACED_LAYERS else "other"
                out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + sec
            out["trace.wall_s"] = tr["wall_s"]
            raw_wall = out["host.wall_raw_s"]
            out["trace.overhead"] = tr["run_s"] / raw_wall if raw_wall else 0.0
        return out

    # -- report -------------------------------------------------------------
    def report(self, spec: dict) -> str:
        lines = [f"== {self.workload} (seed {self.seed}) =="]
        lines.append(
            "end-to-end, host cost (tracing off; seconds rescaled to the "
            f"reference host speed, calibration loop = {REFERENCE_S} s):"
        )
        for m in spec["end_to_end"]:
            q1, med, q3, n = self.host(m["name"])
            lines.append(
                f"  {m['name']:<14} {med:12.4f} {m['unit']:<4} "
                f"IQR [{q1:.4f}, {q3:.4f}]  n={n}"
            )
        values = self.per_layer()
        lines.append(
            f"per-layer and modelled metrics (first run; all {len(self.runs)} runs must agree):"
        )
        for m in spec["per_layer"]:
            lines.append(
                f"  {m['name']:<30} {values.get(m['name'], 0.0):16.4f} {m['unit']}"
            )
        tr = (self.traced or {}).get("trace")
        if tr:
            lines.append(
                f"traced run (build + run window): {tr['spans']} spans, "
                f"{tr['spans_written']} written to "
                f"{os.path.relpath(tr['chrome_trace'], ROOT)}"
            )
            table = self_time_table(tr["self_s"], tr["wall_s"])
            lines.extend("  " + line for line in table.splitlines())
            lines.append(
                f"  tracing overhead: traced run phase {tr['run_s']:.4f} s vs median "
                f"untraced {values['host.wall_raw_s']:.4f} s "
                f"({values['trace.overhead']:.2f}x)"
            )
        problems = self.problems()
        lines.append("checks: " + ("all passed" if not problems else "FAILED"))
        lines.extend(f"  - {p}" for p in problems)
        return "\n".join(lines)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Pathways simulator benchmark.")
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per workload (default: run_seconds of BENCHMARK.json)",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no simulator sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    correct = True
    attempted = failed = 0
    for name in names:
        ws = measure(name, args.seed, seconds, bool(args.trace))
        ws.save(OUT_DIR)
        print(ws.report(spec), flush=True)
        values = ws.per_layer() if args.trace else ws.end_to_end()
        prefix = "" if len(names) == 1 else f"{name}."
        for m in wanted:
            metrics[prefix + m["name"]] = {
                "value": values.get(m["name"], 0.0), "unit": m["unit"],
            }
        a, f = ws.op_counts()
        attempted += a
        failed += f
        correct = correct and ws.correct
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
