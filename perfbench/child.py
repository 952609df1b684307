"""One simulation of one workload, alone in its own process.

Run by ``perfbench/run.py``; prints one JSON object on its last stdout
line.  ``--mode`` picks the kind of run:

* ``timed``    -- host cost: set-up seconds from process launch to the
  first simulated event, wall seconds from there to drain, peak RSS,
  and the calibration loop's time (:mod:`calibrate`) around them;
* ``sanitize`` -- the same simulation under ``REPRO_SIM_SANITIZE=1``
  (the parent sets the variable); untimed, for its outputs only;
* ``traced``   -- the same simulation under :class:`LayerTracer`; writes
  the spans as Chrome-trace JSON and the per-layer self-time table.

``--launched`` is the parent's ``time.monotonic()`` reading just before
it started this process (CLOCK_MONOTONIC is system-wide on Linux).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REPRO_DIR = os.path.join(os.path.dirname(HERE), "src", "repro")
#: Where the traced run writes its Chrome trace and self-time table.
OUT_DIR = os.path.join(HERE, "out")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("timed", "sanitize", "traced"), required=True)
    ap.add_argument("--launched", type=float, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.dirname(REPRO_DIR))
    from calibrate import calibration_seconds

    # The host-speed yardstick brackets the run as tightly as it can:
    # once before the imports (and left out of setup_s), once after drain.
    calib_pre = calibration_seconds()
    from layertrace import LayerTracer, self_time_table
    from probes import Probes
    from summary import failed_frac
    from workloads import WORKLOADS

    result: dict = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    tracer = LayerTracer(REPRO_DIR) if args.mode == "traced" else None
    try:
        with Probes() as probes:
            if tracer is not None:
                tracer.start()
            try:
                out = WORKLOADS[args.workload](args.seed, probes)
            finally:
                if tracer is not None:
                    tracer.stop()
            drained_at = time.monotonic()
    except Exception:
        traceback.print_exc()
        result["error"] = traceback.format_exc(limit=3)
        print(json.dumps(result))
        return 1

    calib_post = calibration_seconds()
    checks = {
        **out.checks,
        "setup_ran_no_event": probes.events_before_run == 0,
        # REPRO_SIM_SANITIZE reached the engine in the sanitized run only.
        "sanitizer_as_asked": probes.sanitizer_on == (args.mode == "sanitize"),
    }
    ok = all(checks.values())
    result.update(
        setup_s=probes.first_event_at - args.launched - calib_pre,
        calib_s=(calib_pre + calib_post) / 2,
        wall_s=drained_at - probes.first_event_at,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=out.attempted,
        failed=out.failed,
        model={**out.model, "failed_frac": failed_frac(out.attempted, out.failed, ok)},
        counts=out.counts,
        checks=checks,
    )
    if tracer is not None:
        self_s = tracer.self_times()
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
        written = tracer.write_chrome_trace(stem + ".trace.json")
        with open(stem + ".layers.txt", "w") as f:
            f.write(self_time_table(self_s, tracer.wall_s))
        result["trace"] = {
            "wall_s": tracer.wall_s,
            # The traced window starts at build; its run phase, timed
            # like an untraced run, is what the overhead compares.
            "run_s": result["wall_s"],
            "self_s": self_s,
            "spans": tracer.n_spans,
            "spans_written": written,
            "chrome_trace": stem + ".trace.json",
            "layer_table": stem + ".layers.txt",
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
