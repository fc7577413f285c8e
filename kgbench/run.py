"""KG benchmark driver.

    python3 kgbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Run from the repository root.  Generates the workload's inputs from
``--seed`` under ``.kgbench/``, starts a Ray session of constant size,
sets the workload up, then repeats whole rounds until ``--seconds`` have
passed and checks every output against DuckDB.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  The line before it carries the workload's named
figures, sizes and check results.  Exits non-zero, without a result
line, when the workload could not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

E2E_UNITS = {"setup_s": "s", "build_s": "s", "triples_per_s": "1/s",
             "driver_peak_rss_mib": "MiB"}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["build", "build_noisy"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def measure(wl, seconds: float) -> None:
    """Closed loop: one round at a time until ``seconds`` have passed
    (at least one round)."""
    deadline = time.perf_counter() + seconds
    while True:
        wl.round()
        if time.perf_counter() >= deadline:
            return


def run(args, root: str, work: str) -> dict:
    from workloads import WORKLOADS

    with harness.ray_session(work) as ncpu:
        wl = WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            metrics = tracing.run_traced(wl, tracer, args.seconds)
            tracer.dump(os.path.join(
                root, ".kgbench",
                f"trace-{args.workload}-{args.seed}.json"), metrics)
        else:
            wl.setup()
            setup_s = harness.process_age_s()
            t = time.perf_counter()
            wl.warmup()
            wl.phases["warmup_s"] = time.perf_counter() - t
            t = time.perf_counter()
            measure(wl, args.seconds)
            wl.phases["measure_s"] = time.perf_counter() - t
            metrics = {"setup_s": setup_s, **wl.metrics(),
                       "driver_peak_rss_mib": harness.peak_rss_mib()}
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                       for k, v in metrics.items()}
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "ray_cpus": ncpu, "rounds": wl.rounds,
                          "sizes": wl.sizes, "detail": wl.detail(),
                          "samples": wl.samples, "phases": wl.phases,
                          "leftover_actors_killed":
                              harness.leftover_actors_killed,
                          "checks": wl.checks}, default=str), flush=True)
        # an operation that raises ends the run without a result, so a
        # finished run has no failed operations
        return {"correct": wl.correct(), "attempted": wl.attempted,
                "failed": 0, "metrics": metrics}


def _exit_on_sigterm(signum, frame):
    # turn a TERM into SystemExit so the Ray session is shut down and
    # reaped on the way out
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = _args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    root = os.getcwd()
    work = os.path.join(root, ".kgbench", f"run-{os.getpid()}")
    try:
        harness.import_engine(root)
        os.makedirs(work, exist_ok=True)
        result = run(args, root, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
