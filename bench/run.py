"""Benchmark of the sobcurve discrete geodesic calculus.

    python3 bench/run.py --workload {shoot,geodesic,transport,curvature}
                         [--seed N] [--seconds S] [--trace {0,1}]

Run from the root of a source checkout: the package is imported from
``src/``.  One run sets the workload up, repeats whole rounds of its timed
body until ``--seconds`` of body time have passed and checks every round's
outputs; ``setup_s`` is the median over a few fresh processes that each
import the package and set the workload up once.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Details and trace spans go to ``bench/out/``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOAD_NAMES = ("shoot", "geodesic", "transport", "curvature")
SETUP_REPEATS = 3

#: (name, unit, better) of every end-to-end metric, in output order.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up once, print the time taken, exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def run_rounds(workload, state, seconds, tracer=None):
    """Whole rounds of the timed body until ``seconds`` of body time passed.

    Returns per-round wall and CPU times, operations attempted, check
    failures and the last check's measurements.  A round with a failed
    operation is not checked.
    """
    walls, cpus, failures, attempted, measured = [], [], [], 0, []
    while not walls or sum(walls) < seconds:
        failed_before = state["failed"]
        cpu0, wall0 = time.process_time(), time.perf_counter()
        with tracer.round() if tracer else contextlib.nullcontext():
            out = workload.body(state)
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        attempted += workload.ops_per_round
        if state["failed"] == failed_before:
            measured, failed_checks = workload.verify(state, out)
            failures += failed_checks
    return walls, cpus, attempted, failures, measured


def timed_setups(args):
    """Set-up times of ``SETUP_REPEATS`` fresh processes, each importing the
    package and setting the workload up once (``--setup-only``)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sobcurve", "__init__.py")):
        print(f"bench: no sobcurve sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import sobcurve
    import tracing
    import workloads
    import_s = time.perf_counter() - t0
    if not os.path.abspath(sobcurve.__file__).startswith(SRC + os.sep):
        print(f"bench: imported sobcurve from {sobcurve.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    tracer = tracing.Tracer() if args.trace else None
    try:
        s0 = time.perf_counter()
        with tracer.round(tracing.SETUP) if tracer else contextlib.nullcontext():
            state = workload.setup(args.seed, workdir)
        own_setup_s = import_s + time.perf_counter() - s0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0

        budget = args.seconds / 2.0 if args.trace else args.seconds
        walls, cpus, attempted, failures, measured = run_rounds(workload, state, budget)
        detail = {"import_s": import_s, "own_setup_s": own_setup_s,
                  "round_wall_s": walls, "round_cpu_s": cpus, "checks": measured}
        if tracer:
            probes = tracing.energy_probes(state["segment"])
            setup_spans = len(tracer.spans)
            t_walls, _, t_attempted, t_failures, _ = run_rounds(workload, state, budget, tracer)
            attempted += t_attempted
            failures += t_failures
            overhead = statistics.median(t_walls) - statistics.median(walls)
            values = tracing.layer_metrics(
                tracer.spans[setup_spans:], len(t_walls), probes, overhead)
            values.update(tracing.setup_metrics(tracer.spans[:setup_spans]))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in tracing.PER_LAYER}
            detail["traced_round_wall_s"] = t_walls
        else:
            detail["setup_runs_s"] = setup_runs = timed_setups(args)
            values = {
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "setup_s": statistics.median(setup_runs),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not failures, "attempted": attempted,
              "failed": state["failed"], "metrics": metrics}
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**result, "check_failures": failures, "detail": detail}, fh, indent=1)
        fh.write("\n")
    if tracer:
        tracer.write(stem + ".spans.json")
    for failure in failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
