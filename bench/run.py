"""seakit benchmark: one workload per run, in one process, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its ``src`` directory.  Operations run one after another until S seconds
of wall time have passed (each output is checked between operations,
outside the timed part).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_RUNS = 5
# Reproduce compares the CSVs of its passes byte for byte, and a pass
# takes most of a run: three passes give a steady median.
MIN_OPS = {"reproduce": 3}

_PROBE = """\
import json, time
t0 = time.monotonic()
import seakit
t1 = time.monotonic()
seakit.h2_synthesize(seakit.build_plant(seakit.default_params()).P,
                     seakit.ProjectConfig().weights)
print(json.dumps([t0, t1, time.monotonic(), seakit.__file__]))
"""


def setup_once() -> tuple[float, float, float]:
    """(setup_s, import_s, design_s) of one fresh interpreter.

    setup_s runs from the launch of the process until ``import seakit``,
    ``build_plant(default_params())`` and the default ``h2_synthesize``
    are done.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    launched = time.monotonic()
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    t0, t1, t2, where = json.loads(done.stdout.splitlines()[-1])
    if not os.path.abspath(where).startswith(SRC + os.sep):
        raise RuntimeError(f"imported seakit from {where}, not from {SRC}")
    return t2 - launched, t1 - t0, t2 - t1


def run_ops(workload, first: int, seconds: float, min_ops: int, tracer=None):
    """Operations first, first + 1, ... until seconds of wall time have
    passed and at least min_ops ran.  Returns [(k, wall_s, problems)]."""
    records = []
    k = first
    end = time.monotonic() + seconds
    while len(records) < min_ops or time.monotonic() < end:
        gc.collect()
        wall = None
        try:
            if tracer is not None:
                tracer.op = k
            t0 = time.perf_counter()
            out = workload.op(k)
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = -1
            problems = workload.check(k, out)
        except Exception:  # a failed operation is counted, not fatal
            problems = [traceback.format_exc(limit=3)]
        records.append((k, wall, problems))
        k += 1
    return records


def median_wall(records) -> float:
    walls = [wall for _, wall, problems in records if not problems]
    return statistics.median(walls) if walls else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "seakit", "__init__.py")):
        print(f"no seakit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {', '.join(workloads.WORKLOADS)}")

    setups = [setup_once() for _ in range(SETUP_RUNS)]
    import seakit
    workload = workloads.WORKLOADS[args.workload](seakit, args.seed, WORK)
    min_ops = MIN_OPS.get(args.workload, 1)
    try:
        if args.trace:
            half = 0.5 * args.seconds
            plain = run_ops(workload, 0, half, 1)
            tracer = tracing.Tracer()
            tracer.instrument(seakit)
            try:
                traced = run_ops(workload, len(plain), half, 1, tracer)
            finally:
                tracer.restore()
            records = plain + traced
            peak = 0.0
            if workload.steps_per_op():
                probe = []
                peak = tracing.peak_alloc_mb(seakit, lambda: probe.extend(
                    run_ops(workload, len(records), 0.0, 1)))
                records += probe
            tracer.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"))
            metrics = tracing.layer_metrics(tracer, [k for k, _, _ in traced])
            metrics["simulation.peak_alloc_mb"] = peak
            metrics["seakit.import_s"] = statistics.median(s[1] for s in setups)
            metrics["setup.design_s"] = statistics.median(s[2] for s in setups)
            base = median_wall(plain)
            metrics["trace_overhead.op_s"] = median_wall(traced) - base
            metrics["trace_overhead.share"] = metrics["trace_overhead.op_s"] / base
        else:
            records = run_ops(workload, 0, args.seconds, min_ops)
            metrics = {
                "setup_s": statistics.median(s[0] for s in setups),
                "op_s": median_wall(records),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    failed = [(k, problems) for k, _, problems in records if problems]
    for k, problems in failed:
        print(f"operation {k} failed: " + "; ".join(problems))
    if getattr(workload, "known_red", ""):
        print(f"known red, not counted: {workload.known_red}")
    if not args.trace:
        report_issue_figures(args.workload, workload, metrics, len(records))
    listed = metric_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not failed and all(_finite(metrics[name]) for name in listed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in listed.items()},
    }
    print(json.dumps(result))
    return 0


def _finite(v: float) -> bool:
    return v == v and abs(v) != float("inf")


def report_issue_figures(name, workload, metrics, ops) -> None:
    """The figures each workload is about, as lines before the result."""
    op_s = metrics["op_s"]
    print(f"{name}: {ops} operations, median {op_s:.6g} s each")
    if name == "reproduce":
        print(f"reproduce_s {op_s:.6g} s")
    elif name == "design_sweep":
        print(f"designs_per_s {1.0 / op_s:.6g} designs/s")
    else:
        print(f"sim_steps_per_s {workload.steps_per_op() / op_s:.6g} steps/s")


def metric_units(kind: str) -> dict[str, str]:
    """Name and unit of each metric BENCHMARK.json lists under kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
