"""Run one workload over several seeds and report the spread of each metric.

    python3 bench/spread.py --workload NAME --seeds 1-10 --seconds 12

Runs bench/run.py once per seed, one run at a time, and prints for each
metric the median and the quartiles of its values, and the distance
between the quartiles as a share of the median.  Quartiles are those of
statistics.quantiles(values, n=4).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: list[float]) -> dict[str, float]:
    """Median, first and third quartile, and (q3 - q1) / |median|."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, default=12)
    args = parser.parse_args(argv)

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stdout, done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    for name in runs[0]["metrics"]:
        s = spread([r["metrics"][name]["value"] for r in runs])
        print(f"{name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share(s): {sorted(shares)}; correct in every run: "
          f"{all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
