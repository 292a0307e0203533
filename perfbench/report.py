"""Run the benchmark over workloads and seeds and summarize every metric.

    python3 perfbench/report.py                  # every workload, seed 1
    python3 perfbench/report.py --seeds 1-10

For each workload and end-to-end metric it prints the median over seeds,
the quartile spread as a share of the median (the figure the bounds in
BENCHMARK.json apply to), the bound, the task count and whether every
output check passed. ``--trace 1`` summarizes the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    """Distance between the first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]

    all_correct = True
    for name in names:
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                                  check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            results.append(result)
            for line in lines[:-1]:
                if "FAILED" in line or line.startswith("workload"):
                    print(f"  [{name} seed {seed}] {line}")
        correct = all(r["correct"] for r in results)
        all_correct &= correct
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{name}: {len(results)} runs, {attempted} tasks attempted, {failed} failed, "
              f"checks {'passed' if correct else 'FAILED'}")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            bound = metric.get("bound")
            share = spread(values)
            flag = "" if bound is None or share < bound / 3 else "  <-- spread above bound/3"
            print(f"  {metric['name']:58s} {statistics.median(values):12.6g} {metric['unit']:6s}"
                  f" spread {share:6.3f}" + (f" bound {bound}" if bound else "") + flag)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
