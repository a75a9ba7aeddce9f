"""Run every workload over several seeds and print the spread per metric.

    python3 perfbench/spread.py

Runs `perfbench/run.py --trace 0` once per workload in BENCHMARK.json and
seed 1..10, one process at a time, and prints for each end-to-end metric the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.  It also
prints, per workload, the attempted and failed counts and the reason
counts of the first run.  These are the figures in perfbench/README.md.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        reasons = None
        elapsed = []
        for seed in SEEDS:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            elapsed.append(time.perf_counter() - t0)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: NOT correct\n{proc.stdout}")
            attempted += result["attempted"]
            failed += result["failed"]
            for line in lines:
                if reasons is None and line.startswith("reasons: "):
                    reasons = line[len("reasons: "):]
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        print(f"== {name}: {len(SEEDS)} runs, seeds {SEEDS[0]}.."
              f"{SEEDS[-1]}; attempted {attempted}, "
              f"failed {failed}; a run takes {statistics.median(elapsed):.1f} s "
              f"(median), {max(elapsed):.1f} s at most")
        if reasons:
            print(f"   reasons in the first run: {reasons}")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"   {metric['name']:16s} median {med:10.4f} {metric['unit']:3s}"
                  f"  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:6.3f}"
                  f"  bound {metric['bound']}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
