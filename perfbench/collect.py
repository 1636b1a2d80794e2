"""Record a baseline: ten measured runs and one traced run per workload.

    python3 perfbench/collect.py --out perfbench/baseline.json

Each run is a separate ``run.py`` process with its own seed (1 to SEEDS).
The file keeps every run's result line and duration, and for each
end-to-end metric the median, the quartiles and the spread (distance
between the quartiles as a share of the median).  Compare two such files
metric by metric against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900
SEEDS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=HERE.parent, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S, check=True)
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines
               if line.startswith("# env "))
    return {"seed": seed, "run_s": time.perf_counter() - start, "env": env,
            "result": json.loads(lines[-1])}


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    record = {"run_seconds": seconds, "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = [run(wl, seed, seconds, 0)
                for seed in range(1, SEEDS + 1)]
        metrics = runs[0]["result"]["metrics"]
        record["workloads"][wl] = {
            "summary": {name: summary([r["result"]["metrics"][name]["value"]
                                       for r in runs])
                        for name in metrics},
            "runs": runs,
            "traced": run(wl, 1, seconds, 1),
        }
        for name, s in record["workloads"][wl]["summary"].items():
            print(f"{wl} {name}: median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
