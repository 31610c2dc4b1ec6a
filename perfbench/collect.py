"""Runs the benchmark once per seed and summarises the spread of each metric.

    python3 perfbench/collect.py --out FILE

Every workload of BENCHMARK.json runs with seeds 1 to 10, for the seconds
per run given there, and then once traced with seed 42. For every workload
the file keeps the two output lines of each run and, per end-to-end metric,
the median, the quartiles (`statistics.quantiles(n=4)`) and the quartile
distance as a share of the median, which is what the bounds in
BENCHMARK.json are compared with.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT

SEEDS = range(1, 11)
TRACE_SEED = 42


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {"seed": seed, "result": result, "info": info}


def summary(runs: list) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    doc = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, seconds, 0))
            print(workload, seed, json.dumps(runs[-1]["result"]), flush=True)
        doc["workloads"][workload] = {
            "summary": summary(runs), "runs": runs,
            "trace": run_once(workload, TRACE_SEED, seconds, 1)}
        doc["machine"] = runs[0]["info"]["machine"]
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for workload, entry in doc["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:14s} {name:12s} median {s['median']:.4f} "
                  f"spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
