"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--trace-seed 1]
                               [--out perfbench/baseline.json]

Every workload of ``BENCHMARK.json`` runs once per seed for its
``run_seconds``. For every workload and end-to-end metric it prints the
median, the first and third quartiles (``statistics.quantiles(values, n=4)``)
and the spread ``(q3 - q1) / median``, marked ``!`` when the spread reaches a
third of the metric's bound in ``BENCHMARK.json``; it exits 1 when any spread
is marked. Runs are sequential, one process at a time. ``--trace-seed`` adds
one traced run's per-layer metrics. ``--out`` writes the summary, with every
run's values and the machine metadata, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one run, with its metadata under ``meta``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = next(line for line in lines if line.startswith("# meta "))
    result["meta"] = json.loads(meta[len("# meta "):])
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    steady = True
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        summary["meta"] = {k: v for k, v in runs[-1]["meta"].items() if k != "seed"}
        rows = {}
        for name, bound in bounds.items():
            row = summarise([r["metrics"][name]["value"] for r in runs])
            rows[name] = row
            flag = "!" if row["spread"] >= bound / 3 else " "
            steady &= flag == " "
            print(f"{workload:15s} {name:16s} median {row['median']:12.5g}  "
                  f"q1 {row['q1']:12.5g}  q3 {row['q3']:12.5g}  "
                  f"spread {row['spread']:7.4f} {flag} (bound {bound})", flush=True)
        summary["workloads"][workload] = {
            "metrics": rows,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
        print(f"{workload:15s} correct {summary['workloads'][workload]['correct']}, "
              f"failed {summary['workloads'][workload]['failed']} of "
              f"{summary['workloads'][workload]['attempted']}", flush=True)
    if args.trace_seed is not None:
        traced = run_once(workloads[0], args.trace_seed, seconds, 1)
        summary["traced"] = {"seed": args.trace_seed, "correct": traced["correct"],
                             "metrics": traced["metrics"]}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
