"""Check the benchmark against its own declarations.

    python3 perfbench/selfcheck.py

1. Each workload's end-to-end run prints exactly the metrics that
   ``BENCHMARK.json`` declares, with their units, all nonzero, and ends with
   no failed operation (``error_rate`` 0).
2. The traced run prints exactly the declared per-layer metrics, none of
   them 0 but the counts of expected geometric outcomes, ends with no failed
   operation, and two traced runs of one seed give the same exact counts.
3. In a directory that holds only ``BENCHMARK.json`` and ``perfbench/`` the
   benchmark exits with an error and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SEED = 7
SECONDS = 3
# counts of expected geometric outcomes, which may be 0 on a traced run
MAY_BE_ZERO = ("dynamics.corner_discards", "surface.vertex_hits")
EXACT_COUNTS = (
    "dynamics.bounces",
    "dynamics.corner_bounces",
    "dynamics.corner_discards",
    "surface.crossings",
    "surface.vertex_hits",
    "geometry.contains.calls_per_bounce",
    "geometry.as_point.calls_per_bounce",
    "geometry.polytope_build.calls",
    "geometry.cone_membership.calls",
    "alcove.fold_point.word_len_mean",
)


def run(cwd: Path, workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_metrics(result: dict, declared: list[dict], may_be_zero=()) -> list[str]:
    problems = []
    printed = result["metrics"]
    names = {m["name"] for m in declared}
    if set(printed) != names:
        problems.append(f"undeclared {sorted(set(printed) - names)}, "
                        f"missing {sorted(names - set(printed))}")
    for m in declared:
        got = printed.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {got['unit']} != {m['unit']}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']} value {value!r}")
        elif value == 0 and m["name"] not in may_be_zero:
            problems.append(f"{m['name']} is 0")
    if not result["correct"] or result["failed"]:
        problems.append(f"failed {result['failed']} of {result['attempted']}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True

    def report(what: str, problems: list[str]) -> None:
        nonlocal ok
        ok &= not problems
        print(f"{'PASS' if not problems else 'FAIL'} {what}"
              + "".join(f"\n     {p}" for p in problems), flush=True)

    for w in bench["workloads"]:
        try:
            result = result_of(run(ROOT, w["name"], SEED, SECONDS, 0))
            problems = check_metrics(result, bench["end_to_end"])
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            problems = [str(exc)]
        report(f"end-to-end run of {w['name']}", problems)

    traced = []
    for attempt in range(2):
        try:
            result = result_of(run(ROOT, bench["workloads"][0]["name"],
                                   SEED, SECONDS, 1))
            problems = check_metrics(result, bench["per_layer"], MAY_BE_ZERO)
            traced.append(result["metrics"])
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            problems = [str(exc)]
        report(f"traced run {attempt + 1}", problems)
    if len(traced) == 2:
        report("exact counts repeat across two traced runs of one seed", [
            f"{name}: {traced[0][name]['value']} != {traced[1][name]['value']}"
            for name in EXACT_COUNTS
            if traced[0][name]["value"] != traced[1][name]["value"]
        ])

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, bench["workloads"][0]["name"], SEED, 1, 0)
        printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
        report("without the sources the run fails and prints no result", [
            p for p, bad in (
                (f"exit code {proc.returncode}", proc.returncode == 0),
                ("a result line was printed", printed_result),
            ) if bad
        ])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
