"""Benchmark of the ``billiards`` package: one workload, one seed, one run.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports ``billiards`` from the
checkout's ``src`` directory. Workloads: ``flow``, ``alcove``,
``surface_smooth`` and ``cli`` (see ``perfbench/README.md``).

``--trace 0`` measures the named workload for ``--seconds`` seconds with no
instrumentation and reports the end-to-end metrics. ``--trace 1`` is the
traced run: every workload, a fixed number of operations each, plain and
with spans around the public functions of every module. It reports the
per-layer metrics and the tracing overhead of each workload, and writes its
spans to ``.bench_out/``.

Durations are reported at the reference host speed of ``hostspeed.py``.
Every operation is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The lines before it
are a readable report with the run's machine and software metadata, and the
same report with the unscaled figures goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hostspeed import CHILD, IN_PROCESS, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("flow", "alcove", "surface_smooth", "cli")
SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
# Throughput is the median over one-second blocks of the timed loop, so a
# few slow seconds do not move it.
BLOCK_S = 1.0


class Stats:
    """Outcome of one pass of operations, with each operation's start,
    duration scaled to the reference host speed, steps, and completion."""

    def __init__(self):
        self.completed = self.failed = self.discarded = self.steps = 0
        self.raw_work = 0.0
        self.trail: list[tuple[float, float, int, int]] = []
        self.failures: list[str] = []
        self.speed: HostSpeed | None = None

    @property
    def attempted(self) -> int:
        return self.completed + self.failed + self.discarded

    @property
    def work(self) -> float:
        return sum(op[1] for op in self.trail)

    @property
    def latencies(self) -> list[float]:
        return [op[1] for op in self.trail if op[3]]

    def rate(self) -> float:
        work = self.work
        return self.completed / work if work else 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def add(self, other: "Stats") -> None:
        self.completed += other.completed
        self.failed += other.failed
        self.discarded += other.discarded
        self.failures.extend(other.failures[: 5 - len(self.failures)])


def run_ops(wl, items, *, seconds=None, count=None, tracer=None) -> Stats:
    """Closed loop, one operation at a time. Stops after ``seconds`` of wall
    time or after ``count`` operations that completed or failed; expected
    geometric outcomes are discarded and the next input is taken. The host
    speed is sampled between operations, outside the timed calls."""
    stats = Stats()
    begin = time.perf_counter()
    speed = stats.speed = HostSpeed(begin, getattr(wl, "REFERENCE", IN_PROCESS))
    speed.sample()
    deadline = None if seconds is None else begin + seconds
    ops = []  # start, raw duration, steps, done
    for op, item in enumerate(items):
        if count is not None and stats.completed + stats.failed >= count:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.op, tracer.active = op, True
        t0 = time.perf_counter()
        try:
            result, error = wl.execute(item), None
        except Exception as exc:  # reported below as a failed operation
            result, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        steps = done = 0
        if error is not None:
            if isinstance(error, wl.EXPECTED):
                stats.discarded += 1
            else:
                stats.fail(f"{type(error).__name__}: {error}")
        else:
            try:
                steps, done = wl.check(item, result), 1
            except Exception as exc:  # a check that cannot run is a failed check
                stats.fail(f"{type(exc).__name__}: {exc}")
        stats.completed += done
        stats.steps += steps
        ops.append((t0 - begin, dt, steps, done))
        speed.sample()
    speed.sample(force=True)
    stats.raw_work = sum(op[1] for op in ops)
    stats.trail = [(t, dt * speed.factor(t, t + dt), s, d) for t, dt, s, d in ops]
    return stats


def block_rates(stats: Stats) -> tuple[float, float, int]:
    """Median over blocks of completed ops and of steps per second of work."""
    blocks: dict[int, list] = {}
    for start, dt, steps, done in stats.trail:
        block = blocks.setdefault(int(start // BLOCK_S), [0.0, 0, 0])
        block[0] += dt
        block[1] += done
        block[2] += steps
    busy = [b for b in blocks.values() if b[0] > 0.0]
    if not busy:
        return 0.0, 0.0, 0
    ops = statistics.median(b[1] / b[0] for b in busy)
    steps = statistics.median(b[2] / b[0] for b in busy)
    return ops, steps, len(busy)


def feed(wl, rng, prefill: int):
    """Inputs drawn up front during set-up, then more from the same stream."""
    first = [wl.draw(rng) for _ in range(prefill)]
    return itertools.chain(first, iter(lambda: wl.draw(rng), None))


def make_workload(name: str, rng, traced: bool):
    import workloads

    if name == "flow":
        return workloads.Flow()
    if name == "alcove":
        return workloads.Alcove()
    if name == "surface_smooth":
        return workloads.SurfaceSmooth()
    if traced:
        return workloads.CliInProcess(rng)
    return workloads.Cli(rng, ROOT)


def prefill_size(wl) -> int:
    """Enough inputs for a traced pass with a few discards."""
    return wl.TRACE_OPS + wl.TRACE_OPS // 4 + 4


def set_up(name: str, seed: int, traced: bool):
    """Build the workload and draw its first inputs, then run warm-up
    operations on a second instance fed from a separate stream, so caches
    and lazy imports settle without consuming the measured inputs."""
    main_rng = np.random.default_rng([seed, 0])
    warm_rng = np.random.default_rng([seed, 1])
    wl = make_workload(name, main_rng, traced)
    items = feed(wl, main_rng, prefill_size(wl))
    warm_wl = make_workload(name, warm_rng, traced)
    warm = run_ops(warm_wl, feed(warm_wl, warm_rng, 0), count=wl.WARMUP_OPS)
    return wl, items, warm


# -- end-to-end run -----------------------------------------------------------


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it, or
    the median when there are too few samples for any."""
    values = sorted(latencies)
    n = len(values)
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p, percentile(values, p)
    return 50.0, percentile(values, 50.0)


def measured_run(name: str, seed: int, seconds: float):
    import workloads

    setups, raw_setups, total = [], [], Stats()
    for _ in range(SETUP_REPEATS):
        # set-up is mostly the child's import, so a child kernel scales it;
        # the import and the rest are each scaled by the samples around them
        speed = HostSpeed(time.perf_counter(), CHILD)
        speed.sample(force=True)
        import_s = workloads.child_import_s(ROOT)
        speed.sample(force=True)
        t0 = time.perf_counter()
        wl, items, warm = set_up(name, seed, traced=False)
        rest_s = time.perf_counter() - t0
        speed.sample(force=True)
        raw_setups.append(import_s + rest_s)
        k = speed.kernel_s
        setups.append(CHILD.ref_s * (2.0 * import_s / (k[0] + k[1])
                                     + 2.0 * rest_s / (k[1] + k[2])))
        total.add(warm)
    # objects that outlive set-up need no further collection passes; without
    # this, full collections over them land at random in the timed calls
    gc.collect()
    gc.freeze()
    stats = run_ops(wl, items, seconds=seconds)

    if name == "cli":
        rss_kb = max(wl.child_rss_kb, default=0)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = stats.latencies
    n = len(latencies)
    p_tail, v_tail = tail(latencies) if n else (50.0, 0.0)
    ops_rate, steps_rate, blocks = block_rates(stats)
    metrics = {
        "ops_per_s": (ops_rate, "op/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies) if n else 0.0, "ms"),
        "latency_tail_ms": (1e3 * v_tail, "ms"),
        "steps_per_s": (steps_rate, "step/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {
        "latency_tail_percentile": p_tail,
        "latency_samples": n,
        "error_rate": stats.failed / stats.attempted if stats.attempted else 0.0,
        "discarded": stats.discarded,
        "steps": stats.steps,
        "step": {"flow": "bounce of simulate or simulate_unfolded",
                 "alcove": "bounce of folded_flow",
                 "surface_smooth": "edge crossing of a geodesic",
                 "cli": "invocation"}[name],
        "blocks": blocks,
        "host_factor": stats.speed.mean_factor(),
        "unscaled": {
            "ops_per_s_overall": stats.completed / stats.raw_work if stats.raw_work else 0.0,
            "timed_work_s": stats.raw_work,
            "setup_samples_s": raw_setups,
        },
    }
    # warm-up operations are checked too, so they count as attempted
    total.add(stats)
    return total, metrics, notes


# -- traced run ---------------------------------------------------------------


def traced_run(seed: int):
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    total, spans, metrics, factors, trace_ops = Stats(), {}, {}, {}, {}
    for name in WORKLOADS:
        wl, items, warm = set_up(name, seed, traced=True)
        total.add(warm)
        items = list(itertools.islice(items, prefill_size(wl)))
        # plain passes before and after the traced one bracket any drift
        before = run_ops(wl, items, count=wl.TRACE_OPS)
        tracer.install()
        try:
            traced = run_ops(wl, items, count=wl.TRACE_OPS, tracer=tracer)
        finally:
            tracer.uninstall()
        after = run_ops(wl, items, count=wl.TRACE_OPS)
        spans[name] = tracer.take()
        factors[name] = traced.speed.mean_factor()
        trace_ops[name] = wl.TRACE_OPS
        plain_work = before.work + after.work
        plain_rate = (before.completed + after.completed) / plain_work if plain_work else 0.0
        ratio = traced.rate() / plain_rate if plain_rate else 0.0
        metrics[f"trace.overhead.{name}"] = (ratio, "ratio")
        for part in (before, traced, after):
            total.add(part)
    metrics.update(tracing.layer_metrics(spans, factors))
    imports = []
    for _ in range(SETUP_REPEATS):
        speed = HostSpeed(time.perf_counter(), CHILD)
        speed.sample(force=True)
        row = workloads.import_breakdown(ROOT)
        speed.sample(force=True)
        imports.append({k: v * speed.mean_factor() for k, v in row.items()})
    for key in ("billiards_s", "scipy_s"):
        metrics[f"import.{key}"] = (statistics.median(row[key] for row in imports), "s")
    path = OUT / f"trace-seed{seed}.json.gz"
    tracing.write_spans(path, seed, spans)
    notes = {"spans_file": str(path.relative_to(ROOT)),
             "spans": {k: len(v) for k, v in spans.items()},
             "trace_ops": trace_ops,
             "host_factor": factors}
    return total, metrics, notes


# -- report -------------------------------------------------------------------


def metadata(seed: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    versions = {}
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), **versions,
            "commit": commit, "seed": seed}


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the host-speed
    kernel, the operations and the ``cli`` children all see the same CPU."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control here: run unpinned
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "billiards" / "__init__.py").is_file():
        print(f"perfbench: no billiards package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()

    if args.trace:
        stats, metrics, notes = traced_run(args.seed)
    else:
        stats, metrics, notes = measured_run(args.workload, args.seed, args.seconds)
    meta = metadata(args.seed)

    kind = "traced run (all workloads)" if args.trace else f"workload {args.workload}"
    print(f"# billiards benchmark, {kind}, seed {args.seed}")
    print("# meta " + json.dumps(meta))
    for key, (value, unit) in metrics.items():
        print(f"{key:48s} {value:16.6g} {unit}")
    print("# notes " + json.dumps(notes))
    print(f"# attempted {stats.attempted}, completed {stats.completed}, "
          f"failed {stats.failed}, discarded {stats.discarded}")
    for failure in stats.failures:
        print(f"# failure: {failure}", file=sys.stderr)

    result = {
        "correct": stats.failed == 0 and stats.completed > 0,
        "attempted": max(stats.attempted, 1),
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "meta": meta, "notes": notes}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
