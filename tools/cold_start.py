"""Cold start of the command-line tool, one row per subcommand shape.

Run from the repository root::

    python tools/cold_start.py [--runs N] [SRC ...]

For each command shape of the benchmark's ``cli`` workload it starts N
fresh ``python -m billiards.cli`` processes and prints the median wall time,
then the ``billiards.*`` modules one such process imports (read from ``-X
importtime``). Each SRC is a ``src`` directory to import ``billiards`` from
(default: this checkout's); with several, their runs interleave, so two
trees can be compared on a host whose speed drifts::

    python tools/cold_start.py --runs 9 ../parent/src src

Every process inherits the caller's environment apart from ``PYTHONPATH``,
so ``PYTHONDONTWRITEBYTECODE`` decides whether compiled modules are cached.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the six invocations of the benchmark's cli workload, with fixed arguments
SHAPES = {
    "simulate": ["simulate", "square", "0.3,0.4", "0.6,0.8", "4"],
    "check-alcove": ["check-alcove", "simplex_A3"],
    "corner": ["corner", "1.0"],
    "corner --sweep": ["corner", "--sweep", "0.3", "2.6", "600"],
    "surface --report": ["surface", "cube", "--report"],
    "smooth --laws": ["smooth", "perturbed", "--laws", "--alphas", "0.08,0.04"],
}


def _env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src)}


def run_once(src: Path, argv: list[str]) -> float:
    """Wall time of one ``python -m billiards.cli`` process, in seconds."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "billiards.cli", *argv],
        env=_env(src),
        stdout=subprocess.DEVNULL,
        check=True,
    )
    return time.perf_counter() - t0


def loaded_modules(src: Path, argv: list[str]) -> list[str]:
    """The ``billiards`` submodules one process imports for ``argv``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "billiards.cli", *argv],
        env=_env(src),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return sorted(n[len("billiards."):] for n in names if n.startswith("billiards."))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="processes per shape and tree (default 5)")
    parser.add_argument("src", nargs="*", type=Path, default=[SRC],
                        help="src directories to compare (default: this one)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    srcs = [path.resolve() for path in args.src]

    times = {(shape, src): [] for shape in SHAPES for src in srcs}
    for i in range(args.runs):
        # alternate the order of the trees from one round to the next
        order = srcs if i % 2 == 0 else srcs[::-1]
        for shape, argv in SHAPES.items():
            for src in order:
                times[shape, src].append(run_once(src, argv))

    for k, src in enumerate(srcs):
        print(f"[{k}] {src}")
    header = "".join(f"  [{k}] median ms" for k in range(len(srcs)))
    print(f"{'command':<18}{header}")
    for shape in SHAPES:
        cells = "".join(
            f"{1e3 * statistics.median(times[shape, src]):>16.1f}" for src in srcs
        )
        print(f"{shape:<18}{cells}")
    for shape, argv in SHAPES.items():
        for k, src in enumerate(srcs):
            print(f"[{k}] {shape}: {' '.join(loaded_modules(src, argv))}")


if __name__ == "__main__":
    main()
