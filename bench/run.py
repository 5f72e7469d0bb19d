"""Benchmark of the diftrans CLI on seeded paper-scale synthetic markets.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed picks one of VARIANTS input variants (lottery draw and CLI --seed),
whose outputs expected.json pins.  The run writes the variant's inputs under
bench/_run/, then, with --trace 0, times cold set-ups in fresh interpreters
and calls of the workload's command in one warm process for S seconds, and
reports medians of these times scaled to nominal CPU speed (speed.py).  With
--trace 1 it runs every workload for a share of S seconds, alternating
untraced and traced calls, and reports per-layer numbers named
`<workload>.<layer metric>`.  Every report is checked against the pinned
values, and repeated calls must write identical bytes.  Earlier stdout lines
record the environment, the inputs and the unscaled times; the last line is
the JSON result.
"""

import os

#: Every thread pool is pinned to one thread, here before numpy loads and in
#: every child process, so each run uses one process and one thread.
PINNED_ENV = {
    var: "1"
    for var in (
        "DIFTRANS_THREADS",
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import monotonic, perf_counter  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import markets  # noqa: E402
import workloads  # noqa: E402
from speed import REF_NOMINAL_S, Speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Generated inputs and command outputs, relative to ROOT (the children's cwd).
RUN_DIR = Path("bench") / "_run"
VARIANTS = 32
SETUP_REPS = 5
#: All child processes of one run must end within this many seconds.
BUDGET_S = 170.0
#: Share of --seconds each workload gets in a traced run.
TRACE_SHARE = {"dit_fine": 0.6, "ci_fine": 0.25, "ci_netgains_coarse": 0.15}


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def data_dir(variant: int) -> Path:
    return RUN_DIR / "data" / f"v{variant}"


def out_dir(name: str) -> Path:
    return RUN_DIR / "out" / name


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned_env": PINNED_ENV,
    }


class Children:
    """Starts child processes from ROOT, each waited for, all within BUDGET_S."""

    def __init__(self):
        self.deadline = perf_counter() + BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str], capture: bool = False) -> str:
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError(f"out of time before {argv[0]}")
        try:
            proc = subprocess.run(
                [sys.executable, *argv],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{argv[0]} did not end within {BUDGET_S} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{argv[0]} exited with code {proc.returncode}")
        return proc.stdout or ""

    def worker(self, spec: dict) -> dict:
        stdout = self.run(["bench/worker.py", json.dumps(spec)], capture=True)
        return json.loads(stdout.strip().splitlines()[-1])


def setup_seconds(children: Children, name: str, data: Path) -> tuple[float, float]:
    """Median time of a fresh interpreter's import, ingest and PMF build.

    Returns the median of the times scaled to nominal CPU speed (speed.py)
    and the median of the raw wall times.  The end is the child's own
    monotonic-clock reading: waiting for a child with a timeout polls in
    sleeps of up to 50 ms, too coarse to time it by.
    """
    csv = data / f"{workloads.MARKET[name]}.csv"
    argv = ["bench/cold.py", str(csv), *(f"{c}@{w}" for c, w in workloads.PMFS[name])]
    speed = Speed()
    walls, scaled = [], []
    for _ in range(SETUP_REPS):
        start = monotonic()
        end = float(children.run(argv, capture=True).split()[-1])
        walls.append(end - start)
        scaled.append(speed.scale(walls[-1]))
    return statistics.median(scaled), statistics.median(walls)


def worker_spec(mode: str, name: str, variant: int, seconds: float) -> dict:
    out = out_dir(name)
    (ROOT / out).mkdir(parents=True, exist_ok=True)
    return {
        "mode": mode,
        "src": str(SRC),
        "argv": workloads.argv(name, data_dir(variant), out, variant),
        "outputs": [str(p) for p in workloads.outputs(name, out)],
        "seconds": seconds,
        "layers": workloads.LAYERS[name],
        "placebo_cells": workloads.DIT_SIMS * workloads.DIT_GRID_LEN,
    }


def output_problems(name: str, pinned: dict) -> list[str]:
    try:
        got = workloads.summary(name, ROOT / out_dir(name))
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable report: {exc!r}"]
    return workloads.check(name, got, pinned)


def input_problems(record: dict, pinned: dict) -> list[str]:
    return [
        f"{key} input differs from the pinned one: {record[key]} != {pinned.get(key)}"
        for key in record
        if record[key] != pinned.get(key)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diftrans" / "cli.py").is_file():
        raise BenchError(f"no diftrans sources under {SRC}")
    variant = args.seed % VARIANTS
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        pinned = json.load(fh)["variants"][str(variant)]
    record = markets.write_inputs(ROOT / data_dir(variant), variant)
    problems = input_problems(record, pinned["inputs"])
    children = Children()

    names = workloads.NAMES if args.trace else (args.workload,)
    attempted = failed = 0
    metrics = {}
    raw = {}
    absent = set()
    for name in names:
        if args.trace:
            result = children.worker(
                worker_spec("trace", name, variant, args.seconds * TRACE_SHARE[name])
            )
            absent.update(result["absent"])
            for metric, (value, unit) in result["metrics"].items():
                metrics[f"{name}.{metric}"] = {"value": value, "unit": unit}
        else:
            setup, setup_wall = setup_seconds(children, name, data_dir(variant))
            result = children.worker(worker_spec("time", name, variant, args.seconds))
            raw = {
                "wall_s": statistics.median(result["walls"]),
                "setup_wall_s": setup_wall,
                "calls": len(result["walls"]),
                "ref_nominal_s": REF_NOMINAL_S,
            }
            metrics = {
                "norm_wall_s": {"value": statistics.median(result["scaled"]), "unit": "s"},
                "setup_s": {"value": setup, "unit": "s"},
                "peak_rss_mb": {"value": result["peak_rss_mib"], "unit": "MiB"},
            }
        wrong = output_problems(name, pinned[name])
        attempted += result["attempted"]
        failed += result["attempted"] if wrong else result["failed"]
        problems += [f"{name}: {p}" for p in wrong]
    if args.trace:
        metrics["trace.hooks_absent"] = {"value": len(absent), "unit": "count"}

    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    for hook in sorted(absent):
        print(f"bench: hook absent: {hook}", file=sys.stderr)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"inputs": {"variant": variant, **record}}))
    if raw:
        print(json.dumps({"unscaled": raw}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
