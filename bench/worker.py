"""One warm process that runs a workload's CLI command repeatedly.

Usage: python3 bench/worker.py SPEC_JSON, started by run.py from the
repository root with `src` on PYTHONPATH.  The spec names the mode, the CLI
arguments, the files the command writes and the seconds to measure.  Mode
`time` times untraced calls, each also scaled to nominal CPU speed (speed.py);
mode `trace` alternates untraced and traced calls
and reduces the spans to per-layer numbers.  Every call's outputs must equal
the first call's byte for byte.  The last line of stdout is a JSON result.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import Speed
from tracing import Layer, Tracer, aggregate

import diftrans
from diftrans.cli import main

#: Fewest timed calls (time mode) or untraced/traced pairs (trace mode) per run.
MIN_CALLS = 3
MIN_PAIRS = 2


class Runner:
    """Runs the command, counting calls that fail or write different bytes."""

    def __init__(self, argv: list[str], outputs: list[str]):
        self.argv = argv
        self.outputs = [Path(p) for p in outputs]
        self.first: list[bytes] | None = None
        self.attempted = 0
        self.failed = 0

    def call(self) -> float:
        for path in self.outputs:
            path.unlink(missing_ok=True)
        self.attempted += 1
        start = perf_counter()
        try:
            code = main(self.argv)
        except (Exception, SystemExit):  # a crash or a rejected flag fails this call only
            traceback.print_exc()
            code = None
        wall = perf_counter() - start
        try:
            blobs = [path.read_bytes() for path in self.outputs]
        except FileNotFoundError:
            blobs = None
        if self.first is None:
            self.first = blobs
        if code != 0 or blobs is None or blobs != self.first:
            self.failed += 1
        return wall


def time_mode(spec: dict) -> dict:
    runner = Runner(spec["argv"], spec["outputs"])
    runner.call()  # warm-up: lazy imports and first allocations
    speed = Speed()
    walls, scaled = [], []
    start = perf_counter()
    # Stop before a call that would likely end past the run's seconds.
    while len(walls) < MIN_CALLS or (
        perf_counter() - start + statistics.median(walls) < spec["seconds"]
    ):
        walls.append(runner.call())
        scaled.append(speed.scale(walls[-1]))
    return {
        "walls": walls,
        "scaled": scaled,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(layers: dict[str, Layer], top: float, wall: float, spec: dict) -> dict:
    """Per-layer numbers of one traced call: {name: (value, unit)}."""

    def get(name: str) -> Layer:
        return layers.get(name) or Layer()

    def per_call_us(layer: Layer) -> float:
        return 1e6 * layer.seconds / layer.calls if layer.calls else 0.0

    ot, ingest, build = get("transport.ot_cost"), get("pmf.ingest_csv"), get("pmf.build_pmf")
    out = {
        "transport.ot_cost.calls": (ot.calls, "count"),
        "transport.ot_cost.s": (ot.seconds, "s"),
        "transport.ot_cost.us_per_call": (per_call_us(ot), "us"),
        "pmf.ingest_csv.s": (ingest.seconds, "s"),
        "pmf.ingest_csv.rows": (sum(ingest.sizes), "count"),
        "pmf.build_pmf.s": (build.seconds, "s"),
        "pmf.support_k": (max(build.sizes, default=0), "count"),
        "cli.self_s": (wall - top, "s"),
        "trace.coverage": (top / wall, "ratio"),
    }
    if "estimators" in spec["layers"]:
        pcm = get("estimators.placebo_cost_matrix")
        evals = sum(pcm.sizes)
        out.update({
            "estimators.placebo_cost_matrix.calls": (pcm.calls, "count"),
            "estimators.placebo_cost_matrix.s": (pcm.seconds, "s"),
            "estimators.placebo_cost_matrix.self_s": (pcm.self_seconds, "s"),
            "estimators.placebo_evals": (evals, "count"),
            "estimators.placebo_useful_ratio": (
                spec["placebo_cells"] / evals if evals else 0.0, "ratio"
            ),
            "estimators.equal_displacement_curves.s": (
                get("estimators.equal_displacement_curves").seconds, "s"
            ),
        })
    if "inference" in spec["layers"]:
        sub = get("inference.subsample_ci")
        out.update({
            "inference.subsample_ci.s": (sub.seconds, "s"),
            "inference.subsample_ci.self_s": (sub.self_seconds, "s"),
            "inference.draws": (sum(n for n, _ in sub.sizes), "count"),
            "inference.failed_draws": (sum(f for _, f in sub.sizes), "count"),
        })
    if "equilibrium" in spec["layers"]:
        inv = get("equilibrium.invert_from_volume")
        out.update({
            "equilibrium.invert_from_volume.calls": (inv.calls, "count"),
            "equilibrium.invert_from_volume.s": (inv.seconds, "s"),
            "equilibrium.gains_from_trade.s": (get("equilibrium.gains_from_trade").seconds, "s"),
        })
    return out


def trace_mode(spec: dict) -> dict:
    runner = Runner(spec["argv"], spec["outputs"])
    runner.call()
    untraced, traced, samples = [], [], []
    absent: list[str] = []
    start = perf_counter()
    while len(traced) < MIN_PAIRS or perf_counter() - start < spec["seconds"]:
        untraced.append(runner.call())
        tracer = Tracer()
        tracer.install()
        try:
            wall = runner.call()
        finally:
            tracer.uninstall()
        traced.append(wall)
        absent = tracer.absent
        layers, top = aggregate(tracer.spans)
        samples.append(layer_metrics(layers, top, wall, spec))
    # median_low: each value is one traced call's own reading, and counts stay whole.
    metrics = {
        name: (statistics.median_low(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s"
    )
    return {
        "metrics": metrics,
        "absent": absent,
        "attempted": runner.attempted,
        "failed": runner.failed,
    }


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    if src not in Path(diftrans.__file__).resolve().parents:
        sys.exit(f"diftrans was imported from {diftrans.__file__}, not from {src}")
    result = time_mode(spec) if spec["mode"] == "time" else trace_mode(spec)
    print(json.dumps(result))
