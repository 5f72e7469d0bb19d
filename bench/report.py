"""Print every end-to-end and per-layer metric of every workload, by name and unit.

Usage, from the repository root:

    python3 bench/report.py [--seed N] [--seconds S]

Runs run.py once per workload untraced and once traced (the traced run covers
every workload), then prints one table.  Per-layer rows also show the
end-to-end metric and workload each layer metric should move, and the value
recorded for the seed code, both from layers.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    with open(HERE / "layers.json", encoding="utf-8") as fh:
        layers = json.load(fh)

    rows = [("workload", "metric", "value", "unit", "moves", "seed value")]
    status = []
    for name in workloads.NAMES:
        result = run(name, args.seed, args.seconds, 0)
        status.append(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            rows.append((name, metric, f"{m['value']:.6g}", m["unit"], "", ""))
    result = run(workloads.NAMES[0], args.seed, args.seconds, 1)
    status.append(f"traced: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
    for metric, m in result["metrics"].items():
        name, _, layer_metric = metric.partition(".")
        if name not in workloads.NAMES:
            name, layer_metric = "all", metric
        info = layers["moves"].get(layer_metric, {})
        seed_value = layers["seed_values"].get(metric)
        rows.append((name, layer_metric, f"{m['value']:.6g}", m["unit"], info.get("metric", ""),
                     "" if seed_value is None else f"{seed_value:.6g}"))

    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    print()
    print("\n".join(status))


if __name__ == "__main__":
    main()
