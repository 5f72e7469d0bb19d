"""Write expected.json: input digests and reference outputs of every variant.

Usage, from the repository root: python3 bench/pin.py

Each variant's inputs are generated and each workload's command runs once.
Pinned values are what later code must reproduce, so re-pin only when the
benchmark's inputs or workloads change, never to make a failing check pass.
"""

import json
import os
import sys

import markets
import run
import workloads
from run import ROOT, SRC, VARIANTS

sys.path.insert(0, str(SRC))
from diftrans.cli import main as cli_main  # noqa: E402


def main() -> None:
    os.chdir(ROOT)
    variants = {}
    for variant in range(VARIANTS):
        data = run.data_dir(variant)
        entry = {"inputs": markets.write_inputs(ROOT / data, variant)}
        for name in workloads.NAMES:
            out = run.out_dir(name)
            out.mkdir(parents=True, exist_ok=True)
            if cli_main(workloads.argv(name, data, out, variant)) != 0:
                raise SystemExit(f"{name} failed on variant {variant}")
            entry[name] = workloads.summary(name, out)
            problems = workloads.check(name, entry[name], entry[name])
            if problems:
                raise SystemExit(f"{name} on variant {variant}: {problems}")
        variants[str(variant)] = entry
        print(variant, {k: v for k, v in entry.items() if k != "inputs"}, flush=True)
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump({"variants": variants}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
