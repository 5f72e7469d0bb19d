"""Cold start of a command: import the CLI, ingest the CSV, build its PMFs.

Usage: python3 bench/cold.py CSV CITY@FROM:TO [CITY@FROM:TO ...], with `src`
on PYTHONPATH; windows are YYYY-MM:YYYY-MM.  The script prints the
system-wide monotonic clock when the PMFs are built; run.py subtracts its own
reading taken before starting the interpreter, so the figure includes
interpreter start-up but not exit or the parent's polling for it.
"""

import sys
import time

import diftrans.cli  # noqa: F401  (the import is part of the cold cost)
from diftrans.pmf import PeriodFilter, build_pmf, ingest_csv


def _window(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    lo, hi = (tuple(int(part) for part in ym.split("-")) for ym in text.split(":"))
    return lo, hi


if __name__ == "__main__":
    records = ingest_csv(sys.argv[1])
    for pair in sys.argv[2:]:
        city, window = pair.split("@")
        build_pmf(records, city, PeriodFilter(include=(_window(window),)))
    print(time.monotonic())
