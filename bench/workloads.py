"""The benchmark's workloads: CLI argument vectors, their outputs and the output check.

All three run the real `diftrans` CLI on the seeded markets from markets.py at
the default market size (700k buyers, 260k licenses, planted sigma 0.3, 3%
growth, pre year 2010, post year 2011, treated metro, control coastal).
Paths are relative to the repository root, which is the working directory of
every command run, so reports do not depend on where the checkout lives.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from markets import CONTROL, POST_YEAR, PRE_YEAR, SIGMA, TREATED

#: Placebo replicates per dit run.  The CLI default (500) makes one call take
#: over a minute; 10 keeps about a dozen calls inside one measured run while
#: the placebo matrices stay the largest cost (~55% of a call).
DIT_SIMS = 10
DIT_GRID = "0:50000:1000"
DIT_GRID_LEN = 51
CI_D = "5000"

PRE = f"{PRE_YEAR}-01:{PRE_YEAR}-12"
POST = f"{POST_YEAR}-01:{POST_YEAR}-12"
DIAG_PRE = f"{PRE_YEAR}-01:{PRE_YEAR}-06"
DIAG_POST = f"{PRE_YEAR}-07:{PRE_YEAR}-12"

#: Which generated CSV each workload reads, and the (city, window) PMFs its
#: command builds, which the cold set-up probe builds too.
MARKET = {"dit_fine": "fine", "ci_fine": "fine", "ci_netgains_coarse": "coarse"}
PMFS = {
    "dit_fine": [(c, w) for c in (TREATED, CONTROL) for w in (PRE, POST, DIAG_PRE, DIAG_POST)],
    "ci_fine": [(TREATED, PRE), (TREATED, POST)],
    "ci_netgains_coarse": [(c, w) for c in (TREATED, CONTROL) for w in (PRE, POST)],
}
NAMES = tuple(MARKET)
#: Modules each command reaches beyond pmf, transport and cli; they pick the
#: per-layer metrics its traced run reports.
LAYERS = {
    "dit_fine": ["estimators"],
    "ci_fine": ["inference"],
    "ci_netgains_coarse": ["inference", "equilibrium"],
}

#: Float tolerances for the pinned values: trade shares are compared in
#: absolute terms; net gains (RMB) relative, because the gains integral may
#: move from adaptive quadrature to an exact sum.
SHARE_ABS_TOL = 1e-9
GAINS_REL_TOL = 1e-6


def argv(name: str, data: Path, out: Path, seed: int) -> list[str]:
    """CLI arguments for one run of workload `name` on the inputs in `data`."""
    csv = str(data / f"{MARKET[name]}.csv")
    if name == "dit_fine":
        return [
            "dit", "--input", csv,
            "--treated-city", TREATED, "--control-city", CONTROL,
            "--pre", PRE, "--post", POST,
            "--d-grid", DIT_GRID, "--sims", str(DIT_SIMS),
            "--diag-pre", DIAG_PRE, "--diag-post", DIAG_POST,
            "--seed", str(seed),
            "--out-csv", str(out / "curve.csv"), "--out", str(out / "report.json"),
        ]
    common = [
        "ci", "--input", csv, "--city", TREATED, "--pre", PRE, "--post", POST,
        "--d", CI_D, "--seed", str(seed), "--out", str(out / "report.json"),
    ]
    if name == "ci_fine":
        return common + ["--estimator", "before_after"]
    return common + [
        "--estimator", "dit", "--control-city", CONTROL,
        "--map", "net-gains", "--wtp", str(data / "wtp.csv"),
    ]


def outputs(name: str, out: Path) -> list[Path]:
    """Files a run writes; repeated runs must write them byte for byte the same."""
    files = [out / "report.json"]
    if name == "dit_fine":
        files.append(out / "curve.csv")
    return files


def summary(name: str, out: Path) -> dict:
    """The numbers of a report that the check compares with the pinned values."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if name == "dit_fine":
        return {"d_star": report["d_star"], "floors": report["floors"], "s_dit": report["s_dit"]}
    return {key: report[key] for key in ("point", "lower", "upper", "b")}


def _close(got, want, name: str) -> bool:
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        return False
    if name == "ci_netgains_coarse":
        return abs(got - want) <= GAINS_REL_TOL * abs(want)
    return abs(got - want) <= SHARE_ABS_TOL


def check(name: str, got: dict, pinned: dict) -> list[str]:
    """Problems with a run's summary against the pinned values; empty when correct."""
    problems = []
    if name == "dit_fine":
        for key in ("d_star", "floors"):
            if got[key] != pinned[key]:
                problems.append(f"{key} is {got[key]}, pinned {pinned[key]}")
        s_dit = got["s_dit"]
        if not _close(s_dit, pinned["s_dit"], name):
            problems.append(f"s_dit is {s_dit!r}, pinned {pinned['s_dit']!r}")
        if not (isinstance(s_dit, float) and 0.0 <= s_dit <= SIGMA):
            problems.append(f"s_dit {s_dit!r} is outside the planted bound [0, {SIGMA}]")
        return problems
    if got["b"] != pinned["b"]:
        problems.append(f"subsample sizes are {got['b']}, pinned {pinned['b']}")
    for key in ("point", "lower", "upper"):
        if not _close(got[key], pinned[key], name):
            problems.append(f"{key} is {got[key]!r}, pinned {pinned[key]!r}")
    if not problems and got["lower"] > got["upper"]:
        problems.append(f"interval [{got['lower']!r}, {got['upper']!r}] is reversed")
    return problems
