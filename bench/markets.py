"""Seeded two-city lottery markets written as sales CSVs, plus their WTP curve.

This is the synthetic market of the test suite (a population of buyers at
known valuations; in the post year a lottery rations q licenses and a planted
share sigma of them is reallocated to the keenest losers) with the price
lattice as an argument.  It depends on numpy only, so a change to the library
cannot change the benchmark's inputs; the digests pinned in expected.json make
any drift in this generator visible.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

N_BUYERS = 700_000
QUOTA = 260_000
SIGMA = 0.3
GROWTH = 0.03
TREATED = "metro"
CONTROL = "coastal"
PRE_YEAR = 2010
POST_YEAR = 2011

#: Price lattice in RMB: the coarse market has ~170 distinct prices, the fine one ~1.7k.
LATTICES = {"coarse": 1000, "fine": 100}


def curve_knots(market_size: int = N_BUYERS) -> list[tuple[float, float]]:
    """Concave-ish decreasing WTP schedule over [0, 280k] with a few kinks."""
    n = float(market_size)
    volumes = [0.0, 0.1 * n, 0.3 * n, 0.6 * n, n]
    values = [280_000.0, 180_000.0, 110_000.0, 50_000.0, 0.0]
    return list(zip(volumes, values))


def _on_lattice(prices: np.ndarray, lattice: int) -> np.ndarray:
    return (np.rint(prices / lattice) * lattice).astype(np.int64)


def population_prices(lattice: int) -> np.ndarray:
    """Purchase prices by descending valuation; index 0 is the keenest buyer."""
    volumes, values = (np.array(v) for v in zip(*curve_knots()))
    shares = (np.arange(N_BUYERS) + 0.5) / N_BUYERS
    valuations = np.interp(N_BUYERS * shares, volumes, values)
    return _on_lattice(20_000.0 + 0.6 * valuations, lattice)


def lottery_post_prices(prices: np.ndarray, seed: int, lattice: int) -> np.ndarray:
    """Post-year prices: QUOTA lottery winners, SIGMA of them replaced by the top losers."""
    rng = np.random.default_rng(seed)
    n = prices.size
    winners = rng.choice(n, size=QUOTA, replace=False)
    order = rng.permutation(QUOTA)
    k = int(round(SIGMA * QUOTA))
    in_winners = np.zeros(n, dtype=bool)
    in_winners[winners] = True
    top_losers = np.flatnonzero(~in_winners)[:k]
    post = prices[np.concatenate([winners[order[k:]], top_losers])]
    return _on_lattice(post * (1.0 + GROWTH), lattice)


def _rows(city: str, year: int, prices: np.ndarray) -> list[str]:
    """City-month rows: each price's units spread as evenly as possible over 12 months."""
    support, counts = np.unique(prices, return_counts=True)
    rows = []
    for price, count in zip(support.tolist(), counts.tolist()):
        base, extra = divmod(count, 12)
        for month in range(1, 13):
            qty = base + (1 if month <= extra else 0)
            if qty > 0:
                rows.append(f"{city},{year},{month},{price},{qty}\n")
    return rows


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_market(path: Path, seed: int, lattice: int) -> dict:
    """Write the two-city CSV; return its row count, largest support size and sha256."""
    prices = population_prices(lattice)
    post = lottery_post_prices(prices, seed, lattice)
    control_post = _on_lattice(prices * (1.0 + GROWTH), lattice)
    sides = [
        (TREATED, PRE_YEAR, prices),
        (TREATED, POST_YEAR, post),
        (CONTROL, PRE_YEAR, prices),
        (CONTROL, POST_YEAR, control_post),
    ]
    rows = [row for city, year, p in sides for row in _rows(city, year, p)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("city,year,month,price,quantity\n")
        fh.writelines(rows)
    k = max(np.unique(p).size for _, _, p in sides)
    return {"rows": len(rows), "k": k, "sha256": _digest(path)}


def write_curve(path: Path) -> dict:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,v\n")
        for n, v in curve_knots():
            fh.write(f"{n!r},{v!r}\n")
    return {"knots": len(curve_knots()), "sha256": _digest(path)}


def write_inputs(directory: Path, seed: int) -> dict:
    """All inputs for one seed: `coarse.csv`, `fine.csv` and `wtp.csv` in `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    record = {
        name: write_market(directory / f"{name}.csv", seed, lattice)
        for name, lattice in LATTICES.items()
    }
    record["wtp"] = write_curve(directory / "wtp.csv")
    return record
