"""Synthetic lottery market with a planted volume of license trading.

A population of buyers with known valuations all purchase in the pre period.
In the post period a uniform lottery rations q licenses; a planted fraction
sigma of them is reallocated to the highest-valuation buyers left without one.
Valuations map to purchase prices monotonically on a coarse RMB lattice, so
the planted trades produce a long-range distribution shift whose true size is
known by construction.
"""

from __future__ import annotations

import numpy as np

from diftrans.equilibrium import WtpCurve
from diftrans.pmf import PricePMF, SalesTable

LATTICE = 1000


def synth_curve(market_size: int) -> WtpCurve:
    """Concave-ish decreasing schedule over [0, 280k] with a few kinks."""
    n = float(market_size)
    volumes = np.array([0.0, 0.1 * n, 0.3 * n, 0.6 * n, n])
    values = np.array([280_000.0, 180_000.0, 110_000.0, 50_000.0, 0.0])
    return WtpCurve(volumes, values)


def population_prices(n_buyers: int, curve: WtpCurve, lattice: int = LATTICE) -> np.ndarray:
    """Purchase prices by descending valuation; index 0 is the keenest buyer."""
    shares = (np.arange(n_buyers) + 0.5) / n_buyers
    valuations = np.interp(curve.market_size * shares, curve.volumes, curve.values)
    prices = 20_000.0 + 0.6 * valuations
    return (np.rint(prices / lattice) * lattice).astype(np.int64)


def grow(prices: np.ndarray, growth: float, lattice: int = LATTICE) -> np.ndarray:
    return (np.rint(prices * (1.0 + growth) / lattice) * lattice).astype(np.int64)


def pmf_of(prices: np.ndarray) -> PricePMF:
    support, counts = np.unique(prices, return_counts=True)
    return PricePMF(support, counts)


def lottery_post_prices(
    prices: np.ndarray,
    q: int,
    sigma: float,
    seed: int,
    growth: float = 0.0,
    lattice: int = LATTICE,
) -> np.ndarray:
    """Post-period prices: q lottery winners, sigma*q of them replaced by the top.

    The winner set and the replacement order are functions of the seed only,
    so raising sigma grows the planted set monotonically.
    """
    rng = np.random.default_rng(seed)
    n = prices.size
    winners = rng.choice(n, size=q, replace=False)
    order = rng.permutation(q)
    k = int(round(sigma * q))
    keep = winners[order[k:]]
    in_winners = np.zeros(n, dtype=bool)
    in_winners[winners] = True
    top_nonwinners = np.flatnonzero(~in_winners)[:k]
    post = prices[np.concatenate([keep, top_nonwinners])]
    if growth:
        post = grow(post, growth, lattice)
    return post


def two_city_records(
    n_buyers: int,
    q: int,
    sigma: float,
    seed: int,
    growth: float = 0.0,
    treated: str = "metro",
    control: str = "coastal",
    pre_year: int = 2010,
    post_year: int = 2011,
    extra_controls: tuple[str, ...] = (),
) -> SalesTable:
    """Sales table for a treated city with a lottery and an untouched control.

    The k-th of `extra_controls` (k = 1, 2, ...) is one more untouched city
    whose buyers pay 5k% more than the first control's, so its price PMF
    differs from every other city's.  Its rows follow the first control's.
    """
    curve = synth_curve(n_buyers)
    prices = population_prices(n_buyers, curve)
    rows = []
    rows += sales_rows(treated, pre_year, prices)
    rows += sales_rows(treated, post_year, lottery_post_prices(prices, q, sigma, seed, growth))
    for k, city in enumerate((control, *extra_controls)):
        base = grow(prices, 0.05 * k) if k else prices
        rows += sales_rows(city, pre_year, base)
        rows += sales_rows(city, post_year, grow(base, growth) if growth else base)
    return SalesTable.from_rows(rows)


def sales_rows(city: str, year: int, prices: np.ndarray) -> list[tuple]:
    """City-month (city, year, month, price, quantity) rows, units spread over months."""
    support, counts = np.unique(prices, return_counts=True)
    rows = []
    for price, count in zip(support.tolist(), counts.tolist()):
        base, extra = divmod(count, 12)
        for month in range(1, 13):
            qty = base + (1 if month <= extra else 0)
            if qty > 0:
                rows.append((city, year, month, int(price), int(qty)))
    return rows


def write_csv(path, table: SalesTable) -> None:
    columns = (table.city, table.year, table.month, table.price, table.quantity)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("city,year,month,price,quantity\n")
        for code, year, month, price, quantity in zip(*(c.tolist() for c in columns)):
            fh.write(f"{table.cities[code]},{year},{month},{price},{quantity}\n")
