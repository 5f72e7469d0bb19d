"""Independent slow-path oracles used to cross-check the fast implementations."""

from __future__ import annotations

import csv

import numpy as np
from scipy.optimize import linprog

from diftrans.errors import EmptyDistributionError
from diftrans.pmf import PricePMF


def lp_transport_cost(a: PricePMF, b: PricePMF, d: int, lam: float = 0.0) -> float:
    """Dense transportation LP, solved by an off-the-shelf vertex solver."""
    xa = a.support.astype(np.int64)
    xb = b.support.astype(np.int64)
    na, nb = xa.size, xb.size
    dist = np.abs(xa[:, None] - xb[None, :]).astype(float)
    cost = (dist > d).astype(float) + lam * dist
    A_eq = np.zeros((na + nb, na * nb))
    for i in range(na):
        A_eq[i, i * nb : (i + 1) * nb] = 1.0
    for j in range(nb):
        A_eq[na + j, j::nb] = 1.0
    rhs = np.concatenate([a.mass, b.mass])
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=rhs, bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


def brute_2x2_cost(a: PricePMF, b: PricePMF, d: int) -> float:
    """Enumerate the one-parameter family of 2x2 couplings at its endpoints."""
    assert len(a) == 2 and len(b) == 2
    a1, a2 = a.mass
    b1, b2 = b.mass
    lo = max(0.0, a1 - b2)
    hi = min(a1, b1)
    cost = np.array(
        [
            [float(abs(a.support[i] - b.support[j]) > d) for j in (0, 1)]
            for i in (0, 1)
        ]
    )

    def value(g11):
        g12 = a1 - g11
        g21 = b1 - g11
        g22 = a2 - g21
        gamma = np.array([[g11, g12], [g21, g22]])
        return float(np.sum(gamma * cost))

    return min(value(lo), value(hi))


def half_l1(a: PricePMF, b: PricePMF) -> float:
    """Total variation distance computed on the union support."""
    union = np.union1d(a.support, b.support)
    ma = np.zeros(union.size)
    mb = np.zeros(union.size)
    ma[np.searchsorted(union, a.support)] = a.mass
    mb[np.searchsorted(union, b.support)] = b.mass
    return 0.5 * float(np.abs(ma - mb).sum())


def project_simplex_reference(y: np.ndarray) -> np.ndarray:
    """Bisection on the shift parameter; independent of the sort algorithm."""
    lo = float(np.min(y)) - 1.0
    hi = float(np.max(y))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(y - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(y - 0.5 * (lo + hi), 0.0)


def random_pmf(
    rng: np.random.Generator,
    max_points: int = 6,
    max_price: int = 1000,
    min_points: int = 1,
) -> PricePMF:
    k = int(rng.integers(min_points, max_points + 1))
    support = np.sort(rng.choice(max_price, size=k, replace=False))
    mass = rng.dirichlet(np.ones(k))
    return PricePMF(support, mass, 100)


def random_curve(rng: np.random.Generator, market_size: float = 700_000.0):
    """Random strictly decreasing piecewise-linear valuation schedule."""
    from diftrans.equilibrium import WtpCurve

    k = int(rng.integers(2, 12))
    interior = np.sort(rng.uniform(0.0, market_size, size=k - 1))
    volumes = np.concatenate([[0.0], interior, [market_size]])
    drops = rng.uniform(0.05, 1.0, size=volumes.size - 1)
    values = np.concatenate([[0.0], np.cumsum(drops[::-1])])[::-1]
    values = values / values[0] * rng.uniform(50_000.0, 500_000.0)
    return WtpCurve(volumes, values)


def table_rows(table) -> list[tuple]:
    """A sales table as (city, year, month, price, quantity) tuples of Python values."""
    columns = (table.year, table.month, table.price, table.quantity)
    return [
        (table.cities[code], *values)
        for code, *values in zip(table.city.tolist(), *(c.tolist() for c in columns))
    ]


def _integer(cell: str) -> int:
    """Exact value of an integer cell; integral floats such as `5.0` go through float."""
    try:
        return int(cell)
    except ValueError:
        return int(float(cell))


def csv_rows(path) -> list[tuple]:
    """Plain `csv` loop over a canonical sales file: integer cells, blank rows skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [
            (row[0].strip(), *(_integer(cell) for cell in row[1:5]))
            for row in reader
            if any(cell.strip() for cell in row)
        ]


def admits(period_filter, year: int, month: int) -> bool:
    """Period rule on (year, month) tuples: in an include range and not excluded."""
    ym = (year, month)
    if ym in period_filter.exclude:
        return False
    return not period_filter.include or any(lo <= ym <= hi for lo, hi in period_filter.include)


def dict_loop_pmf(rows, city: str, period_filter=None) -> PricePMF:
    """Price PMF of `rows` by one pass that sums quantities per price in a dict."""
    totals: dict[int, int] = {}
    for label, year, month, price, quantity in rows:
        if label != city:
            continue
        if period_filter is not None and not admits(period_filter, year, month):
            continue
        totals[price] = totals.get(price, 0) + quantity
    grand_total = sum(totals.values())
    if grand_total == 0:
        raise EmptyDistributionError(f"no units for city {city!r} in the requested periods")
    support = np.array(sorted(totals), dtype=np.int64)
    counts = np.array([totals[p] for p in support], dtype=np.int64)
    return PricePMF(support, counts / grand_total, grand_total)
