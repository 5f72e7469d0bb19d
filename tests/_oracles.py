"""Independent slow-path oracles used to cross-check the fast implementations."""

from __future__ import annotations

import bisect
import csv
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from diftrans.equilibrium import WtpCurve
from diftrans.errors import ConfigError, EmptyDistributionError, ValidationError
from diftrans.estimators import PLACEBO_QUANTILES
from diftrans.pmf import PricePMF


def lp_transport_cost(a: PricePMF, b: PricePMF, d: int) -> float:
    """Dense transportation LP, solved by an off-the-shelf vertex solver."""
    xa = a.support.astype(np.int64)
    xb = b.support.astype(np.int64)
    na, nb = xa.size, xb.size
    cost = (np.abs(xa[:, None] - xb[None, :]) > d).astype(float)
    A_eq = np.zeros((na + nb, na * nb))
    for i in range(na):
        A_eq[i, i * nb : (i + 1) * nb] = 1.0
    for j in range(nb):
        A_eq[na + j, j::nb] = 1.0
    rhs = np.concatenate([a.mass, b.mass])
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=rhs, bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


def brute_dual(a: PricePMF, b: PricePMF, d: int) -> float:
    """Strassen's dual by enumeration: the largest a(A) - b(A^d) over every set A."""
    xa, xb = a.support.tolist(), b.support.tolist()
    ma, mb = a.mass.tolist(), b.mass.tolist()
    best = 0.0
    for size in range(1, len(xa) + 1):
        for chosen in itertools.combinations(range(len(xa)), size):
            near = [j for j, y in enumerate(xb) if any(abs(xa[i] - y) <= d for i in chosen)]
            best = max(best, math.fsum(ma[i] for i in chosen) - math.fsum(mb[j] for j in near))
    return best


def set_value(a: PricePMF, b: PricePMF, d: int, chosen) -> float:
    """a(A) - b(A^d) for the source indices `chosen`; a target is in A^d when its
    nearest chosen source price is within `d`."""
    idx = sorted(chosen)
    if not idx:
        return 0.0
    x = a.support[idx]
    k = np.searchsorted(x, b.support)
    nearest = np.minimum(
        np.abs(b.support - x[np.maximum(k - 1, 0)]),
        np.abs(x[np.minimum(k, x.size - 1)] - b.support),
    )
    return math.fsum(a.mass[idx].tolist()) - math.fsum(b.mass[nearest <= d].tolist())


#: Feasibility tolerance for plan marginals.
MARGINAL_TOL = 1e-10


def indicator_cost(plan) -> float:
    """The mass a `TransportPlan` moves farther than its `d`, summed exactly."""
    return math.fsum(
        m
        for i, j, m in plan.entries
        if abs(int(plan.src_support[i]) - int(plan.tgt_support[j])) > plan.d
    )


def check_feasible(plan, a: PricePMF, b: PricePMF, tol: float = MARGINAL_TOL) -> None:
    """Raise if the plan's marginals deviate from (a, b) beyond `tol`."""
    row = np.zeros(a.support.size)
    col = np.zeros(b.support.size)
    for i, j, m in plan.entries:
        if m <= 0:
            raise ValidationError("nonpositive plan entry")
        row[i] += m
        col[j] += m
    if np.max(np.abs(row - a.mass)) > tol:
        raise ValidationError("plan row sums deviate from source marginal")
    if np.max(np.abs(col - b.mass)) > tol:
        raise ValidationError("plan column sums deviate from target marginal")


def strassen_certificate(a: PricePMF, b: PricePMF, d: int) -> tuple[set[int], float]:
    """Strassen's (1965) dual set certificate: the largest a(A) - b(A^d), and
    a set A of source indices attaining it.

    `A^d` is the set of targets within `d` of `A`.  By strong duality on
    finite spaces the maximum equals `ot_cost(a, b, d)`, which the solver
    reaches by other arithmetic.  Because the windows `[lo_i, hi_i)` of
    targets within `d` of each source are monotone, filling the gap between
    two chosen sources whose windows overlap never lowers the value, so some
    optimal `A` is a union of blocks of consecutive sources whose
    neighbourhoods are disjoint.  Block `s..e` is worth
    `SA[e+1] - SA[s] - (SB[hi_e] - SB[lo_s])`, exactly when its windows chain
    together and as a lower bound otherwise.  With `P[s]` the best value of
    blocks ending before source `s`,

        P[e+1] = max(P[e], SA[e+1] - SB[hi_e] + max_{s<=e}(P[s] - SA[s] + SB[lo_s]))

    is one left-to-right scan that also records where each block starts.
    The windows are found by `bisect` on Python integers, so no bandwidth
    can overflow; when no set has a positive value the set is empty.
    """
    tgt = b.support.tolist()
    sa = list(itertools.accumulate(a.mass.tolist(), initial=0.0))
    sb = list(itertools.accumulate(b.mass.tolist(), initial=0.0))
    best = 0.0
    # Where the block ending at each source starts, or -1 when the best sets
    # among the sources up to it do not end there.
    block_start = []
    run = -math.inf
    run_start = 0
    for e, x in enumerate(a.support.tolist()):
        passed = sb[bisect.bisect_left(tgt, x - d)]
        reach = sb[bisect.bisect_right(tgt, x + d)]
        opened = best - sa[e] + passed
        if opened > run:
            run, run_start = opened, e
        value = sa[e + 1] - reach + run
        if value > best:
            best = value
            block_start.append(run_start)
        else:
            block_start.append(-1)
    chosen: set[int] = set()
    e = len(block_start)
    while e > 0:
        s = block_start[e - 1]
        if s < 0:
            e -= 1
        else:
            chosen.update(range(s, e))
            e = s
    return chosen, best


def per_source_cost_columns(lo: np.ndarray, hi: np.ndarray, A: np.ndarray, B: np.ndarray):
    """The column kernel's level recurrence one source at a time: seven numpy
    calls per source on (G, R) int64 arrays, gathering each source's window
    sums alone.  Same contract as `transport._cost_columns`.  It keeps the
    clamped form `take = min(max(SB[hi_i] - level, 0), a_i)` on purpose,
    where the kernel drops the clamp by the invariant `L_i <= SB[hi_i]`, so
    it stays an independent reference for the kernel's two-line form."""
    sb = np.zeros((B.shape[0] + 1, B.shape[1]), dtype=np.int64)
    np.cumsum(B, axis=0, out=sb[1:])
    level = np.zeros((lo.shape[1], A.shape[1]), dtype=np.int64)
    cost = np.zeros_like(level)
    take = np.empty_like(level)
    for ai, lo_i, hi_i in zip(A, lo, hi):
        np.maximum(level, sb[lo_i], out=level)
        np.subtract(sb[hi_i], level, out=take)
        np.maximum(take, 0, out=take)
        np.minimum(take, ai, out=take)
        level += take
        np.subtract(ai, take, out=take)
        cost += take
    return cost.T


def fraction_cost(a: PricePMF, b: PricePMF, d: int) -> Fraction:
    """`ot_cost(a, b, d)` as an exact rational: the level recurrence of the
    `transport` docstring on `Fraction` masses `count / n`, with each
    window found by `bisect` on Python integers.  Like
    `per_source_cost_columns`, it keeps the clamped `take` on purpose, as a
    reference independent of the invariant that lets the package drop it."""
    tgt = b.support.tolist()
    sb = list(itertools.accumulate((Fraction(c, b.n) for c in b.counts.tolist()), initial=Fraction(0)))
    level = cost = Fraction(0)
    for x, count in zip(a.support.tolist(), a.counts.tolist()):
        ai = Fraction(count, a.n)
        level = max(level, sb[bisect.bisect_left(tgt, x - d)])
        take = min(max(sb[bisect.bisect_right(tgt, x + d)] - level, Fraction(0)), ai)
        level += take
        cost += ai - take
    return cost


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


def random_pmf(
    rng: np.random.Generator,
    max_points: int = 6,
    max_price: int = 1000,
    min_points: int = 1,
) -> PricePMF:
    """100 units on 1 to `max_points` prices below `max_price`, drawn as
    multinomial counts of a Dirichlet mass vector; some prices may hold none."""
    k = int(rng.integers(min_points, max_points + 1))
    support = np.sort(rng.choice(max_price, size=k, replace=False))
    return PricePMF(support, rng.multinomial(100, rng.dirichlet(np.ones(k))))


def sparse_counts(rng: np.random.Generator, k: int, zero_share: float) -> np.ndarray:
    """Counts in 1..999 on k prices, about `zero_share` of them zeroed, at least one unit."""
    counts = rng.integers(1, 1000, size=k)
    counts[rng.random(k) < zero_share] = 0
    counts[rng.integers(k)] += 1
    return counts


def replicate_pair(base: PricePMF, n_pre: int, n_post: int, seed: int, rep: int):
    """Placebo replicate `rep` as two PMFs: multinomial resamples of `base` of
    sizes `n_pre` and `n_post`, from the stream keyed by (seed, rep)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, rep)))
    pre = PricePMF(base.support, rng.multinomial(n_pre, base.mass))
    return pre, PricePMF(base.support, rng.multinomial(n_post, base.mass))


def placebo_summary(costs) -> tuple:
    """Mean, sd and quantiles of one placebo column of exact `Fraction`
    costs: the mean of the rationals rounded once, the rest by 1-D
    reductions of the costs rounded to floats."""
    col = np.array([float(c) for c in costs])
    sd = float(np.std(col, ddof=1)) if col.size > 1 else 0.0
    mean = float(sum(costs) / len(costs))
    return mean, sd, tuple(float(q) for q in np.quantile(col, PLACEBO_QUANTILES))


def subsample_draw(sides, cfg, k: int) -> list[PricePMF]:
    """Subsample draw `k` of every side as PMFs: `cfg.size_for(n)` units drawn
    without replacement from the side's units, from the stream keyed by
    (seed, k, side index)."""
    draws = []
    for side, pmf in enumerate(sides):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, k, side)))
        b = cfg.size_for(pmf.n)
        draws.append(PricePMF(pmf.support, rng.multivariate_hypergeometric(pmf.counts, b)))
    return draws


def random_curve(rng: np.random.Generator, market_size: float = 700_000.0):
    """Random strictly decreasing piecewise-linear valuation schedule."""
    k = int(rng.integers(2, 12))
    interior = np.sort(rng.uniform(0.0, market_size, size=k - 1))
    volumes = np.concatenate([[0.0], interior, [market_size]])
    drops = rng.uniform(0.05, 1.0, size=volumes.size - 1)
    values = np.concatenate([[0.0], np.cumsum(drops[::-1])])[::-1]
    values = values / values[0] * rng.uniform(50_000.0, 500_000.0)
    return WtpCurve(volumes, values)


def scalar_inversion(cfg, curve, s: float):
    """The market inversion of one share by scalar reads of the schedule:
    (v_seller, v_buyer, p, t, gross, tc_total, net, tc_share), or None where
    0 < s <= s_notc and z <= s fail.  Gross gains are the trapezoid over the
    sorted distinct knots of the demand-supply gap."""
    if not (0.0 < s <= cfg.s_notc and cfg.z <= s):
        return None
    pool = cfg.N - cfg.q * (1.0 - cfg.z)
    v_seller = 0.0 if cfg.z > 0.0 and cfg.z == s else inverse_cdf(curve, s)
    v_buyer = inverse_cdf(curve, 1.0 - s * cfg.q / pool)
    p, t = 0.5 * (v_seller + v_buyer), 0.5 * (v_buyer - v_seller)
    M, zq, sq = curve.market_size, cfg.z * cfg.q, s * cfg.q
    frac = curve.volumes / M
    knots = [np.array([0.0, zq, sq]), frac * pool]
    span = (s - cfg.z) * cfg.q / s
    if s > cfg.z:
        knots.append(zq + (1.0 - frac) * span)
    u = np.unique(np.clip(np.concatenate(knots), 0.0, sq))
    buyers = np.interp(u / pool * M, curve.volumes, curve.values)
    sellers = np.zeros_like(u)
    if s > cfg.z:
        sellers = np.interp(M * (1.0 - np.clip((u - zq) / span, 0.0, 1.0)), curve.volumes, curve.values)
    gross = float(np.trapezoid(buyers - sellers, u))
    tc_total = 2.0 * t * s * cfg.q
    return v_seller, v_buyer, p, t, gross, tc_total, gross - tc_total, tc_total / gross if gross > 0.0 else 0.0


def uniform_curve(market_size: float, v_max: float):
    """Linear schedule whose valuation CDF is uniform on [0, v_max]."""
    return WtpCurve(np.array([0.0, market_size]), np.array([float(v_max), 0.0]))


def cdf(curve, v) -> float:
    """Share of the market valuing a license at most `v` (clamped outside)."""
    if v <= 0.0:
        return 0.0
    if v >= curve.v_max:
        return 1.0
    inv = np.interp(v, curve.values[::-1], curve.volumes[::-1])
    return 1.0 - float(inv) / curve.market_size


def inverse_cdf(curve, share: float) -> float:
    """Valuation at which the CDF reaches `share`: the schedule read at
    market volume M (1 - share), by one scalar `np.interp`."""
    if not 0.0 <= share <= 1.0:
        raise ValidationError(f"share must be in [0, 1], got {share}")
    return float(np.interp(curve.market_size * (1.0 - share), curve.volumes, curve.values))


def density(curve, v: float) -> float:
    """Slope of the valuation CDF at `v` (piecewise constant, right-continuous)."""
    if not 0.0 <= v <= curve.v_max:
        raise ValidationError(f"valuation {v} outside [0, {curve.v_max}]")
    return float(curve._density(np.array([v]))[0])


def demand(cfg, curve, p: float, t: float) -> float:
    """Buyers willing to pay the price plus their half of the transaction cost."""
    return (cfg.N - cfg.q * (1.0 - cfg.z)) * (1.0 - cdf(curve, p + t))


def supply(cfg, curve, p: float, t: float, s: float | None = None) -> float:
    """Winners willing to sell at the price net of their half of the cost.

    Speculators supply their whole allotment at any nonnegative net price, so
    with z > 0 the curve has a flat segment of height z*q; `s` scales the
    remaining winners' segment and is unused when z = 0.
    """
    if cfg.z == 0.0:
        return cfg.q * cdf(curve, p - t)
    if s is None or s <= 0.0:
        raise ConfigError("supply with speculators needs the trade share s > 0")
    if cfg.z > s:
        raise ConfigError(f"speculator share exceeds trade share: z={cfg.z} > s={s}")
    return cfg.z * cfg.q + (s - cfg.z) / s * cfg.q * cdf(curve, p - t)


def clear_share(cfg, curve, p: float, t: float) -> float:
    """Trade share implied by market clearing at the given price and wedge.

    Read off the demand side, which pins the share even with speculators
    (their supply segment scales with the share itself).
    """
    return demand(cfg, curve, p, t) / cfg.q


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


def dict_loop_pmf(rows, city, period_filter=None) -> PricePMF:
    """Price PMF of the `rows` of `city`, one label or a tuple of labels
    pooled, by one pass that sums quantities per price in a dict."""
    labels = {city} if isinstance(city, str) else set(city)
    totals: dict[int, int] = {}
    for label, year, month, price, quantity in rows:
        if label not in labels:
            continue
        if period_filter is not None and not admits(period_filter, year, month):
            continue
        totals[price] = totals.get(price, 0) + quantity
    if sum(totals.values()) == 0:
        raise EmptyDistributionError(f"no units for city {city!r} in the requested periods")
    support = np.array(sorted(totals), dtype=np.int64)
    return PricePMF(support, np.array([totals[p] for p in support], dtype=np.int64))
