"""Trade-volume estimators built on thresholded transport costs.

The before-and-after estimator reads the displacement between a pre- and a
post-rationing sales distribution as a lower bound on the share of rationed
licenses that changed hands.  The difference-in-transports estimator nets out
a control city's displacement; over-smoothing the treated term with `2d` keeps
the difference a valid in-sample lower bound for every bandwidth.

`bandwidth_scan` computes both over a bandwidth grid, with the placebo
summaries and the equal-displacement (trends) curves.  One rule,
`BandwidthScan.select`, reads the bandwidth off either scan: the most
informative `d` at or above the noise floor, where placebo resamples of the
post distribution (the one base of both estimators) show a negligible
displacement, and the trends floor.  The before-and-after estimate is that
rule with no control pair.

Every transport cost of a scan comes from one `transport._sweep`: its pairs
and placebo replicates are the columns of one kernel pass per block, lifted
with zero counts onto shared supports.  Each cost is an exact rational
rounded once, so it is `ot_cost`'s (see `transport`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SelectionError, ValidationError
from .pmf import PricePMF
from .streams import keyed_streams
from .transport import _check_bandwidth, _is_integer, _is_real, _sweep, ot_cost

#: Quantile levels of each placebo column, `ScanRow.placebo_quantiles`.
PLACEBO_QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)
#: Default placebo-mean threshold of the noise floor.
PLACEBO_THRESHOLD = 0.0005
#: Default tolerance of the equal-displacement (trends) floor.
DISPLACEMENT_TAU = 0.005


@dataclass(frozen=True)
class PlaceboConfig:
    """Resampling settings for placebo transport costs."""

    n_sims: int = 500
    seed: int = 0

    def __post_init__(self):
        for name in ("n_sims", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.n_sims < 1:
            raise ValidationError("n_sims must be at least 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")


def _check_grid(grid) -> list[int]:
    grid = [_check_bandwidth(d) for d in grid]
    if not grid:
        raise ValidationError("bandwidth grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("bandwidth grid must be strictly ascending")
    return grid


def diff_in_transports(
    b_pre: PricePMF,
    b_post: PricePMF,
    c_pre: PricePMF,
    c_post: PricePMF,
    d: int,
) -> float:
    """Treated displacement at `2d` minus control displacement at `d`.

    The doubled bandwidth on the treated term makes the difference a lower
    bound in sample for every `d`.  Negative values are reported as-is: they
    flag a control displacement exceeding the treated one.
    """
    d = _check_bandwidth(d)
    return ot_cost(b_pre, b_post, 2 * d) - ot_cost(c_pre, c_post, d)


@dataclass(frozen=True)
class ScanRow:
    d: int
    real_cost: float
    placebo_mean: float
    placebo_sd: float
    placebo_quantiles: tuple[float, ...]
    dit_value: float | None = None


@dataclass(frozen=True)
class Selection:
    """`BandwidthScan.select`'s bandwidth `d_star`, the estimate there, and the
    floors under it; `placebo_d` and `displacement_d` are None for an
    explicit `d_min`."""

    d_star: int
    value: float
    placebo_d: int | None
    displacement_d: int | None
    d_min: int


@dataclass(frozen=True)
class BandwidthScan:
    """Real, placebo, and optional difference-in-transports costs per bandwidth,
    and, for a scan run with `trends`, the trends curves: rows
    (d, first pair's cost, second pair's cost, difference)."""

    rows: tuple[ScanRow, ...]
    trends: tuple[tuple[int, float, float, float], ...] | None = None

    def __post_init__(self):
        if not self.rows:
            raise ValidationError("a scan needs at least one row")
        if self.trends is not None and not self.trends:
            raise ValidationError("trends curves need at least one row")
        ds = [row.d for row in self.rows]
        if any(b <= a for a, b in zip(ds, ds[1:])):
            raise ValidationError("scan rows must be sorted by ascending d")
        costs = [row.real_cost for row in self.rows]
        if any(b > a for a, b in zip(costs, costs[1:])):
            raise ValidationError("real cost must be nonincreasing in d")
        if len({row.dit_value is None for row in self.rows}) > 1:
            raise ValidationError("scan rows must all carry a dit value or none")

    def select(
        self,
        threshold: float = PLACEBO_THRESHOLD,
        tau: float = DISPLACEMENT_TAU,
        d_min: int | None = None,
    ) -> Selection:
        """The most informative bandwidth at or above `d_min`: the largest
        estimate there, ties toward the smaller `d`.  The estimate is the
        DiT value of a scan with a control pair and the real cost otherwise.
        The real cost does not rise with `d`, so its first admissible row is
        taken.

        An explicit `d_min` is checked as any bandwidth is.  Without one it
        is the larger of two floors.  The noise floor is the smallest
        scanned `d` whose placebo mean is strictly below `threshold`; the
        default 0.05% makes sampling noise invisible at one-decimal
        percentage precision.  The trends floor is the smallest scanned `d`
        from which the trends curves' |difference| stays below `tau`, or 0
        for a scan without them.  Both levels must be finite nonnegative
        numbers, whether or not a floor reads them.
        """
        for name, level in (("threshold", threshold), ("tau", tau)):
            if not (_is_real(level) and math.isfinite(level) and level >= 0):
                raise ValidationError(f"{name} must be a finite nonnegative number, got {level!r}")
        placebo_d = displacement_d = None
        if d_min is None:
            placebo_d = self._noise_floor(threshold)
            displacement_d = 0 if self.trends is None else self._trends_floor(tau)
            d_min = max(placebo_d, displacement_d)
        else:
            d_min = _check_bandwidth(d_min)
        admissible = [row for row in self.rows if row.d >= d_min]
        if not admissible:
            raise SelectionError(f"no scan row at or above d_min={d_min}")
        if admissible[0].dit_value is None:
            best, value = admissible[0], admissible[0].real_cost
        else:
            best = max(admissible, key=lambda row: (row.dit_value, -row.d))
            value = best.dit_value
        return Selection(best.d, value, placebo_d, displacement_d, d_min)

    def _noise_floor(self, threshold: float) -> int:
        for row in self.rows:
            if row.placebo_mean < threshold:
                return row.d
        best = min(self.rows, key=lambda row: row.placebo_mean)
        raise SelectionError(
            f"no bandwidth in the grid has placebo cost below {threshold}; "
            f"minimum placebo mean is {best.placebo_mean:.6g} at d={best.d}"
        )

    def _trends_floor(self, tau: float) -> int:
        floor = None
        for d, _, _, diff in reversed(self.trends):
            if abs(diff) < tau:
                floor = d
            else:
                break
        if floor is None:
            worst = min(abs(diff) for _, _, _, diff in self.trends)
            raise SelectionError(
                f"displacement difference never settles below {tau}; "
                f"smallest |difference| is {worst:.6g}"
            )
        return floor


def bandwidth_scan(
    pre: PricePMF,
    post: PricePMF,
    grid: list[int],
    cfg: PlaceboConfig,
    control: tuple[PricePMF, PricePMF] | None = None,
    trends: tuple[PricePMF, PricePMF, PricePMF, PricePMF] | None = None,
) -> BandwidthScan:
    """Scan real and placebo costs over a bandwidth grid.

    Placebo replicate `rep` is two independent multinomial resamples of the
    post distribution at the observed sample sizes (`pre.n`, `post.n`), from
    a stream keyed by (seed, rep), so results do not depend on execution
    order or batching, and draws are shared across bandwidths.  The post
    distribution is the one base of both estimators: a scan with a control
    pair resamples the treated post, as one without resamples its post.
    The streams are seeded in one pass over all replicates (see `streams`)
    and match `default_rng(SeedSequence(entropy=(seed, rep)))` bit for bit.
    With `control` supplied, each row also carries the
    difference-in-transports value at that bandwidth.  With `trends` =
    (a_pre, a_post, b_pre, b_post) the scan also holds the trends curves:
    the displacement of both pairs at the same `d`, unlike the estimator
    itself, and their difference.  Every cost comes from one sweep over the
    grid (and its doubles).
    """
    grid = _check_grid(grid)
    pairs = [(pre, post)] + ([] if control is None else [control])
    if trends is not None:
        pairs += [trends[:2], trends[2:]]
    n = len(pairs)
    ds = grid if control is None else sorted(set(grid) | {2 * d for d in grid})

    stream = keyed_streams(cfg.seed, (cfg.n_sims,))

    def column(r):
        # The pairs lead the sweep's columns; replicate r - n follows, drawn
        # from its (seed, rep) stream straight into its column as counts.
        if r < n:
            a, b = pairs[r]
            return r, a.counts, b.counts, a.n, b.n
        rng = stream(r - n)
        a = rng.multinomial(pre.n, post.mass)
        return n, a, rng.multinomial(post.n, post.mass), pre.n, post.n

    cost, scale = _sweep(pairs + [(post, post)], ds, n + cfg.n_sims, column)
    # Per bandwidth, the cost of each pair.
    at = dict(zip(ds, (cost[:n] / scale[:n, None]).T.tolist()))
    index = {d: col for col, d in enumerate(ds)}
    # Per grid bandwidth, the replicates' numerators over pre.n * post.n: the mean
    # is their exact sum divided once, and the sd reduces contiguous rows.
    numerators = cost[n:, [index[d] for d in grid]].T
    total = cfg.n_sims * pre.n * post.n
    mean = [sum(row) / total for row in numerators.tolist()]
    placebo = np.divide(numerators, pre.n * post.n, order="C")
    sd = placebo.std(axis=1, ddof=1).tolist() if cfg.n_sims > 1 else [0.0] * len(grid)
    qs = np.quantile(placebo, PLACEBO_QUANTILES, axis=1).T.tolist()
    rows = []
    for col, d in enumerate(grid):
        # `diff_in_transports`: the treated pair at 2d minus the control pair at d.
        dit = None if control is None else at[2 * d][0] - at[d][1]
        rows.append(ScanRow(d, at[d][0], mean[col], sd[col], tuple(qs[col]), dit))
    curves = None
    if trends is not None:
        curves = tuple((d, at[d][-2], at[d][-1], at[d][-2] - at[d][-1]) for d in grid)
    return BandwidthScan(tuple(rows), curves)
