"""Subsampling confidence intervals for trade-share estimators.

The estimators sit on the boundary of a partially identified set (they are
lower bounds), where the naive bootstrap is unreliable; b-out-of-n subsampling
without replacement is the standard remedy.  Units are individual registered
cars, resampled through the quantity-weighted support via multivariate
hypergeometric draws so the expansion is never materialized.  The full sample
and every draw are columns of one `transport._sweep`: per draw, one column
for the treated pair and, for difference in transports, one for the control
pair, each at both bandwidths of the estimator.  A draw's column holds its
integer counts and its subsample sizes, from which the sweep computes each
cost exactly and rounds it once (see `transport`).

Each side of each draw has its own random stream, keyed by (seed, draw,
side): stream `draw * sides + side` of `streams.keyed_streams(seed, (draws,
sides))`.  Building a `SeedSequence` and a `PCG64` per stream cost about as
much as a small draw itself, so the streams' states are computed in array
passes over up to `streams.PASS_KEYS` keys; each stream stays bit for bit the
one NumPy builds from its key.

`subsample_ci` returns an interval of the estimated share.  Every interval
is formed in one place, `SubsampleResult.from_draws`, from the percentiles of
the draws that are not NaN.  A caller that wants an interval of a function of
the share (the price, cost wedge or net gains of the market inversion, as
`ci --map` does) maps the point and the draws itself and forms the interval
there; a draw it cannot map is NaN and left out.

Each side of size n is subsampled at an explicit `b` or at floor(n^0.7).
b-out-of-n subsampling needs b/n to vanish as n grows (Politis, Romano and
Wolf 1999), which a fixed fraction of n never does, so it is no size rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .pmf import PricePMF
from .streams import keyed_streams
from .transport import _check_bandwidth, _is_integer, _sweep


@dataclass(frozen=True)
class SubsampleConfig:
    """Draw count, subsample size, coverage level, and seed.

    Each data side of size n is subsampled at the explicit `b` when given,
    else at floor(n^0.7), whose b/n = n^-0.3 vanishes as n grows; either
    must be below n.
    """

    n_draws: int = 200
    b: int | None = None
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("n_draws", "b", "seed"):
            value = getattr(self, name)
            if not _is_integer(value) and not (name == "b" and value is None):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.n_draws < 1:
            raise ValidationError("n_draws must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.b is not None and self.b < 1:
            raise ValidationError(f"subsample size must be at least 1, got {self.b}")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")

    def size_for(self, n: int) -> int:
        if self.b is not None:
            if self.b >= n:
                raise ConfigError(f"subsample size b={self.b} must be below n={n}")
            return self.b
        b = int(n**0.7)
        if b >= n:
            raise ConfigError(f"cannot subsample below a sample of size {n}")
        return b


@dataclass(frozen=True)
class SubsampleResult:
    point: float
    lower: float
    upper: float
    draws: np.ndarray

    @classmethod
    def from_draws(cls, point: float, draws, alpha: float) -> "SubsampleResult":
        """Percentile interval at level `1 - alpha` of the draws that are not NaN.

        NaN marks a draw without a value, such as a share the market model
        cannot invert; it is kept in `draws` and left out of the quantiles.
        """
        draws = np.asarray(draws, dtype=np.float64)
        finite = draws[~np.isnan(draws)]
        if finite.size == 0:
            raise ConfigError("every subsample draw is NaN, so there is no interval")
        lower = float(np.quantile(finite, alpha / 2))
        upper = float(np.quantile(finite, 1.0 - alpha / 2))
        return cls(float(point), lower, upper, draws)

    @property
    def n_failed(self) -> int:
        """Draws without a value, stored as NaN."""
        return int(np.count_nonzero(np.isnan(self.draws)))


def subsample_ci(
    pre: PricePMF,
    post: PricePMF,
    d: int,
    cfg: SubsampleConfig,
    control: tuple[PricePMF, PricePMF] | None = None,
) -> SubsampleResult:
    """Percentile interval from b-out-of-n subsample draws of an estimator at `d`.

    The estimator is the before-and-after displacement of (pre, post), or,
    when `control` is given, the difference in transports (the (pre, post)
    displacement at `2d` minus the control displacement at `d`).  Every side
    is subsampled independently with a stream keyed by (seed, draw, side),
    so results are reproducible for a fixed seed whatever the order of
    evaluation or the blocking.  The full sample and the draws go through
    the transport kernel together, as the columns of one sweep.  Each
    stream is bit for bit `default_rng(SeedSequence(entropy=(seed, draw,
    side)))`, seeded with the others in array passes.
    """
    d = _check_bandwidth(d)
    pairs = [(pre, post)] + ([] if control is None else [control])
    sides = [p for pair in pairs for p in pair]
    sizes = [cfg.size_for(p.n) for p in sides]
    counts = [p.counts for p in sides]
    stream = keyed_streams(cfg.seed, (cfg.n_draws, len(sides)))

    def column(r):
        # Pair i of the full sample for k = 0, of draw k - 1 after it.
        k, i = divmod(r, len(pairs))
        if k == 0:
            a, b = pairs[i]
            return i, a.counts, b.counts, a.n, b.n
        # Each side's counts, from stream (k - 1, side), and its subsample size.
        a, b = (
            stream((k - 1) * len(sides) + side).multivariate_hypergeometric(counts[side], sizes[side])
            for side in (2 * i, 2 * i + 1)
        )
        return i, a, b, sizes[2 * i], sizes[2 * i + 1]

    grid = sorted({d, 2 * d}) if control is not None else [d]
    cost, scale = _sweep(pairs, grid, len(pairs) * (cfg.n_draws + 1), column)
    costs = cost / scale[:, None]
    if control is None:
        values = costs[:, 0]
    else:
        # `diff_in_transports`: the treated pair at 2d minus the control pair at d.
        values = costs[::2, grid.index(2 * d)] - costs[1::2, grid.index(d)]
    return SubsampleResult.from_draws(values[0], values[1:].copy(), cfg.alpha)
