"""Subsampling confidence intervals for trade-share estimators.

The estimators sit on the boundary of a partially identified set (they are
lower bounds), where the naive bootstrap is unreliable; b-out-of-n subsampling
without replacement is the standard remedy.  Units are individual registered
cars, resampled through the quantity-weighted support via multivariate
hypergeometric draws so the expansion is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DiftransError, ValidationError
from .pmf import PricePMF


@dataclass(frozen=True)
class SubsampleConfig:
    """Draw count, subsample size rule, coverage level, and seed.

    The subsample size is the explicit `b` when given, else
    floor(block_fraction * n), else the default floor(n^0.7), evaluated per
    data side.
    """

    n_draws: int = 200
    b: int | None = None
    block_fraction: float | None = None
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_draws < 1:
            raise ValidationError("n_draws must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.b is not None and self.b < 1:
            raise ValidationError(f"subsample size must be at least 1, got {self.b}")
        if self.block_fraction is not None and not 0.0 < self.block_fraction < 1.0:
            raise ValidationError("block_fraction must lie strictly inside (0, 1)")
        if self.b is not None and self.block_fraction is not None:
            raise ValidationError("give either b or block_fraction, not both")

    def size_for(self, n: int) -> int:
        if self.b is not None:
            if self.b >= n:
                raise ConfigError(f"subsample size b={self.b} must be below n={n}")
            return self.b
        if self.block_fraction is not None:
            return max(1, int(self.block_fraction * n))
        b = int(n**0.7)
        if b >= n:
            raise ConfigError(f"cannot subsample below a sample of size {n}")
        return max(1, b)


@dataclass(frozen=True)
class SubsampleResult:
    point: float
    lower: float
    upper: float
    draws: np.ndarray

    @property
    def n_failed(self) -> int:
        """Draws whose transform failed, stored as NaN."""
        return int(np.count_nonzero(np.isnan(self.draws)))


def _resample(support, counts, b: int, rng: np.random.Generator) -> PricePMF:
    """PMF of `b` units drawn without replacement from `counts` units on `support`."""
    drawn = rng.multivariate_hypergeometric(counts, b)
    return PricePMF(support, drawn / b, b)


def subsample_ci(
    pre: PricePMF,
    post: PricePMF,
    estimator,
    cfg: SubsampleConfig,
    control: tuple[PricePMF, PricePMF] | None = None,
    transform=None,
) -> SubsampleResult:
    """Percentile interval from b-out-of-n subsample draws of the estimator.

    `estimator` maps (pre, post) PMFs to a float, or (pre, post, control_pre,
    control_post) when `control` is given; every side is subsampled
    independently with its own replicate-keyed stream, so results are
    reproducible for a fixed seed whatever the order of evaluation.
    `transform` optionally maps each raw estimate (for example through the
    market inversion).  Draws where it raises a `DiftransError` (for example a
    share the market model cannot support) are recorded as NaN and excluded
    from the quantiles; on the full-sample point the error propagates, since
    an interval around a point that does not exist means nothing.  Any other
    exception propagates.
    """
    sides = [pre, post] + (list(control) if control is not None else [])
    sizes = [cfg.size_for(p.n) for p in sides]
    counts = [p.counts() for p in sides]

    def transformed(value):
        return float(value if transform is None else transform(value))

    point = transformed(estimator(*sides))
    draws = np.empty(cfg.n_draws)

    for k in range(cfg.n_draws):
        resampled = []
        for side_index, (pmf, units, b) in enumerate(zip(sides, counts, sizes)):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(cfg.seed, k, side_index))
            )
            resampled.append(_resample(pmf.support, units, b, rng))
        value = estimator(*resampled)
        try:
            draws[k] = transformed(value)
        except DiftransError:
            draws[k] = float("nan")

    finite = draws[~np.isnan(draws)]
    if finite.size == 0:
        raise ConfigError("every subsample draw failed the transform")
    lower = float(np.quantile(finite, cfg.alpha / 2))
    upper = float(np.quantile(finite, 1.0 - cfg.alpha / 2))
    return SubsampleResult(point, lower, upper, draws)


def dump_draws(result: SubsampleResult, fh) -> None:
    """CSV of the raw draw vector for external diagnostics."""
    fh.write("draw_index,value\n")
    for k, v in enumerate(result.draws):
        fh.write(f"{k},{'' if math.isnan(v) else repr(float(v))}\n")
