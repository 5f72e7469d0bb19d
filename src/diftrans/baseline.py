"""Difference-in-differences log-price regression used as a sanity benchmark."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class DidResult:
    """Coefficients of the saturated 2x2 log-price design with classical SEs.

    alpha3 is the interaction term: the treated city's post-period log-price
    jump net of the control group's jump.
    """

    alpha0: float
    alpha1: float
    alpha2: float
    alpha3: float
    se: tuple[float, float, float, float]
    n_obs: int
    r2: float


def did_ols(treated, post, price, weight=None) -> DidResult:
    """Weighted OLS of log price on treated, post, and their interaction.

    The design is saturated, so the coefficients are exactly the weighted
    cell means of log price and their differences.  Standard errors are
    classical homoskedastic ones under the frequency-weight convention, in
    closed form: a cell mean of weight W has variance sigma^2 / W.
    `weight` is each observation's frequency, such as its unit count; without
    it every observation counts once.
    """
    treated = np.asarray(treated, dtype=bool)
    post = np.asarray(post, dtype=bool)
    price = np.asarray(price, dtype=np.float64)
    if weight is None:
        w = np.ones(price.shape, dtype=np.float64)
    else:
        w = np.asarray(weight, dtype=np.float64)
    if not (treated.shape == post.shape == price.shape == w.shape):
        raise ValidationError("treated, post, price, and weight must have equal length")
    for name, values in (("price", price), ("weight", w)):
        if not np.isfinite(values).all():
            raise ValidationError(f"non-finite {name}")
    if np.any(w < 0):
        raise ValidationError("negative weight")
    keep = w > 0
    treated, post, price, w = treated[keep], post[keep], price[keep], w[keep]
    if price.size == 0:
        raise ValidationError("no observations with positive weight")
    if np.any(price <= 0):
        raise ValidationError("nonpositive price; log requires positive prices")

    y = np.log(price)
    cell_w = np.zeros((2, 2))
    cell_sum = np.zeros((2, 2))
    for ti in (0, 1):
        for pi in (0, 1):
            sel = (treated == bool(ti)) & (post == bool(pi))
            cell_w[ti, pi] = w[sel].sum()
            cell_sum[ti, pi] = (w[sel] * y[sel]).sum()
    if np.any(cell_w == 0):
        raise ValidationError("design singular: one of the four cells is empty")
    mean = cell_sum / cell_w

    alpha0 = mean[0, 0]
    alpha1 = mean[1, 0] - mean[0, 0]
    alpha2 = mean[0, 1] - mean[0, 0]
    alpha3 = (mean[1, 1] - mean[1, 0]) - (mean[0, 1] - mean[0, 0])

    resid = y - mean[treated.astype(np.intp), post.astype(np.intp)]
    rss = float(np.sum(w * resid**2))
    w_total = float(w.sum())
    ybar = float(np.sum(w * y)) / w_total
    tss = float(np.sum(w * (y - ybar) ** 2))
    dof = w_total - 4.0
    if dof > 0:
        v = rss / dof / cell_w
        se = tuple(math.sqrt(x) for x in (v[0, 0], v[0, 0] + v[1, 0], v[0, 0] + v[0, 1], v.sum()))
    else:
        se = (math.nan,) * 4
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    return DidResult(
        float(alpha0),
        float(alpha1),
        float(alpha2),
        float(alpha3),
        se,
        int(round(w_total)),
        float(r2),
    )
