"""Market model inverting an estimated trade volume into prices and costs.

A strictly decreasing willingness-to-pay schedule over a market of N
prospective buyers, of whom q win a license by lottery, yields demand and
supply curves for licenses.  Buyers act when their valuation exceeds the
transaction price plus their half of the transaction cost; sellers when it
falls below the price minus their half.  Given an observed trade share s of
the quota, the marginal buyer and seller valuations are read off the schedule,
which pins down the price, the per-side cost wedge, and the gains from trade.

Every inversion runs through one array core, `invert_shares`, which inverts
a whole vector of shares with no Python loop over them: the marginal
valuations are one `np.interp` each, and the gains are a closed form in the
schedule's prefix areas, read with one `np.searchsorted` and one
`np.interp` per margin, so every solution it returns carries its gains.
A share the model cannot invert gets a NaN row there.  `invert_from_volume`
inverts one share through it and raises instead.  The CLI reads both:
`equilibrium` inverts each share with `invert_from_volume`, and so its
frictionless price, the seller margin at s_notc.  `ci --map` maps a share
interval after inference: the full-sample point through
`invert_from_volume`, so a point the model cannot invert is an error naming
the bound it breaks, and all the draws through one `invert_shares` call,
whose NaN draws the interval leaves out.  Prices, wedges and marginal
valuations are the same floats as a scalar read of the schedule; the gains
add the linear pieces of a trapezoid over the traded volume in another
order, so they can differ from it in the last bits.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleShareError, ParseError, ValidationError
from .pmf import _csv_rows, _read_bytes, _read_only
from .transport import _is_integer, _is_real


@dataclass(frozen=True)
class WtpCurve:
    """Piecewise-linear, strictly decreasing valuation schedule v(n).

    `volumes` runs from 0 to the market size N and `values` from the choke
    valuation down to exactly 0, so the implied valuation CDF is continuous
    and strictly increasing on [0, v_max] with an exact inverse.
    """

    volumes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        volumes = _read_only(self.volumes, np.float64)
        values = _read_only(self.values, np.float64)
        object.__setattr__(self, "volumes", volumes)
        object.__setattr__(self, "values", values)
        if volumes.ndim != 1 or volumes.shape != values.shape or volumes.size < 2:
            raise ValidationError("curve needs at least two (volume, value) knots")
        if not (np.all(np.isfinite(volumes)) and np.all(np.isfinite(values))):
            raise ValidationError("curve knots must be finite")
        if volumes[0] != 0.0:
            raise ValidationError("curve must start at volume 0")
        if np.any(np.diff(volumes) <= 0):
            raise ValidationError("volumes must be strictly increasing")
        if values[-1] != 0.0:
            raise ValidationError("valuation at the full market size must be 0")
        if np.any(values < 0):
            raise ValidationError("negative valuation")
        if np.any(np.diff(values) >= 0):
            raise ValidationError(
                "values must be strictly decreasing; load with strictify=True "
                "to perturb ties"
            )

    @property
    def market_size(self) -> float:
        return float(self.volumes[-1])

    @property
    def v_max(self) -> float:
        return float(self.values[0])

    @classmethod
    def from_knots(cls, knots, strictify: bool = False) -> "WtpCurve":
        vols = np.array([k[0] for k in knots], dtype=np.float64)
        vals = np.array([k[1] for k in knots], dtype=np.float64)
        if strictify and vals.size:
            eps = 1e-6 * float(np.max(vals))
            for i in range(vals.size - 2, -1, -1):
                if vals[i] <= vals[i + 1]:
                    vals[i] = vals[i + 1] + eps
        return cls(vols, vals)

    @classmethod
    def from_csv(cls, path, strictify: bool = False) -> "WtpCurve":
        """Load knots from a CSV with header `n,v` and ascending n.

        A leading UTF-8 byte-order mark is no part of the header.  `path`
        names the file, or is a binary file object, read from where it
        stands to its end; messages then name the object's `name`.  The
        bytes are read once and decoded whole, so a caller that must know
        which bytes were parsed (say, to record their digest, as the CLI
        does) reads them first and passes them as an `io.BytesIO`.
        """
        data, path = _read_bytes(path)
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text") from None
        reader = _csv_rows(csv.reader(io.StringIO(text, newline="")), path)
        header = [h.strip().lower() for h in next(reader, [])]
        if header[:2] != ["n", "v"]:
            raise ValidationError(f"{path}: expected header 'n,v', got {header}")
        knots = []
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                knots.append((float(row[0]), float(row[1])))
            except (IndexError, ValueError):
                raise ParseError(
                    f"{path}: expected two numbers n,v, got {row}, row {rownum}"
                ) from None
        return cls.from_knots(knots, strictify=strictify)

    def _density(self, v: np.ndarray) -> np.ndarray:
        """The slope of the valuation CDF (piecewise constant, right-continuous)
        at every valuation of `v`, all within [0, v_max]."""
        vals_asc = self.values[::-1]
        vols_desc = self.volumes[::-1]
        k = np.clip(np.searchsorted(vals_asc, v, side="right"), 1, vals_asc.size - 1)
        dv = vals_asc[k] - vals_asc[k - 1]
        dn = vols_desc[k] - vols_desc[k - 1]
        return -dn / dv / self.market_size


@dataclass(frozen=True)
class MarketConfig:
    """Market size, lottery quota, and speculator share of the quota."""

    N: int = 700_000
    q: int = 260_000
    z: float = 0.0

    def __post_init__(self):
        for name in ("N", "q"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.N <= 0 or self.q <= 0:
            raise ValidationError("market size and quota must be positive")
        if self.q >= self.N:
            raise ValidationError("quota must be smaller than the market size")
        if not _is_real(self.z):
            raise ValidationError(f"z must be a real number, got {self.z!r}")
        if not 0.0 <= self.z <= 1.0:
            raise ValidationError(f"speculator share must lie in [0, 1], got {self.z}")

    @property
    def s_notc(self) -> float:
        """Frictionless trade share of the quota; independent of the curve."""
        return (self.N - self.q) / self.N

    @property
    def pool(self) -> float:
        """Buyer pool N - q (1 - z): the market less the winners who are not speculators."""
        return self.N - self.q * (1.0 - self.z)


@dataclass(frozen=True)
class MarketSolution:
    """One inverted scenario: share, price, cost wedge, and gains accounting.

    From `invert_shares` every field is an array over the shares instead.
    """

    s: float
    p: float
    t: float
    v_seller: float
    v_buyer: float
    gross_gains: float = float("nan")
    tc_total: float = float("nan")
    net_gains: float = float("nan")
    tc_share: float = float("nan")


def _supported(cfg: MarketConfig, s: np.ndarray) -> np.ndarray:
    """Which shares the model can invert: 0 < s <= s_notc and z <= s (NaN is not)."""
    return (s > 0.0) & (s <= cfg.s_notc) & (s >= cfg.z)


def _check_share(cfg: MarketConfig, s: float) -> None:
    """Raise the error naming the bound that a share the model cannot invert breaks."""
    if math.isnan(s):
        raise ValidationError(f"trade share must be a number, got {s}")
    if s <= 0.0:
        raise ValidationError(f"trade share must be positive, got {s}")
    if s > cfg.s_notc:
        raise InfeasibleShareError(
            f"trade share {s} exceeds the frictionless maximum s_notc={cfg.s_notc!r}"
        )
    if cfg.z > s:
        raise ConfigError(f"speculator share exceeds trade share: z={cfg.z} > s={s}")


def _check_shares(cfg: MarketConfig, s: np.ndarray) -> None:
    """Raise for the first share of `s` that the model cannot invert."""
    ok = _supported(cfg, s)
    if not ok.all():
        _check_share(cfg, float(s[np.argmin(ok)]))


def _margins(cfg: MarketConfig, curve: WtpCurve, s: np.ndarray):
    """Marginal seller and buyer valuations of supported shares `s`.

    The valuation quantiles F^{-1}(x) = v(M (1 - x)) of the schedule at the
    seller's share s (zero when the whole share is speculator supply) and at
    the buyer's 1 - s q / pool, elementwise.
    """
    M = curve.market_size
    v_seller = np.interp(M * (1.0 - s), curve.volumes, curve.values)
    if cfg.z > 0.0:
        v_seller[s == cfg.z] = 0.0
    v_buyer = np.interp(M * (1.0 - (1.0 - s * cfg.q / cfg.pool)), curve.volumes, curve.values)
    return v_seller, v_buyer


def invert_shares(cfg: MarketConfig, curve: WtpCurve, s) -> MarketSolution:
    """Invert a 1-D array of trade shares at once: the array core of the model.

    Returns a `MarketSolution` whose fields are arrays over the shares, with
    the prices, wedges and gains that `invert_from_volume` gives each share.
    Each share reads the schedule's prefix areas at two points (see
    `_gains`), so time and memory grow with the shares plus the knots.  A
    share the model cannot invert (see `invert_from_volume`), NaN included,
    gets a NaN row instead of an error.
    """
    s = np.asarray(s, dtype=np.float64)
    ok = _supported(cfg, s)
    # Every field after the share starts as NaN.
    sol = MarketSolution(s, *(np.full(s.shape, np.nan) for _ in range(8)))
    s = s[ok]
    v_seller, v_buyer = _margins(cfg, curve, s)
    t = 0.5 * (v_buyer - v_seller)
    columns = {"p": 0.5 * (v_seller + v_buyer), "t": t, "v_seller": v_seller, "v_buyer": v_buyer}
    columns.update(_gains(cfg, curve, s, t))
    for name, values in columns.items():
        getattr(sol, name)[ok] = values
    return sol


def invert_from_volume(cfg: MarketConfig, curve: WtpCurve, s: float) -> MarketSolution:
    """Recover price and cost wedge from a trade share of the quota.

    Clearing the market at volume s*q pins the marginal seller valuation at
    the s-quantile of the schedule (zero when the whole share is speculator
    supply) and the marginal buyer valuation at the matching demand quantile;
    price and cost are their midpoint and half-gap.  At s_notc with no
    speculators the gap closes: demand (N - q)(1 - F(p)) meets supply q F(p)
    where the valuation CDF F is s_notc, so the seller margin there is the
    frictionless price.  A share outside (0, s_notc], below the speculator
    share or NaN raises an error naming the bound it breaks.  The fields are
    the Python floats of `invert_shares` at the one share.
    """
    _check_share(cfg, s)
    sol = invert_shares(cfg, curve, [s])
    return MarketSolution(*(values.item() for values in vars(sol).values()))


def _gains(cfg: MarketConfig, curve: WtpCurve, s: np.ndarray, t: np.ndarray) -> dict:
    """The gains fields of supported shares and their wedges: the surplus
    area, the cost burden (the full two-sided wedge on every trade) and
    their net.

    Gross gains integrate inverse demand less inverse supply up to the
    traded volume sq.  At traded volume u the marginal buyer sits at
    schedule volume u M / pool and the marginal seller at M (1 - (u - zq) s
    / ((s - z) q)), with valuation zero along the speculators' flat segment
    u <= zq.  Both are linear changes of variable, so with A(x) the area
    under the schedule from 0 to x and B(x) the area from x to M,

        gross = pool / M * A(s q M / pool) - (s - z) q / (s M) * B(M (1 - s)).

    A is the running sum of the knot trapezoids below x plus the partial
    trapezoid up to x, and B the same sum taken from the top, so a small
    share's areas are not differences of large ones.
    """
    M, n, v = curve.market_size, curve.volumes, curve.values
    piece = 0.5 * np.diff(n) * (v[:-1] + v[1:])
    below = np.concatenate(([0.0], np.cumsum(piece)))
    above = np.concatenate((np.cumsum(piece[::-1])[::-1], [0.0]))
    n_buyer = s * cfg.q * M / cfg.pool
    i = np.clip(np.searchsorted(n, n_buyer, side="right") - 1, 0, n.size - 2)
    area_a = below[i] + 0.5 * (n_buyer - n[i]) * (v[i] + np.interp(n_buyer, n, v))
    n_seller = M * (1.0 - s)
    j = np.clip(np.searchsorted(n, n_seller, side="left"), 1, n.size - 1)
    area_b = above[j] + 0.5 * (n[j] - n_seller) * (np.interp(n_seller, n, v) + v[j])
    gross = cfg.pool / M * area_a - (s - cfg.z) * cfg.q / (s * M) * area_b
    tc_total = 2.0 * t * s * cfg.q
    return {
        "gross_gains": gross,
        "tc_total": tc_total,
        "net_gains": gross - tc_total,
        "tc_share": np.divide(tc_total, gross, out=np.zeros_like(gross), where=gross > 0.0),
    }


def comparative_statics(cfg: MarketConfig, curve: WtpCurve, s):
    """Analytic derivatives of price and cost wedge in the trade share.

    The marginal valuations move along the schedule at rates set by the CDF
    density at each margin; the cost wedge always falls as the share rises.
    `s` is one share, giving two floats, or a 1-D array of shares, giving two
    arrays; any share the model cannot invert raises its error.
    """
    shares = np.asarray(s, dtype=np.float64)
    flat = shares.reshape(-1)
    _check_shares(cfg, flat)
    v_seller, v_buyer = _margins(cfg, curve, flat)
    f_buyer = curve._density(v_buyer)
    if np.any(f_buyer <= 0.0):
        raise ValidationError("zero density at the marginal buyer valuation")
    dv_buyer = -(cfg.q / cfg.pool) / f_buyer
    # Where the whole share is speculator supply the seller margin stays at 0.
    limit = (flat == cfg.z) & (cfg.z > 0.0)
    f_seller = curve._density(v_seller)
    if np.any(f_seller[~limit] <= 0.0):
        raise ValidationError("zero density at the marginal seller valuation")
    dv_seller = np.where(limit, 0.0, 1.0 / f_seller)
    dp, dt = 0.5 * (dv_seller + dv_buyer), 0.5 * (dv_buyer - dv_seller)
    if shares.ndim == 0:
        return float(dp[0]), float(dt[0])
    return dp, dt
