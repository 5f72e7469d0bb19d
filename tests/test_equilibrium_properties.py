"""Properties of the market inversion on random valuation schedules.

Schedules come from `_oracles.random_curve` with a market size that need not
equal the config's N, with and without speculators.  Gross gains are checked
against adaptive quadrature of the model's demand-supply gap, split at every
kink, so both sides integrate exactly linear pieces and differ by rounding.
Price and wedge are linear in the share between kinks, so their central
differences match the analytic comparative statics up to rounding.  The
array core inverts a whole vector of shares as the scalar oracle inverts
each one.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from diftrans.equilibrium import (
    MarketConfig,
    comparative_statics,
    invert_from_volume,
    invert_shares,
)

from _oracles import clear_share, inverse_cdf, random_curve, scalar_inversion

N, Q = 700_000, 260_000
GAINS_TOL = 1e-9
SHARE_TOL = 1e-9
#: Envelope residual, relative to the largest possible slope q * v_max.
ENVELOPE_TOL = 1e-9
#: Central-difference residual of d(p, t)/ds, relative to the slope or to v_max.
STATICS_TOL = 1e-6
#: Gains of the array core against the scalar oracle, relative to the gross
#: gains: the prefix areas add the oracle's linear pieces, grouped otherwise.
CORE_GAINS_TOL = 1e-12
#: Step of the central difference in the trade share; gross gains are
#: quadratic in s between kinks, so the difference is exact up to rounding.
STEP = 1e-5

PROPERTIES = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def markets(draw, speculators=True):
    """(config, curve, s) with 0 < s <= s_notc and z <= s."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    market_size = draw(st.sampled_from([N, 350_000.0, 1_000_000.0, 2_345_678.9]))
    curve = random_curve(rng, market_size=market_size)
    z = draw(st.sampled_from([0.0, 0.02, 0.1])) if speculators else 0.0
    cfg = MarketConfig(N=N, q=Q, z=z)
    s = z + draw(st.floats(0.0, 1.0)) * (cfg.s_notc - z)
    assume(s > 0.0)
    return cfg, curve, s


def seller_share(cfg, s, u):
    """Schedule share of the marginal winner selling at traded volume u > zq."""
    return (u - cfg.z * cfg.q) * s / ((s - cfg.z) * cfg.q)


def gap(cfg, curve, s, u):
    pool = cfg.N - cfg.q * (1.0 - cfg.z)
    v_buyer = inverse_cdf(curve, 1.0 - u / pool)
    if u <= cfg.z * cfg.q:
        return v_buyer
    return v_buyer - inverse_cdf(curve, min(seller_share(cfg, s, u), 1.0))


def kinks(cfg, curve, s):
    """Traded volumes in (0, sq) where either marginal valuation bends."""
    pool = cfg.N - cfg.q * (1.0 - cfg.z)
    zq = cfg.z * cfg.q
    shares = curve.volumes / curve.market_size
    points = [zq, *(pool * shares)]
    if s > cfg.z:
        points += [zq + (1.0 - f) * (s - cfg.z) * cfg.q / s for f in shares]
    return sorted(u for u in points if 0.0 < u < s * cfg.q)


def quad_gross(cfg, curve, s):
    value, _ = quad(
        lambda u: gap(cfg, curve, s, u),
        0.0,
        s * cfg.q,
        points=kinks(cfg, curve, s) or None,
        limit=500,
        epsabs=0.0,
        epsrel=1e-13,
    )
    return value


@PROPERTIES
@given(markets())
def test_gross_gains_match_quadrature(market):
    cfg, curve, s = market
    sol = invert_from_volume(cfg, curve, s)
    assert sol.gross_gains == pytest.approx(quad_gross(cfg, curve, s), rel=GAINS_TOL)


@PROPERTIES
@given(markets())
def test_clearing_roundtrip(market):
    cfg, curve, s = market
    sol = invert_from_volume(cfg, curve, s)
    assert abs(clear_share(cfg, curve, sol.p, sol.t) - s) <= SHARE_TOL


@PROPERTIES
@given(markets(speculators=False))
def test_envelope_identity(market):
    # Without speculators the supply curve does not move with s, so the
    # surplus grows at the marginal trade's gap: d gross / ds = q * 2t.
    cfg, curve, s = market
    assume(2 * STEP <= s <= cfg.s_notc - 2 * STEP)
    kinks_in_s = [u / cfg.q for u in kinks(cfg, curve, cfg.s_notc)]
    assume(all(abs(s - k) > 2 * STEP for k in kinks_in_s))
    hi = invert_from_volume(cfg, curve, s + STEP).gross_gains
    lo = invert_from_volume(cfg, curve, s - STEP).gross_gains
    sol = invert_from_volume(cfg, curve, s)
    slope = (hi - lo) / (2 * STEP)
    assert abs(slope - 2 * cfg.q * sol.t) <= ENVELOPE_TOL * cfg.q * curve.v_max


def share_kinks(cfg, curve):
    """Trade shares where the marginal seller or buyer valuation bends: the
    seller sits at schedule share s, the buyer at 1 - s q / pool."""
    pool = cfg.N - cfg.q * (1.0 - cfg.z)
    shares = curve.volumes / curve.market_size
    return [cfg.z, *(1.0 - shares), *(shares * pool / cfg.q)]


@PROPERTIES
@given(markets())
def test_comparative_statics_match_central_differences(market):
    cfg, curve, s = market
    assume(cfg.z + 2 * STEP <= s <= cfg.s_notc - 2 * STEP)
    assume(all(abs(s - k) > 2 * STEP for k in share_kinks(cfg, curve)))
    hi = invert_from_volume(cfg, curve, s + STEP)
    lo = invert_from_volume(cfg, curve, s - STEP)
    dp_ds, dt_ds = comparative_statics(cfg, curve, s)
    tol = dict(rel=STATICS_TOL, abs=STATICS_TOL * curve.v_max)
    assert (hi.p - lo.p) / (2 * STEP) == pytest.approx(dp_ds, **tol)
    assert (hi.t - lo.t) / (2 * STEP) == pytest.approx(dt_ds, **tol)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    markets(),
    st.lists(
        st.one_of(st.floats(-0.1, 0.8), st.sampled_from([0.0, float("nan"), float("inf")])),
        max_size=8,
    ),
)
def test_array_core_matches_scalar_inversion(market, extra):
    # The market's own share, the speculator share, s_notc, and shares on
    # either side of every bound, NaN and inf included.
    cfg, curve, s = market
    shares = [s, cfg.z, cfg.s_notc, *extra]
    sol = invert_shares(cfg, curve, shares)
    feasible = []
    for i, share in enumerate(shares):
        row = [sol.v_seller[i], sol.v_buyer[i], sol.p[i], sol.t[i]]
        gains = [sol.gross_gains[i], sol.tc_total[i], sol.net_gains[i], sol.tc_share[i]]
        want = scalar_inversion(cfg, curve, share)
        if want is None:
            assert np.isnan(row + gains).all()
            continue
        feasible.append((i, share))
        assert row == list(want[:4])
        tol = CORE_GAINS_TOL * want[4]
        assert all(abs(g - w) <= tol for g, w in zip(gains[:3], want[4:7]))
        assert gains[3] == pytest.approx(want[7], rel=CORE_GAINS_TOL, abs=CORE_GAINS_TOL)
    # Each feasible share inverted alone is its row of the core, and the
    # statics of all of them at once are each share's.
    dp, dt = comparative_statics(cfg, curve, [share for _, share in feasible])
    for k, (i, share) in enumerate(feasible):
        core_row = tuple(values[i].item() for values in vars(sol).values())
        assert dataclasses.astuple(invert_from_volume(cfg, curve, share)) == core_row
        assert (dp[k], dt[k]) == comparative_statics(cfg, curve, share)
