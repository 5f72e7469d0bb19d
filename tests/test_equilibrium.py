"""Market inversion: demand/supply, frictionless benchmark, gains, statics."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from diftrans.equilibrium import (
    MarketConfig,
    WtpCurve,
    comparative_statics,
    invert_from_volume,
    invert_shares,
)
from diftrans.errors import ConfigError, InfeasibleShareError, ValidationError

from _oracles import (
    cdf,
    clear_share,
    demand,
    density,
    inverse_cdf,
    random_curve,
    supply,
    uniform_curve,
)

N, Q = 700_000, 260_000
VMAX = 280_000.0


@pytest.fixture
def uniform():
    return MarketConfig(N=N, q=Q), uniform_curve(N, VMAX)


class TestCurve:
    def test_validation(self):
        with pytest.raises(ValidationError, match="start at volume 0"):
            WtpCurve(np.array([1.0, 10.0]), np.array([5.0, 0.0]))
        with pytest.raises(ValidationError, match="must be 0"):
            WtpCurve(np.array([0.0, 10.0]), np.array([5.0, 1.0]))
        with pytest.raises(ValidationError, match="strictly decreasing"):
            WtpCurve(np.array([0.0, 5.0, 10.0]), np.array([5.0, 5.0, 0.0]))
        with pytest.raises(ValidationError, match="finite"):
            WtpCurve(np.array([0.0, 5.0, 10.0]), np.array([5.0, np.nan, 0.0]))

    def test_strictify_perturbs_ties(self):
        curve = WtpCurve.from_knots(
            [(0.0, 5.0), (5.0, 5.0), (10.0, 0.0)], strictify=True
        )
        assert curve.values[0] > curve.values[1] > 0.0

    def test_cdf_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            curve = random_curve(rng)
            for share in rng.uniform(0.01, 0.99, size=8):
                v = inverse_cdf(curve, share)
                assert cdf(curve, v) == pytest.approx(share, rel=1e-12, abs=1e-12)

    def test_cdf_clamps(self):
        curve = uniform_curve(100, 50.0)
        assert cdf(curve, -1.0) == 0.0
        assert cdf(curve, 60.0) == 1.0
        assert cdf(curve, 25.0) == pytest.approx(0.5)

    def test_density_uniform(self):
        curve = uniform_curve(N, VMAX)
        for v in (0.0, 1234.5, VMAX):
            assert density(curve, v) == pytest.approx(1.0 / VMAX, rel=1e-12)

    def test_density_piecewise(self):
        curve = WtpCurve(
            np.array([0.0, 100.0, 200.0]), np.array([30.0, 10.0, 0.0])
        )
        # steeper value drop on the first segment means lower density there
        assert density(curve, 20.0) == pytest.approx(100.0 / 20.0 / 200.0)
        assert density(curve, 5.0) == pytest.approx(100.0 / 10.0 / 200.0)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "wtp.csv"
        path.write_text("n,v\n0,280000\n700000,0\n", encoding="utf-8")
        curve = WtpCurve.from_csv(path)
        assert curve.v_max == 280_000.0
        bad = tmp_path / "bad.csv"
        bad.write_text("volume,value\n0,1\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="expected header"):
            WtpCurve.from_csv(bad)


    def test_csv_byte_order_mark(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a leading byte-order mark.
        text = "n,v\n0,280000\n350000,90000\n700000,0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfn,v")
        want, got = WtpCurve.from_csv(plain), WtpCurve.from_csv(marked)
        assert np.array_equal(got.volumes, want.volumes)
        assert np.array_equal(got.values, want.values)


class TestDemandSupply:
    def test_demand_zero_at_choke(self, uniform):
        cfg, curve = uniform
        assert demand(cfg, curve, VMAX, 0.0) == 0.0

    def test_demand_everyone_at_zero(self, uniform):
        cfg, curve = uniform
        assert demand(cfg, curve, 0.0, 0.0) == N - Q

    def test_demand_uniform_midpoint(self, uniform):
        cfg, curve = uniform
        assert demand(cfg, curve, 100_000.0, 40_000.0) == pytest.approx(220_000.0)

    def test_supply_zero_at_zero(self, uniform):
        cfg, curve = uniform
        assert supply(cfg, curve, 0.0, 0.0) == 0.0

    def test_supply_uniform_midpoint(self, uniform):
        cfg, curve = uniform
        assert supply(cfg, curve, 150_000.0, 10_000.0) == pytest.approx(130_000.0)

    def test_speculators_flat_segment(self):
        cfg = MarketConfig(N=N, q=Q, z=0.11)
        curve = uniform_curve(N, VMAX)
        assert supply(cfg, curve, 0.0, 0.0, s=0.11) == pytest.approx(0.11 * Q)
        assert supply(cfg, curve, 50_000.0, 10_000.0, s=0.11) > 0.11 * Q * 0.999

    def test_speculator_share_above_trade_share(self):
        cfg = MarketConfig(N=N, q=Q, z=0.5)
        curve = uniform_curve(N, VMAX)
        with pytest.raises(ConfigError, match="exceeds trade share"):
            supply(cfg, curve, 100.0, 0.0, s=0.2)


class TestFrictionless:
    # The frictionless price is the seller margin of the inversion at s_notc.
    def test_uniform_closed_form(self, uniform):
        cfg, curve = uniform
        assert cfg.s_notc == (N - Q) / N
        p_notc = invert_from_volume(cfg, curve, cfg.s_notc).v_seller
        assert p_notc == pytest.approx(VMAX * (N - Q) / N, rel=1e-12)
        assert p_notc == inverse_cdf(curve, cfg.s_notc)

    def test_share_is_curve_free(self):
        rng = np.random.default_rng(1)
        cfg = MarketConfig(N=N, q=Q)
        assert cfg.s_notc == (N - Q) / N
        for _ in range(20):
            curve = random_curve(rng)
            p_notc = invert_from_volume(cfg, curve, cfg.s_notc).v_seller
            assert p_notc == inverse_cdf(curve, cfg.s_notc)
            assert cdf(curve, p_notc) == pytest.approx((N - Q) / N, abs=1e-9)

    def test_share_vanishes_as_quota_fills_market(self):
        cfg = MarketConfig(N=1000, q=999)
        assert cfg.s_notc == pytest.approx(1e-3)

    def test_config_validation(self):
        # Counts of buyers and licenses: neither truncated nor read as a bool.
        for kwargs, message in (
            ({"N": 700_000.5}, "N must be an integer, got 700000.5"),
            ({"N": 10, "q": True}, "q must be an integer, got True"),
            ({"q": 0}, "market size and quota must be positive"),
            ({"q": N}, "quota must be smaller than the market size"),
            ({"z": 1.5}, "speculator share must lie in [0, 1], got 1.5"),
            ({"z": float("nan")}, "speculator share must lie in [0, 1], got nan"),
            # A share of the quota: neither read as a bool nor compared as text.
            ({"z": True}, "z must be a real number, got True"),
            ({"z": "0.5"}, "z must be a real number, got '0.5'"),
            ({"z": None}, "z must be a real number, got None"),
        ):
            with pytest.raises(ValidationError) as exc:
                MarketConfig(**kwargs)
            assert str(exc.value) == message
        assert MarketConfig(N=np.int64(N), q=np.int32(Q)).s_notc == (N - Q) / N
        assert MarketConfig(z=np.float64(0.25)).pool == N - Q * 0.75


class TestInversion:
    def test_uniform_closed_form(self, uniform):
        cfg, curve = uniform
        sol = invert_from_volume(cfg, curve, 0.11)
        assert sol.v_seller == pytest.approx(30_800.0, abs=1e-6)
        assert sol.v_buyer == pytest.approx(261_800.0, abs=1e-6)
        assert sol.p == pytest.approx(146_300.0, abs=1e-6)
        assert sol.t == pytest.approx(115_500.0, abs=1e-6)

    def test_wedge_vanishes_at_frictionless_share(self, uniform):
        cfg, curve = uniform
        sol = invert_from_volume(cfg, curve, cfg.s_notc)
        assert sol.t == pytest.approx(0.0, abs=1e-6)
        assert sol.p == pytest.approx(VMAX * (N - Q) / N, abs=1e-3)

    def test_monotone_columns(self, uniform):
        # Up to s_notc itself the wedge falls and the seller margin rises.
        cfg, curve = uniform
        rows = [invert_from_volume(cfg, curve, s) for s in (0.11, 0.3, cfg.s_notc)]
        ts = [r.t for r in rows]
        sellers = [r.p - r.t for r in rows]
        assert all(b < a for a, b in zip(ts, ts[1:]))
        assert all(b > a for a, b in zip(sellers, sellers[1:]))

    def test_domain_errors(self, uniform):
        cfg, curve = uniform
        with pytest.raises(ValidationError):
            invert_from_volume(cfg, curve, 0.0)
        with pytest.raises(InfeasibleShareError, match="s_notc"):
            invert_from_volume(cfg, curve, 0.7)

    def test_nan_share_is_validation_error(self, uniform):
        cfg, curve = uniform
        with pytest.raises(ValidationError, match="nan"):
            invert_from_volume(cfg, curve, float("nan"))

    def test_array_core_marks_unsupported_shares(self, uniform):
        _, curve = uniform
        cfg = MarketConfig(N=N, q=Q, z=0.05)
        shares = [0.11, float("nan"), 0.0, -0.1, 0.02, 0.7, float("inf"), 0.05]
        sol = invert_shares(cfg, curve, shares)
        assert np.isnan(sol.p).tolist() == [False, True, True, True, True, True, True, False]
        assert sol.p[0] == invert_from_volume(cfg, curve, 0.11).p
        assert sol.v_seller[-1] == 0.0

    def test_memory_grows_with_shares_plus_knots(self):
        # Each share reads the schedule's prefix areas at two points, so 1,000
        # shares on a 20,001-knot schedule need no array of shares times
        # knots, which would hold 160 MB per float64 array.
        curve = WtpCurve(np.linspace(0.0, N, 20_001), np.linspace(VMAX, 0.0, 20_001))
        cfg = MarketConfig(N=N, q=Q, z=0.05)
        shares = np.linspace(cfg.z, cfg.s_notc, 1_000)
        tracemalloc.start()
        try:
            sol = invert_shares(cfg, curve, shares)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.isnan(sol.gross_gains).any()
        assert peak < 4_000_000

    def test_clearing_roundtrip(self, uniform):
        cfg, curve = uniform
        for s in (0.01, 0.11, 0.3, 0.55):
            sol = invert_from_volume(cfg, curve, s)
            assert demand(cfg, curve, sol.p, sol.t) == pytest.approx(s * Q, abs=1.0)
            assert supply(cfg, curve, sol.p, sol.t, s) == pytest.approx(s * Q, abs=1.0)
            assert clear_share(cfg, curve, sol.p, sol.t) == pytest.approx(s, rel=1e-9)

    def test_monotonicity_in_share(self):
        rng = np.random.default_rng(2)
        cfg = MarketConfig(N=N, q=Q)
        for _ in range(10):
            curve = random_curve(rng)
            shares = np.linspace(0.02, cfg.s_notc * 0.999, 12)
            sols = [invert_from_volume(cfg, curve, s) for s in shares]
            ts = [sol.t for sol in sols]
            buyers = [sol.v_buyer for sol in sols]
            sellers = [sol.v_seller for sol in sols]
            assert all(b < a for a, b in zip(ts, ts[1:]))
            assert all(b <= a + 1e-9 for a, b in zip(buyers, buyers[1:]))
            assert all(b >= a - 1e-9 for a, b in zip(sellers, sellers[1:]))

    def test_speculators_at_limit(self, uniform):
        _, curve = uniform
        cfg = MarketConfig(N=N, q=Q, z=0.11)
        sol = invert_from_volume(cfg, curve, 0.11)
        assert sol.v_seller == 0.0
        assert sol.p == sol.t

    def test_speculators_interior(self, uniform):
        _, curve = uniform
        cfg = MarketConfig(N=N, q=Q, z=0.05)
        sol = invert_from_volume(cfg, curve, 0.11)
        assert sol.v_seller == pytest.approx(inverse_cdf(curve, 0.11), abs=1e-9)
        pool = N - Q * (1 - 0.05)
        assert sol.v_buyer == pytest.approx(inverse_cdf(curve, 1 - 0.11 * Q / pool), abs=1e-9)
        assert demand(cfg, curve, sol.p, sol.t) == pytest.approx(0.11 * Q, abs=1.0)
        assert supply(cfg, curve, sol.p, sol.t, 0.11) == pytest.approx(0.11 * Q, abs=1.0)

    def test_speculator_share_above_trade_share(self, uniform):
        _, curve = uniform
        cfg = MarketConfig(N=N, q=Q, z=0.2)
        with pytest.raises(ConfigError):
            invert_from_volume(cfg, curve, 0.11)


class TestGains:
    def test_vanishing_share(self, uniform):
        # The gains vanish with the share: the surplus of the first trades is v_max each.
        cfg, curve = uniform
        sol = invert_from_volume(cfg, curve, 1e-12)
        assert sol.gross_gains == pytest.approx(VMAX * 1e-12 * Q, rel=1e-9)

    def test_uniform_closed_form(self, uniform):
        cfg, curve = uniform
        sol = invert_from_volume(cfg, curve, 0.11)
        sq = 0.11 * Q
        closed = VMAX * (sq - sq**2 / 2 * (1 / (N - Q) + 1 / Q))
        assert sol.gross_gains == pytest.approx(closed, rel=1e-12)
        assert sol.tc_total == 2 * sol.t * 0.11 * Q
        assert sol.net_gains == sol.gross_gains - sol.tc_total
        assert sol.tc_share == sol.tc_total / sol.gross_gains

    def test_full_gains_at_frictionless_share(self, uniform):
        cfg, curve = uniform
        sol = invert_from_volume(cfg, curve, cfg.s_notc)
        assert sol.net_gains == pytest.approx(sol.gross_gains, rel=1e-9)
        assert sol.tc_share == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_oracle_with_speculators(self):
        curve = uniform_curve(N, VMAX)
        cfg = MarketConfig(N=N, q=Q, z=0.05)
        s = 0.11
        sol = invert_from_volume(cfg, curve, s)
        pool = N - Q * (1 - cfg.z)
        zq = cfg.z * Q

        def integrand(u):
            vb = VMAX * (1 - u / pool)
            vs = 0.0 if u <= zq else VMAX * (u - zq) * s / ((s - cfg.z) * Q)
            return vb - vs

        oracle, _ = quad(integrand, 0.0, s * Q, points=[zq], limit=200)
        assert sol.gross_gains == pytest.approx(oracle, rel=1e-10)

    def test_invariant_to_curve_volume_scale(self):
        # Prices and gains depend on the schedule only through shares of its
        # own market size, whatever that size is next to cfg.N.
        rng = np.random.default_rng(4)
        for z in (0.0, 0.05):
            cfg = MarketConfig(N=N, q=Q, z=z)
            for _ in range(10):
                curve = random_curve(rng)
                for scale in (0.5, N / 1_000_000, 3.0):
                    scaled = WtpCurve(curve.volumes * scale, curve.values)
                    for s in (z or 0.02, 0.11, 0.4):
                        want = dataclasses.asdict(invert_from_volume(cfg, curve, s))
                        got = dataclasses.asdict(invert_from_volume(cfg, scaled, s))
                        assert got == pytest.approx(want, rel=1e-12)


class TestStatics:
    def test_uniform_closed_forms(self, uniform):
        cfg, curve = uniform
        dp, dt = comparative_statics(cfg, curve, 0.11)
        assert dp == pytest.approx(0.5 * VMAX * (1 - Q / (N - Q)), rel=1e-9)
        assert dp == pytest.approx(57_272.7272, abs=0.01)
        assert dt == pytest.approx(-0.5 * VMAX * (Q / (N - Q) + 1), rel=1e-9)
        assert dt == pytest.approx(-222_727.2727, abs=0.01)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        cfg = MarketConfig(N=N, q=Q)
        h = 1e-4
        checked = 0
        while checked < 25:
            curve = random_curve(rng)
            s = float(rng.uniform(0.05, cfg.s_notc - 0.05))
            if _near_kink(curve, cfg, s, 4 * h):
                continue
            dp, dt = comparative_statics(cfg, curve, s)
            hi = invert_from_volume(cfg, curve, s + h)
            lo = invert_from_volume(cfg, curve, s - h)
            assert dp == pytest.approx((hi.p - lo.p) / (2 * h), rel=1e-3)
            assert dt == pytest.approx((hi.t - lo.t) / (2 * h), rel=1e-3)
            assert dt < 0.0
            checked += 1


def _near_kink(curve, cfg, s, width):
    """True when a finite-difference window straddles a schedule kink."""
    pool = cfg.N - cfg.q * (1.0 - cfg.z)
    shares = []
    for v in curve.values[1:-1]:
        shares.append(cdf(curve, v))
        shares.append((1.0 - cdf(curve, v)) * pool / cfg.q)
    return any(abs(s - k) <= width for k in shares)
