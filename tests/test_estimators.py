"""Placebo resampling, bandwidth selection, and difference-in-transports,
all read off `bandwidth_scan`."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diftrans import cli, transport
from diftrans.errors import SelectionError, ValidationError
from diftrans.estimators import (
    PLACEBO_QUANTILES,
    BandwidthScan,
    PlaceboConfig,
    ScanRow,
    Selection,
    bandwidth_scan,
    diff_in_transports,
)
from diftrans.pmf import PricePMF
from diftrans.transport import ot_cost

from _oracles import fraction_cost, placebo_summary, random_pmf, replicate_pair
from _synth import grow, lottery_post_prices, pmf_of, population_prices, synth_curve


@pytest.fixture
def two_point():
    a = PricePMF(np.array([1, 2]), np.array([6, 2]))
    b = PricePMF(np.array([1, 2]), np.array([1, 3]))
    return a, b


def placebo_scan(base, n_pre, n_post, grid, cfg):
    """A scan whose placebo columns resample `base` at sizes `n_pre` and
    `n_post`, multiples of `base.n`: its pre and post are `base`'s counts
    scaled to those sizes, whose masses are `base.mass` bit for bit."""
    pre, post = (PricePMF(base.support, base.counts * (n // base.n)) for n in (n_pre, n_post))
    assert (pre.n, post.n) == (n_pre, n_post)
    return bandwidth_scan(pre, post, grid, cfg)


def trends_curves(a_pre, a_post, b_pre, b_post, grid):
    """The trends rows of a scan: both pairs at the same `d`, and their difference."""
    trends = (a_pre, a_post, b_pre, b_post)
    return bandwidth_scan(a_pre, a_post, grid, PlaceboConfig(n_sims=1), trends=trends).trends


class TestBeforeAfter:
    # The before-and-after estimate is the scan's real cost.
    def test_worked_example(self, two_point):
        a, b = two_point
        assert bandwidth_scan(a, b, [0], PlaceboConfig(n_sims=1)).rows[0].real_cost == 0.5

    def test_equal_distributions(self, two_point):
        a, _ = two_point
        assert bandwidth_scan(a, a, [0], PlaceboConfig(n_sims=1)).rows[0].real_cost == 0.0


class TestPlacebo:
    def test_point_mass_has_no_noise(self):
        base = PricePMF([50_000], [10])
        row = placebo_scan(base, 40, 60, [0], PlaceboConfig(n_sims=50, seed=1)).rows[0]
        assert row.placebo_mean == 0.0 and row.placebo_sd == 0.0
        assert all(q == 0.0 for q in row.placebo_quantiles)

    def test_free_beyond_span(self):
        base = PricePMF([10, 500], [5, 5])
        row = placebo_scan(base, 30, 30, [490], PlaceboConfig(n_sims=50, seed=1)).rows[0]
        assert row.placebo_mean == 0.0

    def test_binomial_oracle_two_point(self):
        # Uniform mass on two far-apart prices: the placebo cost at d=0 is
        # |B1 - B2| / n with B_i binomial(n, 1/2); check against a direct
        # Monte Carlo of that expression.
        n = 100
        base = PricePMF([0, 10**6], [1, 1])
        cfg = PlaceboConfig(n_sims=2000, seed=9)
        row = placebo_scan(base, n, n, [0], cfg).rows[0]
        mean, sd = row.placebo_mean, row.placebo_sd
        rng = np.random.default_rng(123)
        b1 = rng.binomial(n, 0.5, size=200_000)
        b2 = rng.binomial(n, 0.5, size=200_000)
        target = np.abs(b1 - b2).mean() / n
        se = 3 * sd / np.sqrt(cfg.n_sims)
        assert abs(mean - target) <= se
        assert mean == pytest.approx(0.0563, abs=3 * se + 1e-3)

    def test_reproducible_and_matches_scalar_cost(self):
        base = PricePMF([1, 5, 9, 40], [3, 4, 2, 1])
        cfg = PlaceboConfig(n_sims=70, seed=77)
        grid = [0, 2, 10]
        s1 = placebo_scan(base, 50, 80, grid, cfg)
        s2 = placebo_scan(base, 50, 80, grid, cfg)
        assert s1 == s2
        pairs = [replicate_pair(base, 50, 80, cfg.seed, rep) for rep in range(cfg.n_sims)]
        for row in s1.rows:
            stats = (row.placebo_mean, row.placebo_sd, row.placebo_quantiles)
            assert stats == placebo_summary([fraction_cost(pre, post, row.d) for pre, post in pairs])

    def test_replicate_columns_are_counts_over_sizes(self, monkeypatch):
        # Each replicate's multinomial counts are written into its column and
        # the block is scaled by the sample sizes once: the oracle's counts
        # times the other side's size, lifted onto the union with the pair's
        # support.  The replicates resample the post distribution, whose
        # support is not the pre's.
        pre = PricePMF([2, 5, 7], [10, 20, 5])
        post = PricePMF([1, 5, 9, 40], [3, 4, 2, 1])
        cfg = PlaceboConfig(n_sims=9, seed=31)
        kernel, calls = transport._cost_columns, []
        monkeypatch.setattr(transport, "_cost_columns", lambda *args: calls.append(args) or kernel(*args))
        bandwidth_scan(pre, post, [0, 3], cfg)
        [(_, _, A, B)] = calls
        src = np.union1d(pre.support, post.support)
        tgt = post.support
        for rep in range(cfg.n_sims):
            drawn = replicate_pair(post, pre.n, post.n, cfg.seed, rep)
            for got, pmf, union, other in zip((A, B), drawn, (src, tgt), (post.n, pre.n)):
                want = np.zeros(union.size, dtype=np.int64)
                want[np.searchsorted(union, pmf.support)] = pmf.counts * other
                assert got[:, 1 + rep].tobytes() == want.tobytes()

    def test_placebo_mean_is_the_exact_mean_rounded_once(self):
        # On the synthetic lottery market, at every grid bandwidth, the mean
        # is the sum of the replicates' exact numerators over sims * n_a * n_b,
        # rounded once.
        prices = population_prices(2_000, synth_curve(2_000))
        pre = pmf_of(prices)
        post = pmf_of(lottery_post_prices(prices, 800, 0.3, seed=4, growth=0.03))
        cfg = PlaceboConfig(n_sims=20, seed=6)
        grid = list(range(0, 6_001, 1_000))
        scan = bandwidth_scan(pre, post, grid, cfg)
        pairs = [replicate_pair(post, pre.n, post.n, cfg.seed, rep) for rep in range(cfg.n_sims)]
        scale = pre.n * post.n
        for row, d in zip(scan.rows, grid):
            numerators = [fraction_cost(a, b, d) * scale for a, b in pairs]
            assert all(x.denominator == 1 for x in numerators)
            want = Fraction(int(sum(numerators)), cfg.n_sims * scale)
            assert row.placebo_mean == float(want)

    def test_per_replicate_monotone_in_d(self):
        # Each replicate's cost is nonincreasing in d, so its mean and every
        # quantile across replicates are too.
        base = PricePMF([1, 3, 8, 20, 50], [5, 1, 2, 2, 4])
        grid = [0, 2, 5, 12, 30, 49]
        rows = placebo_scan(base, 70, 70, grid, PlaceboConfig(n_sims=60, seed=5)).rows
        stats = np.array([(row.placebo_mean, *row.placebo_quantiles) for row in rows])
        assert np.all(np.diff(stats, axis=0) <= 1e-12)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            PlaceboConfig(n_sims=0)
        # A stream key part must be nonnegative: a DiftransError here, not
        # the streams' ValueError later.
        with pytest.raises(ValidationError, match="seed must be nonnegative, got -1"):
            PlaceboConfig(seed=-1)
        # Not truncated to 1, nor a TypeError inside the sweep.
        for field, value in (("seed", 1.9), ("n_sims", 2.5), ("n_sims", True)):
            with pytest.raises(ValidationError, match=f"^{field} must be an integer, got {value!r}$"):
                PlaceboConfig(**{field: value})
        assert [f.name for f in dataclasses.fields(PlaceboConfig)] == ["n_sims", "seed"]


class TestSelectBandwidth:
    # The noise floor of `BandwidthScan.select`: the first scanned d whose
    # placebo mean is below the threshold.
    def test_point_mass_selects_grid_minimum(self):
        base = PricePMF([100], [5])
        cfg = PlaceboConfig(n_sims=20, seed=0)
        assert placebo_scan(base, 10, 10, [3, 7, 11], cfg).select(0.0005).placebo_d == 3

    def test_single_span_plus_one_grid(self):
        base = PricePMF([0, 200], [5, 5])
        cfg = PlaceboConfig(n_sims=20, seed=0)
        assert placebo_scan(base, 30, 30, [201], cfg).select(0.0005).placebo_d == 201

    def test_tighter_threshold_weakly_raises_d(self):
        base = PricePMF([0, 100_000], [12, 8])
        cfg = PlaceboConfig(n_sims=300, seed=3)
        scan = placebo_scan(base, 40, 40, list(range(0, 120_001, 10_000)), cfg)
        assert scan.select(0.0005).placebo_d >= scan.select(0.005).placebo_d

    def test_failure_lists_minimum(self):
        base = PricePMF([0, 100_000], [1, 1])
        scan = placebo_scan(base, 10, 10, [0, 1], PlaceboConfig(n_sims=50, seed=0))
        with pytest.raises(SelectionError, match="minimum placebo mean"):
            scan.select(1e-9)

    def test_threshold_is_strict(self):
        # A mean equal to the threshold is not below it; the failure names the
        # first of tied minima.
        means = {1: 0.3, 2: 0.2, 3: 0.2}
        scan = scan_from_rows([(d, 0.5, m, 0.0, (0.0,), None) for d, m in means.items()])
        assert scan.select(0.3).placebo_d == 2
        assert scan.select(0.30001).placebo_d == 1
        with pytest.raises(SelectionError, match="minimum placebo mean is 0.2 at d=2"):
            scan.select(0.2)


class TestDifferenceInTransports:
    def test_shared_pair_is_nonpositive(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            a = random_pmf(rng, max_points=10)
            b = random_pmf(rng, max_points=10)
            d = int(rng.integers(0, 600))
            assert diff_in_transports(a, b, a, b, d) <= 0.0

    def test_degenerate_control(self, two_point):
        a, b = two_point
        c = PricePMF([7], [3])
        assert diff_in_transports(a, b, c, c, 0) == 0.5

    def test_triangle_rearrangement_on_random_draws(self):
        # With the control pre-distribution equal to the treated one, the
        # estimate never exceeds the treated-vs-control-post displacement.
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = random_pmf(rng, max_points=12)
            b = random_pmf(rng, max_points=12)
            cb = random_pmf(rng, max_points=12)
            d = int(rng.integers(0, 600))
            assert diff_in_transports(a, b, a, cb, d) <= ot_cost(b, cb, d) + 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(200, 800),
        st.floats(0.1, 0.5),
        st.floats(0.0, 1.0),
        st.floats(-0.05, 0.1),
        st.floats(-0.05, 0.05),
        st.integers(1, 5000),
        st.integers(0, 2**32 - 1),
    )
    def test_lower_bound_on_planted_markets(
        self, n_buyers, quota, sigma, growth, drift, lattice, seed
    ):
        # A planted market on a `lattice`-RMB price grid: everyone buys
        # before; after, q lottery winners W (grown) buy, k = round(sigma q)
        # of them swapped for the keenest losers, while the control market
        # grows with a drift of its own.  By the triangle inequality
        # c_{d1+d2}(a, c) <= c_{d1}(a, b) + c_{d2}(b, c) of the indicator
        # cost, DiT at d is at most the swapped share k/q plus the
        # displacement at d of the control post from pmf(W), whatever the
        # control.
        prices = population_prices(n_buyers, synth_curve(n_buyers), lattice)
        q = int(quota * n_buyers)
        pre = pmf_of(prices)
        t_post = pmf_of(lottery_post_prices(prices, q, sigma, seed, growth, lattice))
        c_post = pmf_of(grow(prices, growth + drift, lattice))
        winners = pmf_of(lottery_post_prices(prices, q, 0.0, seed, growth, lattice))
        swapped = int(round(sigma * q)) / q
        grid = list(range(0, 60_001, 1000))
        cfg = PlaceboConfig(n_sims=1)
        dit = bandwidth_scan(pre, t_post, grid, cfg, control=(pre, c_post)).rows
        far = bandwidth_scan(c_post, winners, grid, cfg).rows
        for row, bound in zip(dit, far):
            assert row.dit_value <= swapped + bound.real_cost

    def test_reported_verbatim_when_negative(self):
        near = PricePMF([0, 1], [1, 1])
        far = PricePMF([1000, 2000], [1, 1])
        value = diff_in_transports(near, near, near, far, 0)
        assert value == -1.0


def scan_from_rows(rows):
    return BandwidthScan(tuple(ScanRow(*r) for r in rows))


def chosen(scan, d_min):
    """`d_star` and the estimate there, from a scan's rule at an explicit `d_min`."""
    selection = scan.select(d_min=d_min)
    return selection.d_star, selection.value


class TestSelectDstar:
    # `BandwidthScan.select` at an explicit floor: the largest estimate at d >= d_min.
    def base_row(self, d, dit):
        return (d, 0.5, 0.0, 0.0, (0.0,), dit)

    def test_single_admissible_row(self):
        scan = scan_from_rows([self.base_row(5, 0.2)])
        assert chosen(scan, 0) == (5, 0.2)

    def test_reference_style_rows(self):
        scan = scan_from_rows(
            [
                self.base_row(7000, 0.1187),
                self.base_row(10000, 0.1015),
                self.base_row(15000, 0.0683),
            ]
        )
        assert chosen(scan, 7000) == (7000, 0.1187)

    def test_tie_breaks_to_smaller_d(self):
        scan = scan_from_rows([self.base_row(d, 0.1) for d in (2, 4, 8)])
        assert chosen(scan, 0) == (2, 0.1)

    def test_invariant_to_rows_below_floor(self):
        high = [self.base_row(10, 0.3), self.base_row(20, 0.1)]
        padded = [self.base_row(1, 0.9)] + high
        assert chosen(scan_from_rows(high), 10) == chosen(scan_from_rows(padded), 10)

    def test_empty_admissible_set(self):
        scan = scan_from_rows([self.base_row(5, 0.2)])
        with pytest.raises(SelectionError):
            chosen(scan, 6)

    def test_missing_dit_column(self):
        # A scan carries a dit value on every row or on none.
        with pytest.raises(ValidationError):
            scan_from_rows([self.base_row(5, None), self.base_row(6, 0.1)])

    def test_explicit_floor_skips_both_floors(self):
        # No placebo mean is below the threshold and the trends never settle,
        # but an explicit d_min reads neither floor.
        rows = [(d, 0.5, 0.9, 0.0, (0.0,), 0.1 * d) for d in (0, 1, 2)]
        trends = tuple((d, 0.5, 0.1, 0.4) for d in (0, 1, 2))
        scan = BandwidthScan(tuple(ScanRow(*r) for r in rows), trends)
        assert scan.select(0.5, 0.1, d_min=1) == Selection(2, 0.2, None, None, 1)
        with pytest.raises(SelectionError, match="placebo cost below 0.5"):
            scan.select(0.5, 0.1)

    def test_levels_are_finite_nonnegative_numbers(self):
        # Checked before any row is read, whether or not a floor reads them:
        # a NaN threshold read as a failed selection "below nan", and an
        # infinite one admitted d = 0.
        rows = [(d, 0.5, mean, 0.0, (0.0,), None) for d, mean in ((0, 0.1), (1, 0.0))]
        trends = ((0, 0.5, 0.1, 0.4), (1, 0.5, 0.1, 0.0))
        scan = BandwidthScan(tuple(ScanRow(*r) for r in rows), trends)
        for name in ("threshold", "tau"):
            for level in (float("nan"), float("inf"), -1.0, True, "0.5", None):
                message = f"{name} must be a finite nonnegative number, got {level!r}"
                for d_min in (None, 1):
                    with pytest.raises(ValidationError) as exc:
                        scan.select(**{name: level}, d_min=d_min)
                    assert str(exc.value) == message
        # Zero and numpy floats are levels; no placebo mean is below 0.
        assert scan.select(np.float64(0.05), np.float64(0.05)) == Selection(1, 0.5, 1, 1, 1)
        with pytest.raises(SelectionError, match="placebo cost below 0;"):
            scan.select(0)

    def test_floor_is_larger_of_the_two(self):
        # Noise floor 1, trends floor 2; the largest dit value lies below both.
        means_and_dit = [(0.9, 0.9), (0.0, 0.3), (0.0, 0.2), (0.0, 0.25)]
        rows = [(d, 0.5, m, 0.0, (0.0,), dit) for d, (m, dit) in enumerate(means_and_dit)]
        trends = tuple((d, 0.5, 0.1, diff) for d, diff in enumerate([0.4, 0.4, 0.0, 0.0]))
        scan = BandwidthScan(tuple(ScanRow(*r) for r in rows), trends)
        assert scan.select(0.5, 0.1) == Selection(3, 0.25, 1, 2, 2)
        assert scan.select(0.5, 0.5) == Selection(1, 0.3, 1, 0, 1)
        no_trends = BandwidthScan(scan.rows)
        assert no_trends.select(0.5, 1e-9) == Selection(1, 0.3, 1, 0, 1)

    def test_before_after_reads_the_floor_itself(self):
        # Without a control pair the estimate is the real cost at d_min, the
        # first admissible row, even where a later row's cost ties it.
        costs_and_means = [(0.5, 0.9), (0.3, 0.0), (0.3, 0.0)]
        scan = scan_from_rows([(d, c, m, 0.0, (0.0,), None) for d, (c, m) in enumerate(costs_and_means)])
        assert scan.select(0.5) == Selection(1, 0.3, 1, 0, 1)
        assert scan.select(d_min=2) == Selection(2, 0.3, None, None, 2)
        assert scan.select(d_min=0).d_star == 0

    def test_rising_real_cost_is_rejected(self):
        # Each cost is an exact rational rounded once, so no rise with d is rounding.
        with pytest.raises(ValidationError, match="nonincreasing"):
            scan_from_rows([(0, 0.3, 0.0, 0.0, (0.0,), None), (1, 0.3 + 5e-13, 0.0, 0.0, (0.0,), None)])

    def test_scan_without_rows_is_rejected(self):
        # Neither floor can be read off no rows, nor the trends floor off no curves.
        with pytest.raises(ValidationError, match="^a scan needs at least one row$"):
            BandwidthScan(())
        rows = (ScanRow(0, 0.5, 0.0, 0.0, (0.0,)),)
        with pytest.raises(ValidationError, match="^trends curves need at least one row$"):
            BandwidthScan(rows, ())


class TestFloors:
    def test_displacement_floor(self):
        curves = ((0, 0.5, 0.2, 0.3), (10, 0.2, 0.19, 0.01), (20, 0.1, 0.099, 0.001))
        rows = tuple(ScanRow(d, 0.5, 0.0, 0.0, (0.0,)) for d in (0, 10, 20))
        scan = BandwidthScan(rows, curves)
        assert scan.select(0.0005, tau=0.02).displacement_d == 10
        with pytest.raises(SelectionError):
            scan.select(0.0005, tau=1e-4)


class TestEqualDisplacement:
    def test_identical_pairs_difference_zero(self):
        rng = np.random.default_rng(10)
        a = random_pmf(rng)
        b = random_pmf(rng)
        rows = trends_curves(a, b, a, b, [0, 5, 50])
        assert all(diff == 0.0 for _, _, _, diff in rows)

    def test_degenerate_second_pair(self):
        rng = np.random.default_rng(11)
        a = random_pmf(rng)
        b = random_pmf(rng)
        c = PricePMF([3], [1])
        rows = trends_curves(a, b, c, c, [0, 5, 50])
        for d, cost_a, cost_b, diff in rows:
            assert cost_b == 0.0
            assert diff == cost_a == ot_cost(a, b, d)

    def test_columns_nonincreasing(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            rows = trends_curves(
                random_pmf(rng, max_points=10),
                random_pmf(rng, max_points=10),
                random_pmf(rng, max_points=10),
                random_pmf(rng, max_points=10),
                [0, 2, 8, 40, 200, 999],
            )
            costs_a = [r[1] for r in rows]
            costs_b = [r[2] for r in rows]
            assert all(y <= x + 1e-12 for x, y in zip(costs_a, costs_a[1:]))
            assert all(y <= x + 1e-12 for x, y in zip(costs_b, costs_b[1:]))


class TestScan:
    def test_scan_rows_and_csv(self, two_point, tmp_path):
        a, b = two_point
        cfg = PlaceboConfig(n_sims=30, seed=2)
        scan = bandwidth_scan(a, b, [0, 1], cfg, control=(a, b))
        assert [row.d for row in scan.rows] == [0, 1]
        assert scan.rows[0].real_cost == 0.5
        assert scan.rows[0].dit_value is not None
        path = tmp_path / "scan.csv"
        cli._write_scan(str(path), scan)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "d,real_cost,placebo_mean,placebo_sd,q025,q25,q50,q75,q975,dit"
        assert len(lines) == 3

    def test_scan_is_deterministic(self, two_point):
        a, b = two_point
        cfg = PlaceboConfig(n_sims=25, seed=4)
        s1 = bandwidth_scan(a, b, [0, 1], cfg)
        s2 = bandwidth_scan(a, b, [0, 1], cfg)
        for r1, r2 in zip(s1.rows, s2.rows):
            assert r1 == r2
        pairs = [replicate_pair(b, a.n, b.n, cfg.seed, rep) for rep in range(cfg.n_sims)]
        for row in s1.rows:
            cells = np.array([ot_cost(pre, post, row.d) for pre, post in pairs])
            assert row.placebo_mean == pytest.approx(float(np.mean(cells)), abs=1e-15)

    def test_rejects_unsorted_grid(self, two_point):
        a, b = two_point
        with pytest.raises(ValidationError):
            bandwidth_scan(a, b, [5, 1], PlaceboConfig(n_sims=2, seed=0))

    def test_quantile_labels(self):
        # The header's labels name the quantile levels of each row: q025 is 0.025.
        labels = cli.SCAN_CSV_HEADER[4:-1]
        assert labels == ["q025", "q25", "q50", "q75", "q975"]
        assert tuple(float("0." + label[1:]) for label in labels) == PLACEBO_QUANTILES
