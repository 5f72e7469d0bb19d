"""Subsampling intervals for the trade-share estimators."""

import io

import numpy as np
import pytest

from diftrans.errors import ConfigError, InfeasibleShareError, ValidationError
from diftrans.estimators import before_after, diff_in_transports
from diftrans.inference import SubsampleConfig, _resample, dump_draws, subsample_ci
from diftrans.pmf import PricePMF
from diftrans.transport import ot_cost

from _synth import lottery_post_prices, pmf_of, population_prices, synth_curve


def ba(d):
    return lambda a, b: before_after(a, b, d)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SubsampleConfig(n_draws=0)
        with pytest.raises(ValidationError):
            SubsampleConfig(alpha=1.5)
        with pytest.raises(ValidationError):
            SubsampleConfig(b=0)
        with pytest.raises(ValidationError):
            SubsampleConfig(b=5, block_fraction=0.5)
        with pytest.raises(ValidationError):
            SubsampleConfig(block_fraction=1.0)

    def test_size_rules(self):
        assert SubsampleConfig(b=7).size_for(100) == 7
        assert SubsampleConfig(block_fraction=0.25).size_for(100) == 25
        assert SubsampleConfig().size_for(1000) == int(1000**0.7)

    def test_explicit_b_too_large(self):
        with pytest.raises(ConfigError):
            SubsampleConfig(b=10).size_for(10)

    def test_single_unit_sample(self):
        with pytest.raises(ConfigError):
            SubsampleConfig().size_for(1)


class TestSubsampleCI:
    def test_point_mass_interval_is_degenerate(self):
        pre = PricePMF.from_counts([50_000], [30])
        post = PricePMF.from_counts([50_000], [20])
        res = subsample_ci(pre, post, ba(0), SubsampleConfig(n_draws=40, seed=1))
        assert res.point == 0.0
        assert res.lower == res.upper == 0.0
        assert np.all(res.draws == 0.0)

    def test_near_full_subsample_tracks_point(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 50, size=12)
        pre = PricePMF.from_counts(np.arange(12) * 1000, counts)
        post = PricePMF.from_counts(np.arange(12) * 1000 + 200, counts[::-1])
        cfg = SubsampleConfig(n_draws=1, b=min(pre.n, post.n) - 1, seed=2)
        res = subsample_ci(pre, post, ba(0), cfg)
        assert res.draws[0] == pytest.approx(res.point, abs=0.05)

    def test_reproducible_and_matches_scalar_cost(self):
        pre = PricePMF.from_counts([1, 2, 3, 10], [10, 20, 5, 30])
        post = PricePMF.from_counts([1, 2, 3, 10], [25, 5, 20, 15])
        cfg = SubsampleConfig(n_draws=50, seed=11)
        r1 = subsample_ci(pre, post, ba(1), cfg)
        r2 = subsample_ci(pre, post, ba(1), cfg)
        assert np.array_equal(r1.draws, r2.draws)
        assert (r1.lower, r1.upper) == (r2.lower, r2.upper)
        for k in range(cfg.n_draws):
            sub = [
                _resample(
                    pmf.support,
                    pmf.counts(),
                    cfg.size_for(pmf.n),
                    np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, k, side))),
                )
                for side, pmf in enumerate((pre, post))
            ]
            assert r1.draws[k] == ot_cost(sub[0], sub[1], 1)

    def test_interval_orientation_and_width(self):
        pre = PricePMF.from_counts([1, 2, 3, 10], [10, 20, 5, 30])
        post = PricePMF.from_counts([1, 2, 3, 10], [25, 5, 20, 15])
        wide = subsample_ci(pre, post, ba(0), SubsampleConfig(n_draws=80, seed=3))
        narrow = subsample_ci(
            pre, post, ba(0), SubsampleConfig(n_draws=80, seed=3, alpha=0.5)
        )
        assert wide.lower <= wide.upper
        assert narrow.lower >= wide.lower
        assert narrow.upper <= wide.upper

    def test_dit_estimator_with_control(self):
        pre = PricePMF.from_counts([1, 2, 3, 10], [10, 20, 5, 30])
        post = PricePMF.from_counts([1, 2, 3, 10], [25, 5, 20, 15])
        cfg = SubsampleConfig(n_draws=30, seed=7)
        res = subsample_ci(
            pre,
            post,
            lambda a, b, ca, cb: diff_in_transports(a, b, ca, cb, 1),
            cfg,
            control=(pre, post),
        )
        # Shared data for both pairs: every draw resamples the four sides
        # independently, so values scatter around the null at or below zero.
        assert res.point <= 0.0
        assert res.lower <= res.upper

    def test_transform_maps_draws(self):
        pre = PricePMF.from_counts([1, 2], [50, 50])
        post = PricePMF.from_counts([1, 2], [20, 80])
        cfg = SubsampleConfig(n_draws=25, seed=13)
        raw = subsample_ci(pre, post, ba(0), cfg)
        doubled = subsample_ci(pre, post, ba(0), cfg, transform=lambda s: 2 * s)
        assert doubled.point == pytest.approx(2 * raw.point)
        assert np.allclose(doubled.draws, 2 * raw.draws)

    def test_transform_failures_become_nan(self):
        pre = PricePMF.from_counts([1, 2], [50, 50])
        post = PricePMF.from_counts([1, 2], [20, 80])
        cfg = SubsampleConfig(n_draws=25, seed=13)

        # The point is 0.3 and the draws run from 0.12 to 0.44.
        def capped(s):
            if s > 0.34:
                raise InfeasibleShareError("above the cap")
            return s

        res = subsample_ci(pre, post, ba(0), cfg, transform=capped)
        failed = np.isnan(res.draws)
        assert res.point == pytest.approx(0.3)
        assert 0 < res.n_failed == int(failed.sum()) < cfg.n_draws
        assert np.all(res.draws[~failed] <= 0.34)
        assert res.lower <= res.upper

        def broken(s):
            raise ValueError("a bug, not an infeasible share")

        with pytest.raises(ValueError, match="a bug"):
            subsample_ci(pre, post, ba(0), cfg, transform=broken)

    def test_failing_point_raises(self):
        pre = PricePMF.from_counts([1, 2], [50, 50])
        post = PricePMF.from_counts([1, 2], [20, 80])

        def capped(s):
            if s > 0.25:
                raise InfeasibleShareError("above the cap")
            return s

        with pytest.raises(InfeasibleShareError, match="above the cap"):
            subsample_ci(pre, post, ba(0), SubsampleConfig(n_draws=25, seed=13), transform=capped)

    def test_dump_draws_csv(self):
        pre = PricePMF.from_counts([1, 2], [5, 5])
        post = PricePMF.from_counts([1, 2], [5, 5])
        res = subsample_ci(pre, post, ba(0), SubsampleConfig(n_draws=3, seed=1))
        buf = io.StringIO()
        dump_draws(res, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "draw_index,value"
        assert len(lines) == 4


class TestCoverage:
    def test_meta_replication_coverage(self):
        # Planted trading share 0.2 in a small synthetic market; the interval
        # should cover its own full-sample estimate in nearly every run.
        n_buyers, q, sigma, d = 3000, 1200, 0.2, 2000
        curve = synth_curve(n_buyers)
        prices = population_prices(n_buyers, curve)
        pre = pmf_of(prices)
        covered = 0
        meta = 100
        for rep in range(meta):
            post = pmf_of(lottery_post_prices(prices, q, sigma, seed=rep))
            cfg = SubsampleConfig(n_draws=60, seed=rep)
            res = subsample_ci(pre, post, ba(d), cfg)
            if res.lower <= res.point <= res.upper:
                covered += 1
        assert covered >= 90
