"""Subsampling intervals for the trade-share estimators."""

import numpy as np
import pytest

from diftrans import cli, transport
from diftrans.errors import ConfigError, ValidationError
from diftrans.estimators import diff_in_transports
from diftrans.inference import SubsampleConfig, SubsampleResult, subsample_ci
from diftrans.pmf import PricePMF
from diftrans.transport import ot_cost

from _oracles import subsample_draw
from _synth import lottery_post_prices, pmf_of, population_prices, synth_curve


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
        # A stream key part must be nonnegative: a DiftransError here, not
        # the streams' ValueError later.
        with pytest.raises(ValidationError, match="seed must be nonnegative, got -1"):
            SubsampleConfig(seed=-1)
        # Not truncated to 1, nor a TypeError or ValueError inside the sweep.
        for field, value in (("seed", 1.9), ("n_draws", 2.5), ("b", 2.5)):
            with pytest.raises(ValidationError, match=f"^{field} must be an integer, got {value!r}$"):
                SubsampleConfig(**{field: value})

    def test_size_rules(self):
        assert SubsampleConfig(b=7).size_for(100) == 7
        assert SubsampleConfig(block_fraction=0.25).size_for(100) == 25
        assert SubsampleConfig().size_for(1000) == int(1000**0.7)

    def test_block_fraction_below_one_unit(self):
        assert SubsampleConfig(block_fraction=0.01).size_for(100) == 1
        with pytest.raises(ConfigError, match=r"block fraction 0\.01 of n=99 "):
            SubsampleConfig(block_fraction=0.01).size_for(99)

    def test_explicit_b_too_large(self):
        with pytest.raises(ConfigError):
            SubsampleConfig(b=10).size_for(10)

    def test_single_unit_sample(self):
        with pytest.raises(ConfigError):
            SubsampleConfig().size_for(1)


class TestSubsampleCI:
    def test_point_mass_interval_is_degenerate(self):
        pre = PricePMF([50_000], [30])
        post = PricePMF([50_000], [20])
        res = subsample_ci(pre, post, 0, SubsampleConfig(n_draws=40, seed=1))
        assert res.point == 0.0
        assert res.lower == res.upper == 0.0
        assert np.all(res.draws == 0.0)

    def test_near_full_subsample_tracks_point(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 50, size=12)
        pre = PricePMF(np.arange(12) * 1000, counts)
        post = PricePMF(np.arange(12) * 1000 + 200, counts[::-1])
        cfg = SubsampleConfig(n_draws=1, b=min(pre.n, post.n) - 1, seed=2)
        res = subsample_ci(pre, post, 0, cfg)
        assert res.draws[0] == pytest.approx(res.point, abs=0.05)

    def test_reproducible_and_matches_scalar_cost(self):
        pre = PricePMF([1, 2, 3, 10], [10, 20, 5, 30])
        post = PricePMF([1, 2, 3, 10], [25, 5, 20, 15])
        cfg = SubsampleConfig(n_draws=50, seed=11)
        r1 = subsample_ci(pre, post, 1, cfg)
        r2 = subsample_ci(pre, post, 1, cfg)
        assert np.array_equal(r1.draws, r2.draws)
        assert (r1.lower, r1.upper) == (r2.lower, r2.upper)
        assert r1.point == ot_cost(pre, post, 1)
        for k in range(cfg.n_draws):
            sub = subsample_draw((pre, post), cfg, k)
            assert r1.draws[k] == ot_cost(sub[0], sub[1], 1)

    @pytest.mark.parametrize("estimator", ["before_after", "dit"])
    def test_blocks_match_scalar_oracle(self, monkeypatch, estimator):
        # Every side on its own support, and a scratch budget so small that
        # the full sample and 40 draws take 14 kernel calls, or 82 (two
        # pairs a draw) for the dit estimator.
        pre = PricePMF([1, 4, 9, 30], [10, 20, 5, 30])
        post = PricePMF([2, 4, 12, 25, 40], [25, 5, 20, 15, 7])
        control = None
        if estimator == "dit":
            control = (
                PricePMF([0, 9, 50], [12, 9, 30]),
                PricePMF([3, 8, 31, 50, 70], [8, 11, 9, 20, 4]),
            )
        sides = [pre, post] + list(control or [])
        d = 3
        cfg = SubsampleConfig(n_draws=40, seed=9)

        def scalar(a, b, ca=None, cb=None):
            if control is None:
                return ot_cost(a, b, d)
            return diff_in_transports(a, b, ca, cb, d)

        expected = [scalar(*subsample_draw(sides, cfg, k)) for k in range(cfg.n_draws)]
        kernel = transport._cost_columns
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(transport, "SCRATCH_CELLS", 40)
        monkeypatch.setattr(transport, "_cost_columns", counted)
        res = subsample_ci(pre, post, d, cfg, control=control)
        assert len(calls) >= 14
        assert res.point == scalar(*sides)
        assert res.draws.tolist() == expected
        assert res.n_failed == 0

    def test_draw_columns_are_counts_over_sizes(self, monkeypatch):
        # The sweep writes each draw's counts into its column and scales the
        # block by the sizes once: every column holds the oracle's draw's
        # counts times the other side's subsample size on its own rows, and
        # zero on the other side's.
        sides = [
            PricePMF([1, 4, 9, 30], [10, 20, 5, 30]),
            PricePMF([2, 4, 12, 25, 40], [25, 5, 20, 15, 7]),
            PricePMF([0, 9, 50], [12, 9, 30]),
            PricePMF([3, 8, 31, 50, 70], [8, 11, 9, 20, 4]),
        ]
        cfg = SubsampleConfig(n_draws=7, seed=12)
        kernel, calls = transport._cost_columns, []
        monkeypatch.setattr(transport, "_cost_columns", lambda *args: calls.append(args) or kernel(*args))
        subsample_ci(sides[0], sides[1], 3, cfg, control=(sides[2], sides[3]))
        [(_, _, A, B)] = calls
        src = np.union1d(sides[0].support, sides[2].support)
        tgt = np.union1d(sides[1].support, sides[3].support)

        def lifted(pmf, union, other):
            column = np.zeros(union.size, dtype=np.int64)
            column[np.searchsorted(union, pmf.support)] = pmf.counts * other.n
            return column.tobytes()

        for k in range(cfg.n_draws):
            draw = subsample_draw(sides, cfg, k)
            for i in (0, 1):
                col = 2 * (k + 1) + i
                src_draw, tgt_draw = draw[2 * i], draw[2 * i + 1]
                assert A[:, col].tobytes() == lifted(src_draw, src, tgt_draw)
                assert B[:, col].tobytes() == lifted(tgt_draw, tgt, src_draw)

    def test_interval_orientation_and_width(self):
        pre = PricePMF([1, 2, 3, 10], [10, 20, 5, 30])
        post = PricePMF([1, 2, 3, 10], [25, 5, 20, 15])
        wide = subsample_ci(pre, post, 0, SubsampleConfig(n_draws=80, seed=3))
        narrow = subsample_ci(
            pre, post, 0, SubsampleConfig(n_draws=80, seed=3, alpha=0.5)
        )
        assert wide.lower <= wide.upper
        assert narrow.lower >= wide.lower
        assert narrow.upper <= wide.upper

    def test_dit_estimator_with_control(self):
        pre = PricePMF([1, 2, 3, 10], [10, 20, 5, 30])
        post = PricePMF([1, 2, 3, 10], [25, 5, 20, 15])
        cfg = SubsampleConfig(n_draws=30, seed=7)
        res = subsample_ci(pre, post, 1, cfg, control=(pre, post))
        # Shared data for both pairs: every draw resamples the four sides
        # independently, so values scatter around the null at or below zero.
        assert res.point <= 0.0
        assert res.lower <= res.upper

    def test_dump_draws_csv(self, tmp_path):
        pre = PricePMF([1, 2], [5, 5])
        post = PricePMF([1, 2], [5, 5])
        res = subsample_ci(pre, post, 0, SubsampleConfig(n_draws=3, seed=1))
        path = tmp_path / "draws.csv"
        cli._write_draws(str(path), res.draws)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "draw_index,value"
        assert len(lines) == 4


class TestFromDraws:
    def test_mapped_draws(self):
        # A map applied to the point and the draws after inference gives the
        # interval of the mapped draws.
        pre = PricePMF([1, 2], [50, 50])
        post = PricePMF([1, 2], [20, 80])
        cfg = SubsampleConfig(n_draws=25, seed=13)
        raw = subsample_ci(pre, post, 0, cfg)
        mapped = SubsampleResult.from_draws(2 * raw.point, 2 * raw.draws, cfg.alpha)
        assert mapped.point == 2 * raw.point
        assert np.array_equal(mapped.draws, 2 * raw.draws)
        assert mapped.lower == np.quantile(2 * raw.draws, cfg.alpha / 2)
        assert mapped.upper == np.quantile(2 * raw.draws, 1 - cfg.alpha / 2)
        assert mapped.n_failed == 0

    def test_nan_draws_left_out(self):
        pre = PricePMF([1, 2], [50, 50])
        post = PricePMF([1, 2], [20, 80])
        cfg = SubsampleConfig(n_draws=25, seed=13)
        raw = subsample_ci(pre, post, 0, cfg)
        # The point is 0.3 and the draws run from 0.12 to 0.44.
        capped = np.where(raw.draws > 0.34, np.nan, raw.draws)
        res = SubsampleResult.from_draws(raw.point, capped, cfg.alpha)
        failed = np.isnan(res.draws)
        assert res.point == pytest.approx(0.3)
        assert 0 < res.n_failed == int(failed.sum()) < cfg.n_draws
        kept = raw.draws[raw.draws <= 0.34]
        assert res.lower == np.quantile(kept, cfg.alpha / 2)
        assert res.upper == np.quantile(kept, 1 - cfg.alpha / 2)
        assert res.upper <= 0.34

    def test_every_draw_nan_raises(self):
        with pytest.raises(ConfigError, match="every subsample draw is NaN"):
            SubsampleResult.from_draws(0.3, np.full(5, np.nan), 0.05)


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
            res = subsample_ci(pre, post, d, cfg)
            if res.lower <= res.point <= res.upper:
                covered += 1
        assert covered >= 90
