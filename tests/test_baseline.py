"""Saturated 2x2 log-price regression."""

import math

import numpy as np
import pytest

from diftrans.baseline import did_ols
from diftrans.errors import ValidationError


def cells_to_arrays(cell_logs, weights=None):
    """Build row arrays from per-cell log-price lists keyed (treated, post)."""
    treated, post, price, weight = [], [], [], []
    for (t, p), logs in cell_logs.items():
        for i, v in enumerate(logs):
            treated.append(bool(t))
            post.append(bool(p))
            price.append(math.exp(v))
            weight.append(1 if weights is None else weights[(t, p)][i])
    return treated, post, price, weight


class TestIdentities:
    def test_cell_mean_example(self):
        cell_logs = {
            (1, 0): [1.0],
            (1, 1): [1.5],
            (0, 0): [0.5],
            (0, 1): [0.7],
        }
        res = did_ols(*cells_to_arrays(cell_logs))
        assert res.alpha3 == pytest.approx(0.3, abs=1e-12)
        assert res.alpha0 == pytest.approx(0.5, abs=1e-12)
        assert res.alpha1 == pytest.approx(0.5, abs=1e-12)
        assert res.alpha2 == pytest.approx(0.2, abs=1e-12)

    def test_identical_cities_zero_effects(self):
        prices_pre = [100_000, 120_000, 90_000]
        prices_post = [110_000, 105_000]
        treated, post, price, weight = [], [], [], []
        for is_treated in (True, False):
            for p in prices_pre:
                treated.append(is_treated), post.append(False), price.append(p), weight.append(2)
            for p in prices_post:
                treated.append(is_treated), post.append(True), price.append(p), weight.append(3)
        res = did_ols(treated, post, price, weight)
        assert res.alpha1 == 0.0
        assert res.alpha3 == 0.0

    def test_scaling_prices_shifts_only_intercept(self):
        rng = np.random.default_rng(4)
        treated = rng.integers(0, 2, 50).astype(bool)
        post = rng.integers(0, 2, 50).astype(bool)
        price = rng.uniform(1e4, 1e6, 50)
        weight = rng.integers(1, 9, 50)
        _force_full_design(treated, post)
        base = did_ols(treated, post, price, weight)
        scaled = did_ols(treated, post, price * 7.0, weight)
        assert scaled.alpha0 == pytest.approx(base.alpha0 + math.log(7.0), abs=1e-10)
        assert scaled.alpha1 == pytest.approx(base.alpha1, abs=1e-10)
        assert scaled.alpha2 == pytest.approx(base.alpha2, abs=1e-10)
        assert scaled.alpha3 == pytest.approx(base.alpha3, abs=1e-10)

    def test_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(8, 60))
            treated = rng.integers(0, 2, n).astype(bool)
            post = rng.integers(0, 2, n).astype(bool)
            _force_full_design(treated, post)
            price = rng.uniform(1e3, 1e6, n)
            weight = rng.integers(1, 20, n)
            res = did_ols(treated, post, price, weight)
            X = np.column_stack(
                [np.ones(n), treated, post, treated & post]
            ).astype(float)
            W = np.diag(weight.astype(float))
            beta = np.linalg.solve(X.T @ W @ X, X.T @ W @ np.log(price))
            assert np.allclose(
                [res.alpha0, res.alpha1, res.alpha2, res.alpha3], beta, atol=1e-10
            )

    def test_classical_errors_match_row_expansion(self):
        rng = np.random.default_rng(6)
        n = 30
        treated = rng.integers(0, 2, n).astype(bool)
        post = rng.integers(0, 2, n).astype(bool)
        _force_full_design(treated, post)
        price = rng.uniform(1e3, 1e6, n)
        weight = rng.integers(1, 6, n)
        res = did_ols(treated, post, price, weight)
        # Expand every row into `weight` unit rows and run plain OLS algebra.
        T = np.repeat(treated, weight)
        P = np.repeat(post, weight)
        y = np.repeat(np.log(price), weight)
        X = np.column_stack([np.ones(y.size), T, P, T & P]).astype(float)
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        resid = y - X @ beta
        sigma2 = resid @ resid / (y.size - 4)
        se = np.sqrt(np.diag(sigma2 * np.linalg.inv(X.T @ X)))
        assert np.allclose(res.se, se, rtol=1e-9)
        assert res.n_obs == y.size
        r2 = 1 - (resid @ resid) / np.sum((y - y.mean()) ** 2)
        assert res.r2 == pytest.approx(r2, abs=1e-12)

    def test_rows_weighting_ignores_quantities(self):
        treated = [True, True, False, False]
        post = [False, True, False, True]
        price = [10.0, 20.0, 10.0, 15.0]
        # No weights count each row once, as unit weights do.
        by_rows = did_ols(treated, post, price, None)
        unit_weights = did_ols(treated, post, price, [1, 1, 1, 1])
        assert by_rows.alpha3 == unit_weights.alpha3
        assert by_rows.n_obs == 4


class TestErrors:
    def test_empty_cell(self):
        with pytest.raises(ValidationError, match="design singular"):
            did_ols([True, True], [False, True], [10.0, 20.0], [1, 1])

    def test_nonpositive_price(self):
        with pytest.raises(ValidationError, match="positive prices"):
            did_ols(
                [True, True, False, False],
                [False, True, False, True],
                [10.0, 0.0, 10.0, 15.0],
                [1, 1, 1, 1],
            )


def _force_full_design(treated, post):
    """Overwrite the first four rows so every (treated, post) cell is filled."""
    treated[:4] = [False, False, True, True]
    post[:4] = [False, True, False, True]
