"""Thresholded transport: level recurrence vs. LP oracle vs. dual set certificate."""

import numpy as np
import pytest

from diftrans import cli
from diftrans.errors import ValidationError
from diftrans.pmf import PricePMF
from diftrans.transport import _sweep, ot_cost, solve_ot

from _oracles import (
    brute_2x2_cost,
    brute_dual,
    check_feasible,
    half_l1,
    lp_transport_cost,
    random_pmf,
    set_value,
    sparse_counts,
    strassen_certificate,
)


@pytest.fixture
def two_point():
    a = PricePMF(np.array([1, 2]), np.array([6, 2]))
    b = PricePMF(np.array([1, 2]), np.array([1, 3]))
    return a, b


class TestCost:
    def test_worked_two_point_example(self, two_point):
        a, b = two_point
        assert ot_cost(a, b, 0) == 0.5

    def test_identity_is_free(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_pmf(rng, max_points=12)
            for d in (0, 1, 100):
                assert ot_cost(p, p, d) == 0.0

    def test_brute_2x2_example(self):
        a = PricePMF(np.array([0, 10]), np.array([5, 5]))
        b = PricePMF(np.array([0, 10]), np.array([2, 8]))
        assert ot_cost(a, b, 5) == pytest.approx(0.3, abs=1e-15)
        assert ot_cost(a, b, 5) == pytest.approx(brute_2x2_cost(a, b, 5), abs=1e-12)

    def test_all_moves_free_beyond_span(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = random_pmf(rng, max_points=8, max_price=500)
            b = random_pmf(rng, max_points=8, max_price=500)
            d = int(max(a.support[-1], b.support[-1]))
            assert ot_cost(a, b, d) == 0.0

    def test_range_symmetry_monotonicity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = random_pmf(rng, max_points=20)
            b = random_pmf(rng, max_points=20)
            previous = 1.0 + 1e-12
            for d in (0, 1, 5, 25, 125, 625):
                c = ot_cost(a, b, d)
                assert 0.0 <= c <= 1.0
                assert c <= previous + 1e-12
                assert abs(c - ot_cost(b, a, d)) <= 1e-12
                previous = c

    def test_tv_duality_at_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            a = random_pmf(rng, max_points=15)
            b = random_pmf(rng, max_points=15)
            assert abs(ot_cost(a, b, 0) - half_l1(a, b)) <= 1e-12

    def test_triangle_inequality_oversmoothed(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b, c = (random_pmf(rng, max_points=15) for _ in range(3))
            for d in (0, 1, 5, 1000, 10_000):
                lhs = ot_cost(a, b, 2 * d) - ot_cost(c, b, d)
                assert lhs <= ot_cost(a, c, d) + 1e-10

    def test_lp_oracle_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            a = random_pmf(rng)
            b = random_pmf(rng)
            d = int(rng.integers(0, 1200))
            fast = ot_cost(a, b, d)
            assert abs(fast - lp_transport_cost(a, b, d)) <= 1e-10
            _, dual = strassen_certificate(a, b, d)
            assert abs(fast - dual) <= 1e-10

    def test_disjoint_supports_differ_entirely(self):
        a = PricePMF([0, 5], [1, 1])
        b = PricePMF([1000, 1005], [1, 1])
        assert ot_cost(a, b, 10) == 1.0

    def test_bandwidth_validation(self):
        a = PricePMF([1], [1])
        with pytest.raises(ValidationError):
            ot_cost(a, a, -1)
        with pytest.raises(ValidationError):
            ot_cost(a, a, 0.5)
        with pytest.raises(ValidationError):
            ot_cost(a, a, True)

    @pytest.mark.parametrize("d", [2**63 - 5, 2**63, 10**30])
    def test_bandwidth_past_int64_is_free(self, d):
        # `price + d` would wrap in int64; every move is within such a `d`.
        a = PricePMF([10, 20], [1, 1])
        b = PricePMF([1000, 5000], [1, 1])
        assert ot_cost(a, b, d) == 0.0
        assert solve_ot(a, b, d).cost == 0.0
        assert strassen_certificate(a, b, d) == (set(), 0.0)
        cost, scale = _sweep([(a, b)], [0, d])
        assert (cost / scale[:, None]).tolist() == [[1.0, 0.0]]

    def test_unrepresentable_window_is_validation_error(self):
        top = 2**62 + 2**61
        a = PricePMF([1, top], [1, 1])
        assert ot_cost(a, a, 0) == 0.0
        with pytest.raises(ValidationError, match="overflows int64"):
            ot_cost(a, a, top)


class TestPlan:
    def test_worked_example_plan(self, two_point):
        a, b = two_point
        plan = solve_ot(a, b, 0)
        check_feasible(plan, a, b)
        assert plan.cost == 0.5
        as_matrix = np.zeros((2, 2))
        for i, j, m in plan.entries:
            as_matrix[i, j] += m
        assert np.allclose(as_matrix, np.array([[1, 2], [0, 1]]) / 4)

    def test_identity_plan_is_diagonal(self):
        p = PricePMF([1, 5, 9], [2, 3, 5])
        plan = solve_ot(p, p, 0)
        assert plan.cost == 0.0
        assert all(i == j for i, j, _ in plan.entries)

    def test_random_plans_feasible_and_optimal(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            a = random_pmf(rng, max_points=10)
            b = random_pmf(rng, max_points=10)
            d = int(rng.integers(0, 800))
            plan = solve_ot(a, b, d)
            check_feasible(plan, a, b)
            assert plan.cost == ot_cost(a, b, d)

    def test_plan_csv(self, two_point, tmp_path):
        a, b = two_point
        path = tmp_path / "plan.csv"
        cli._write_plan(str(path), solve_ot(a, b, 0))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "i,j,x_i,x_j,mass"
        assert lines[1].startswith("0,0,1,1,")


class TestCertificate:
    def test_worked_example_value(self, two_point):
        a, b = two_point
        best, value = strassen_certificate(a, b, 0)
        assert value == 0.5
        assert best == {0}

    def test_identity_gives_zero_and_empty_set(self):
        p = PricePMF([1, 2, 3], [1, 1, 1])
        best, value = strassen_certificate(p, p, 5)
        assert value == 0.0
        assert best == set()

    def test_disjoint_far_supports(self):
        a = PricePMF([0, 5], [1, 1])
        b = PricePMF([1000, 1005], [1, 1])
        best, value = strassen_certificate(a, b, 10)
        assert value == 1.0
        assert best == {0, 1}

    def test_size_cap(self):
        # No size cap: 13 points (once past an enumeration cap) and 2,000 points
        # both give the primal value and a set that attains it.
        rng = np.random.default_rng(13)
        for n in (13, 2000):
            support = np.arange(n) * 100
            a = PricePMF(support, sparse_counts(rng, n, 0.3))
            b = PricePMF(support + 50, sparse_counts(rng, n, 0.3))
            for d in (0, 50, 500):
                best, value = strassen_certificate(a, b, d)
                assert abs(value - ot_cost(a, b, d)) <= 1e-12
                assert abs(value - set_value(a, b, d, best)) <= 1e-12

    def test_heuristic_subsets(self, two_point):
        # Any hand-picked family of sets is a lower bound on the scan's value,
        # and the scan's set is at least as good as the best of them.
        a, b = two_point
        best, value = strassen_certificate(a, b, 0)
        family = [set(), {0}, {1}, {0, 1}]
        assert max(set_value(a, b, 0, s) for s in family) == value == 0.5
        assert best == {0}
        assert set_value(a, b, 0, {1}) <= value

    def test_matches_brute_force_dual(self):
        # At most 12 combined points, zero masses, bandwidths past the span.
        rng = np.random.default_rng(8)
        for _ in range(100):
            na = int(rng.integers(1, 12))
            nb = int(rng.integers(1, 13 - na))
            a, b = (
                PricePMF(
                    np.sort(rng.choice(60, size=k, replace=False)), sparse_counts(rng, k, 0.3)
                )
                for k in (na, nb)
            )
            d = int(rng.integers(0, 70))
            best, value = strassen_certificate(a, b, d)
            assert abs(value - brute_dual(a, b, d)) <= 1e-12
            assert abs(value - set_value(a, b, d, best)) <= 1e-12
