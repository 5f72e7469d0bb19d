"""Simplex least squares for the buyer-composition correction."""

import numpy as np
import pytest

from diftrans.errors import IdentificationError, ValidationError
from diftrans.estimators import (
    CompositionInputs,
    composition_correction,
    composition_fit,
    project_simplex,
)
from diftrans.pmf import PricePMF
from diftrans.transport import ot_cost

from _oracles import project_simplex_reference


def pmf(support, counts):
    return PricePMF.from_counts(support, counts)


def inputs_for(phi_f_targets, pmfs, rho=0.5, **kwargs):
    """License counts engineered so that rho * L_t / n_t hits the target shares."""
    monthly = tuple((t, p) for t, p in enumerate(pmfs))
    licenses = tuple(
        (t, int(round(phi * p.n / rho))) for t, (phi, p) in enumerate(zip(phi_f_targets, pmfs))
    )
    return CompositionInputs(monthly, licenses, rho=rho, **kwargs)


class TestInputs:
    def test_phi_recovered(self):
        p = pmf([1, 2], [5, 5])
        inp = inputs_for([0.4, 0.8], [p, p])
        phi_f, phi_r = inp.phi()
        assert phi_f.tolist() == [0.4, 0.8]
        assert phi_r == pytest.approx([0.6, 0.2], abs=1e-15)

    def test_phi_outside_unit_interval_rejected(self):
        p = pmf([1, 2], [5, 5])
        with pytest.raises(ValidationError, match="first-time share"):
            CompositionInputs(((0, p),), ((0, 100),), rho=0.5)

    def test_missing_license_count(self):
        p = pmf([1], [5])
        with pytest.raises(ValidationError, match="no license count"):
            CompositionInputs(((0, p),), ((1, 2),))

    def test_theta_must_sum_to_one(self):
        p = pmf([1], [5])
        with pytest.raises(ValidationError, match="theta_pre"):
            CompositionInputs(((0, p),), ((0, 2),), theta_pre=(0.7, 0.7))


class TestFit:
    def test_all_first_time_corner_returns_flagged_mean(self):
        p1 = pmf([1, 2], [6, 2])
        p2 = pmf([1, 2], [2, 6])
        est = composition_fit(inputs_for([1.0, 1.0], [p1, p2], rho=1.0))
        assert not est.r_identified
        assert np.allclose(est.f_hat.mass, [0.5, 0.5])
        assert est.r_hat == est.f_hat

    def test_identical_interior_shares_not_identified(self):
        p1 = pmf([1, 2], [6, 2])
        p2 = pmf([1, 2], [2, 6])
        with pytest.raises(IdentificationError):
            composition_fit(inputs_for([0.5, 0.5], [p1, p2]))

    def test_separable_corner_recovers_each_period(self):
        p1 = pmf([1, 2, 3], [6, 2, 2])
        p2 = pmf([1, 2, 3], [1, 1, 8])
        est = composition_fit(inputs_for([1.0, 0.0], [p1, p2], rho=1.0))
        assert np.allclose(est.f_hat.mass, p1.mass, atol=1e-7)
        assert np.allclose(est.r_hat.mass, p2.mass, atol=1e-7)
        assert est.residual_ss <= 1e-12

    def test_random_instance_matches_grid_oracle(self):
        # 0.01-resolution search over the f simplex with the r half solved
        # exactly per grid point; the projected-gradient objective must match.
        rng = np.random.default_rng(21)
        for _ in range(3):
            phi_f = rng.uniform(0.15, 0.9, size=3)
            f_true = rng.dirichlet(np.ones(4))
            r_true = rng.dirichlet(np.ones(4))
            support = [10, 20, 30, 40]
            pmfs = []
            for t in range(3):
                mix = phi_f[t] * f_true + (1 - phi_f[t]) * r_true
                noisy = np.clip(mix + rng.normal(0, 0.02, 4), 1e-3, None)
                counts = np.rint(noisy / noisy.sum() * 10_000).astype(int)
                counts[0] += 10_000 - counts.sum()
                pmfs.append(pmf(support, counts))
            inp = inputs_for(phi_f.tolist(), pmfs)
            est = composition_fit(inp)

            phi_fv, phi_rv = inp.phi()
            P = np.stack([p.mass for p in pmfs])
            sum_r2 = float(np.sum(phi_rv**2))
            grid = _simplex_grid(4, 100)
            # For each grid f, the best r is the simplex projection of the
            # unconstrained least-squares center; both steps vectorize.
            c0 = (phi_rv[:, None] * P).sum(axis=0) / sum_r2
            c1 = float(np.sum(phi_rv * phi_fv)) / sum_r2
            centers = c0[None, :] - c1 * grid
            R = _project_rows(centers)
            fits = (
                phi_fv[None, :, None] * grid[:, None, :]
                + phi_rv[None, :, None] * R[:, None, :]
                - P[None, :, :]
            )
            best = float(np.min(np.sum(fits**2, axis=(1, 2))))
            assert est.residual_ss <= best + 1e-12
            assert best - est.residual_ss <= 1e-4

    def test_rerunning_from_solution_does_not_increase_objective(self):
        p1 = pmf([1, 2, 3], [6, 2, 2])
        p2 = pmf([1, 2, 3], [1, 1, 8])
        p3 = pmf([1, 2, 3], [3, 4, 3])
        inp = inputs_for([0.9, 0.2, 0.5], [p1, p2, p3])
        est = composition_fit(inp)
        again = composition_fit(inp, f0=est.f_hat.mass, r0=est.r_hat.mass)
        assert again.residual_ss <= est.residual_ss + 1e-12

    def test_simplex_constraints_hold(self):
        p1 = pmf([1, 2, 3], [6, 2, 2])
        p2 = pmf([1, 2, 3], [1, 1, 8])
        est = composition_fit(inputs_for([0.8, 0.3], [p1, p2]))
        for m in (est.f_hat.mass, est.r_hat.mass):
            assert np.all(m >= 0)
            assert abs(m.sum() - 1.0) <= 1e-12
        assert est.kkt_norm < 1e-8


class TestCorrection:
    def test_equal_distributions_cost_zero(self):
        p1 = pmf([1, 2, 3], [6, 2, 2])
        p2 = pmf([1, 2, 3], [1, 1, 8])
        est = composition_fit(inputs_for([0.8, 0.3], [p1, p2]))
        est.r_hat = est.f_hat
        corr = composition_correction(est, [0, 1, 5])
        assert all(v == 0.0 for v in corr.values())

    def test_disjoint_supports_cost_one(self):
        f = pmf([0, 5], [1, 1])
        r = pmf([1000, 1005], [1, 1])
        est = composition_fit(inputs_for([1.0, 0.0], [f, r], rho=1.0))
        corr = composition_correction(est, [0, 10, 100])
        assert all(v == pytest.approx(1.0, abs=1e-7) for v in corr.values())

    def test_equals_scalar_cost_per_d(self):
        # An identified fit on a wider support, some prices without units.
        rng = np.random.default_rng(3)
        support = np.arange(0, 4000, 250)
        pmfs = [pmf(support, rng.integers(0, 40, size=support.size)) for _ in range(3)]
        est = composition_fit(inputs_for([0.8, 0.5, 0.2], pmfs))
        grid = [0, 100, 250, 600, 1000, 3000, 5000]
        corr = composition_correction(est, grid)
        assert list(corr) == grid
        assert len(set(corr.values())) > 2
        for d, v in corr.items():
            assert type(v) is float
            assert v == ot_cost(est.f_hat, est.r_hat, d)

    def test_matches_transport_module(self):
        p1 = pmf([1, 2, 3], [6, 2, 2])
        p2 = pmf([1, 2, 3], [1, 1, 8])
        est = composition_fit(
            inputs_for([1.0, 0.0], [p1, p2], rho=1.0, theta_pre=(0.6, 0.4), theta_post=(0.2, 0.8))
        )
        corr = composition_correction(est, [0, 1])
        for d, v in corr.items():
            assert v == ot_cost(est.f_hat, est.r_hat, d)
        assert np.allclose(
            est.p_pre_hat.mass, 0.6 * est.f_hat.mass + 0.4 * est.r_hat.mass
        )
        assert np.allclose(
            est.p_post_hat.mass, 0.2 * est.f_hat.mass + 0.8 * est.r_hat.mass
        )


class TestProjection:
    def test_matches_reference_on_random_vectors(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            y = rng.normal(0, 2, size=int(rng.integers(2, 12)))
            fast = project_simplex(y)
            slow = project_simplex_reference(y)
            assert np.allclose(fast, slow, atol=1e-9)
            assert abs(fast.sum() - 1.0) <= 1e-12
            assert np.all(fast >= 0)


def _simplex_grid(k, steps):
    """All probability vectors on a 1/steps lattice over k coordinates."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], steps, k)
    return np.array(out, dtype=float) / steps


def _project_rows(Y):
    """Row-wise Euclidean simplex projection (sorting form, vectorized)."""
    u = -np.sort(-Y, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    ks = np.arange(1, Y.shape[1] + 1)
    cond = u - css / ks > 0
    rho = Y.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(Y.shape[0]), rho] / (rho + 1.0)
    return np.maximum(Y - theta[:, None], 0.0)
