import math

import numpy as np
import pytest

from minisvs import diffusion as df
from minisvs.autodiff import NumericalError, Tensor

SCHED = df.NoiseSchedule()  # beta0 0.05, betaT 20, T 1


class TestSchedule:
    def test_endpoint_values(self):
        assert df.beta_at(SCHED, 0.0) == 0.05
        assert df.beta_at(SCHED, 1.0) == 20.0

    def test_integral_closed_form_vs_quadrature(self):
        closed = df.integral_beta(SCHED, 0.0, 1.0)
        assert abs(closed - 10.025) < 1e-12
        ts = np.linspace(0.0, 1.0, 2_000_001)
        quad = np.trapezoid(0.05 + (20.0 - 0.05) * ts, ts)
        assert abs(closed - quad) / closed < 1e-10

    def test_empty_interval_zero(self):
        for t in (0.0, 0.31, 1.0):
            assert df.integral_beta(SCHED, t, t) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            df.beta_at(SCHED, 1.5)
        with pytest.raises(ValueError):
            df.integral_beta(SCHED, 0.5, 0.2)
        with pytest.raises(ValueError):
            df.NoiseSchedule(beta0=2.0, beta_t=1.0)


class TestTransition:
    Z0 = np.array([[0.5, -1.0, 2.0, 1.6]])
    MU = np.array([[1.5, -2.0, 1.0, 0.8]])

    def test_identity_at_t0(self):
        p = df.transition(SCHED, self.Z0, self.MU, 0.0)
        assert np.array_equal(p.rho, self.Z0)
        assert p.lam == 0.0

    def test_t1_closed_form_values(self):
        p = df.transition(SCHED, self.Z0, self.MU, 1.0)
        assert abs(p.lam - (1.0 - math.exp(-10.025))) < 1e-15
        w = math.exp(-10.025 / 2)
        assert abs(w - 0.006654246877) < 1e-9
        expect = (1 - w) * self.MU + w * self.Z0
        assert np.allclose(p.rho, expect, atol=1e-15)

    def test_mu_fixed_point(self):
        for t in (0.1, 0.5, 0.9):
            p = df.transition(SCHED, self.MU, self.MU, t)
            assert np.allclose(p.rho, self.MU, atol=1e-12)

    def test_lambda_strictly_increasing_in_unit_interval(self):
        ts = np.linspace(0.01, 1.0, 50)
        lams = [df.transition(SCHED, self.Z0, self.MU, float(t)).lam for t in ts]
        assert all(0 < v < 1 for v in lams)
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            df.transition(SCHED, np.zeros((2, 3)), np.zeros((3, 3)), 0.5)


class TestForwardSample:
    Z0 = np.array([[0.5, -1.0, 2.0, 1.6]])
    MU = np.array([[1.5, -2.0, 1.0, 0.8]])

    def test_zero_noise_lands_on_rho(self):
        z_t, target = df.forward_sample(SCHED, self.Z0, self.MU, 0.5, np.zeros((1, 4)))
        p = df.transition(SCHED, self.Z0, self.MU, 0.5)
        assert np.allclose(z_t, p.rho, atol=1e-15)
        assert np.all(target == 0)

    def test_t0_rejected(self):
        with pytest.raises(ValueError):
            df.forward_sample(SCHED, self.Z0, self.MU, 0.0, np.zeros((1, 4)))

    def test_target_identity_holds_to_rounding(self):
        rng = np.random.default_rng(0)
        for t in (0.05, 0.4, 1.0):
            eps = rng.standard_normal((10, 4))
            z_t, target = df.forward_sample(
                SCHED, np.repeat(self.Z0, 10, 0), np.repeat(self.MU, 10, 0), t, eps
            )
            p = df.transition(SCHED, np.repeat(self.Z0, 10, 0), np.repeat(self.MU, 10, 0), t)
            resid = target * p.lam + (z_t - p.rho)
            assert np.abs(resid).max() < 1e-12 * max(1.0, np.abs(z_t - p.rho).max())

    def test_monte_carlo_moments_match_transition(self):
        rng = np.random.default_rng(1)
        n = 100_000
        eps = rng.standard_normal((n, 4))
        z_t, _ = df.forward_sample(
            SCHED, np.repeat(self.Z0, n, 0), np.repeat(self.MU, n, 0), 0.5, eps
        )
        p = df.transition(SCHED, self.Z0, self.MU, 0.5)
        assert np.abs(z_t.mean(0) - p.rho[0]).max() / np.abs(p.rho[0]).min() < 0.01
        assert abs(z_t.var(0).mean() - p.lam) / p.lam < 0.01


class TestPriorLoss:
    def test_equal_inputs_half_log_2pi(self):
        z = np.ones((3, 4))
        assert abs(df.prior_loss(z, z) - 0.5 * math.log(2 * math.pi)) < 1e-12

    def test_constant_gap_of_two(self):
        z = np.zeros((2, 5))
        assert abs(df.prior_loss(z + 2.0, z) - (2.0 + 0.5 * math.log(2 * math.pi))) < 1e-12

    def test_gradient_wrt_mu_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        z0 = rng.standard_normal((3, 4))
        mu = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        loss = df.prior_loss(z0, mu)
        loss.backward()
        analytic = mu.grad.copy()
        expect = (mu.data - z0) / z0.size
        assert np.abs(analytic - expect).max() < 1e-12
        h = 1e-6
        for idx in ((0, 0), (1, 2), (2, 3)):
            orig = mu.data[idx]
            mu.data[idx] = orig + h
            fp = float(df.prior_loss(z0, mu.data))
            mu.data[idx] = orig - h
            fm = float(df.prior_loss(z0, mu.data))
            mu.data[idx] = orig
            num = (fp - fm) / (2 * h)
            assert abs(num - analytic[idx]) / max(abs(num), 1e-9) < 1e-6


class TestDiffusionLoss:
    def test_exact_transition_score_gives_zero_loss(self):
        # data drawn from a Gaussian; the conditioning carries z0 so the
        # closed-form transition-density score is available to the "net"
        rng = np.random.default_rng(5)
        mu = np.zeros((8, 4))
        z0s = [rng.standard_normal((8, 4)) * 0.7 + 0.3 for _ in range(16)]

        def exact_score(z_t, m, h_cond, t):
            p = df.transition(SCHED, h_cond, m, t)
            return -(z_t - p.rho) / p.lam

        draw = np.random.default_rng(6)
        ts = [float(draw.uniform(1e-3, 1.0)) for _ in z0s]
        losses = [
            df.diffusion_loss(exact_score, z0, mu, z0, SCHED, t, draw.standard_normal(z0.shape))
            for z0, t in zip(z0s, ts)
        ]
        assert float(np.mean(losses)) < 1e-12

    def test_zero_score_expectation_is_d_over_lambda(self):
        rng = np.random.default_rng(7)
        d_dim = 4
        lam = df.transition(SCHED, np.zeros((1, d_dim)), np.zeros((1, d_dim)), 0.5).lam
        zeros = np.zeros((200, 64, d_dim))
        loss = df.diffusion_loss(
            lambda z, m, h, t: np.zeros_like(z),
            zeros,
            zeros,
            None,
            SCHED,
            0.5,
            rng.standard_normal(zeros.shape),
        )
        raw = float(loss) / lam
        assert abs(raw - d_dim / lam) / (d_dim / lam) < 0.02

    def test_marginal_score_hits_analytic_floor(self):
        # with data N(mu, sigma^2 I) and the marginal score, the weighted
        # per-dim loss is a^2 sigma^2 / (a^2 sigma^2 + lam) at each t
        rng = np.random.default_rng(8)
        sigma = 0.5
        d_dim = 4
        mu = np.zeros((300, 32, d_dim))
        t_fix = 0.35
        ib = df.integral_beta(SCHED, 0.0, t_fix)
        a2 = math.exp(-ib)
        lam = 1 - math.exp(-ib)
        floor = a2 * sigma**2 / (a2 * sigma**2 + lam) * d_dim

        def marginal_score(z, m, h, t):
            return -(z - m) / (a2 * sigma**2 + lam)

        z0 = rng.standard_normal(mu.shape) * sigma
        loss = df.diffusion_loss(
            marginal_score, z0, mu, None, SCHED, t_fix, rng.standard_normal(z0.shape)
        )
        assert abs(float(loss) - floor) / floor < 0.05

    @pytest.mark.parametrize("t", [0.42, np.array([0.05, 0.3, 0.42, 0.77, 1.0])],
                             ids=["one-t", "t-per-window"])
    def test_stacked_call_is_the_mean_of_per_window_calls(self, t):
        rng = np.random.default_rng(10)
        z0, mu, h = (rng.standard_normal((5, 12, 4)) for _ in range(3))
        noise = rng.standard_normal(z0.shape)

        def score(z, m, h_cond, t):
            return np.tanh(z - m) * np.reshape(t, np.shape(t) + (1, 1)) + 0.3 * h_cond

        stacked = df.diffusion_loss(score, z0, mu, h, SCHED, t, noise)
        ts = np.broadcast_to(t, 5)
        per_window = [
            df.diffusion_loss(score, z0[b], mu[b], h[b], SCHED, ts[b], noise[b]) for b in range(5)
        ]
        assert abs(stacked - np.mean(per_window)) <= 1e-12 * abs(stacked)

    def test_duplicate_rows_give_identical_per_row_losses(self):
        rng = np.random.default_rng(9)
        z0 = np.repeat(rng.standard_normal((1, 4)), 6, axis=0)
        mu = np.repeat(rng.standard_normal((1, 4)), 6, axis=0)
        eps_row = rng.standard_normal((1, 4))
        z_t, target = df.forward_sample(SCHED, z0, mu, 0.5, np.repeat(eps_row, 6, 0))
        per_row = ((np.zeros_like(z_t) - target) ** 2).sum(axis=1)
        assert np.allclose(per_row, per_row[0])


class TestReverseSampler:
    MU = np.array([[1.0, -0.5, 0.3, 2.0]])

    @staticmethod
    def _analytic_score(sigma):
        def fn(z, m, h, t):
            ib = df.integral_beta(SCHED, 0.0, t)
            lam = 1.0 - math.exp(-ib)
            return -(z - m) / (math.exp(-ib) * sigma**2 + lam)

        return fn

    def test_tau_inf_one_step_zero_score_returns_mu(self):
        out = df.reverse_sample(
            lambda z, m, h, t: np.zeros_like(z),
            self.MU,
            None,
            SCHED,
            df.SamplerConfig(steps=1, tau=math.inf, seed=0),
        )
        assert np.array_equal(out, self.MU)

    def test_gaussian_oracle_recovery(self):
        n = 10_000
        mu = np.repeat(self.MU, n, 0)
        out = df.reverse_sample(
            self._analytic_score(0.5), mu, None, SCHED,
            df.SamplerConfig(steps=200, tau=1.0, seed=11),
        )
        assert np.abs(out.mean(0) - self.MU[0]).max() < 0.02
        assert np.abs(out.std(0) - 0.5).max() / 0.5 < 0.05

    def test_error_shrinks_with_more_steps(self):
        n = 10_000
        mu = np.repeat(self.MU, n, 0)

        def err(steps):
            out = df.reverse_sample(
                self._analytic_score(0.5), mu, None, SCHED,
                df.SamplerConfig(steps=steps, tau=1.0, seed=12),
            )
            return np.abs(out.mean(0) - self.MU[0]).max() + np.abs(out.std(0) - 0.5).max()

        assert err(200) < err(20)

    def test_same_seed_bit_identical(self):
        a = df.reverse_sample(
            self._analytic_score(0.3), self.MU, None, SCHED,
            df.SamplerConfig(steps=40, tau=1.5, seed=5),
        )
        b = df.reverse_sample(
            self._analytic_score(0.3), self.MU, None, SCHED,
            df.SamplerConfig(steps=40, tau=1.5, seed=5),
        )
        assert np.array_equal(a, b)

    def test_nonfinite_score_names_the_step(self):
        def bad(z, m, h, t):
            return np.full_like(z, np.nan)

        with pytest.raises(NumericalError, match="step 0"):
            df.reverse_sample(bad, self.MU, None, SCHED, df.SamplerConfig(steps=4, tau=1.0, seed=0))

    def test_tau_below_one_rejected(self):
        with pytest.raises(ValueError):
            df.SamplerConfig(steps=10, tau=0.5, seed=0)


class TestNormalize:
    def test_identity_stats(self):
        z = np.random.default_rng(13).standard_normal((6, 3))
        out = df.normalize_latent(z, np.zeros(3), np.ones(3))
        assert np.array_equal(out, z)

    def test_constant_dim_maps_to_zero(self):
        z = np.full((5, 2), 3.7)
        out = df.normalize_latent(z, np.array([3.7, 0.0]), np.array([1.0, 2.0]))
        assert np.all(out[:, 0] == 0)

    def test_roundtrip(self):
        rng = np.random.default_rng(14)
        z = rng.standard_normal((20, 5)) * 3 + 1
        mean, std = df.latent_stats(z)
        back = df.denormalize_latent(df.normalize_latent(z, mean, std), mean, std)
        assert np.abs(back - z).max() < 1e-6

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError):
            df.normalize_latent(np.ones((3, 2)), np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            df.latent_stats(np.ones((10, 2)))

    def test_composed_latent_generator_loss_is_additive(self):
        from minisvs import losses

        total = losses.latent_generator_total(1.25, 2.0, 0.5, [0.125])
        assert abs(total - (1.25 + 1.0 + 0.125)) < 1e-12
