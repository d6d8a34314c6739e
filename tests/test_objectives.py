import dataclasses

import numpy as np
import pytest

from vawgan import numerics as nm
from vawgan import objectives as obj
from vawgan import training as tr
from vawgan.errors import ShapeError
from vawgan.numerics import Tensor


def mc_kl_estimate(mu, log_var, n_samples, seed):
    """Monte-Carlo oracle: E_q[log q(z) - log p(z)] with z ~ N(mu, exp(log_var))."""
    rng = np.random.default_rng(seed)
    std = np.exp(0.5 * log_var)
    totals = np.zeros(mu.shape[0])
    for i in range(mu.shape[0]):
        z = mu[i] + std[i] * rng.standard_normal((n_samples, mu.shape[1]))
        log_q = -0.5 * (((z - mu[i]) / std[i]) ** 2 + log_var[i] + np.log(2 * np.pi)).sum(axis=1)
        log_p = -0.5 * (z**2 + np.log(2 * np.pi)).sum(axis=1)
        totals[i] = (log_q - log_p).mean()
    return totals.mean()


class TestKlLoss:
    def test_prior_matches_prior(self):
        assert obj.kl_loss(np.zeros((3, 4)), np.zeros((3, 4))).item() == 0.0

    def test_unit_mean_shift_closed_form(self):
        assert obj.kl_loss(np.ones((1, 1)), np.zeros((1, 1))).item() == pytest.approx(0.5)

    def test_against_monte_carlo_oracle(self):
        rng = np.random.default_rng(42)
        mu = rng.uniform(-2, 2, size=(4, 6))
        log_var = rng.uniform(-1, 1, size=(4, 6))
        closed = obj.kl_loss(mu, log_var).item()
        estimate = mc_kl_estimate(mu, log_var, n_samples=100_000, seed=7)
        assert abs(estimate - closed) / closed < 0.01

    def test_nonnegative_and_zero_only_at_prior(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mu = rng.normal(size=(2, 3))
            log_var = rng.normal(size=(2, 3))
            value = obj.kl_loss(mu, log_var).item()
            assert value >= 0.0
            if abs(value) < 1e-9:
                np.testing.assert_allclose(mu, 0.0, atol=1e-4)
                np.testing.assert_allclose(log_var, 0.0, atol=1e-4)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError, match=r"kl_loss: mu \(2, 3\) vs log_var \(2, 4\)"):
            obj.kl_loss(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_monte_carlo_error_shrinks_like_sqrt_n(self):
        rng = np.random.default_rng(5)
        mu = rng.uniform(-2, 2, size=(2, 4))
        log_var = rng.uniform(-1, 1, size=(2, 4))
        closed = obj.kl_loss(mu, log_var).item()
        errors = []
        for n in (10**3, 10**4, 10**5):
            runs = [abs(mc_kl_estimate(mu, log_var, n, seed=s) - closed) for s in range(5)]
            errors.append(np.mean(runs))
        # each decade of samples should shrink the error roughly 3x; allow slack
        assert errors[2] < errors[0] / 3.0
        assert errors[1] < errors[0]


class TestReconLoss:
    def test_perfect_reconstruction_is_zero(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        assert obj.recon_loss(x, x).item() == 0.0

    def test_unit_offset_in_24_dims(self):
        x = np.zeros((7, 24))
        assert obj.recon_loss(x, x + 1.0).item() == pytest.approx(12.0)

    def test_against_naive_summation_oracle(self):
        rng = np.random.default_rng(8)
        x, x_hat = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        naive = 0.0
        for i in range(6):
            for d in range(5):
                naive += 0.5 * (x[i, d] - x_hat[i, d]) ** 2
        naive /= 6
        assert abs(obj.recon_loss(x, x_hat).item() - naive) < 1e-10

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError, match=r"recon_loss: x \(2, 3\) vs x_hat \(3, 3\)"):
            obj.recon_loss(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        x, x_hat = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        assert obj.recon_loss(x, x_hat).item() == obj.recon_loss(x_hat, x).item()


class TestWganObjective:
    def test_constant_critic_scores_zero(self):
        assert obj.wgan_objective(np.full(4, 2.5), np.full(9, 2.5)).item() == 0.0

    def test_mean_gap(self):
        assert obj.wgan_objective(np.array([1.0, 3.0]), np.array([0.0])).item() == 2.0

    def test_linear_critic_analytic_oracle(self):
        # with D(x) = sum(x) the objective is mean-sum(real) - mean-sum(fake)
        rng = np.random.default_rng(12)
        real = rng.normal(size=(8, 4))
        fake = rng.normal(size=(6, 4))
        value = obj.wgan_objective(real.sum(axis=1), fake.sum(axis=1)).item()
        assert value == pytest.approx(real.sum(axis=1).mean() - fake.sum(axis=1).mean())

    def test_invariant_to_critic_constant_shift(self):
        rng = np.random.default_rng(13)
        real, fake = rng.normal(size=10), rng.normal(size=10)
        base = obj.wgan_objective(real, fake).item()
        shifted = obj.wgan_objective(real + 17.5, fake + 17.5).item()
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_rejects_empty_batch(self):
        for real, fake in ((np.zeros(0), np.zeros(2)), (np.zeros(2), np.zeros(0))):
            with pytest.raises(ShapeError, match="wgan_objective: score batches must be non-empty"):
                obj.wgan_objective(real, fake)

    def test_gradient_signs_match_roles(self):
        real = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        fake = Tensor(np.array([0.5]), requires_grad=True)
        nm.backward(obj.wgan_objective(real, fake))
        assert (real.grad > 0).all()  # ascending the objective raises real scores
        assert (fake.grad < 0).all()


class TestVawganTotal:
    def test_default_joint_phase_weight_is_50(self):
        assert tr.ALPHA == 50.0

    def test_step_settings_are_the_fixed_configuration(self):
        assert (tr.BATCH_SIZE, tr.N_CRITIC, tr.LEARNING_RATE) == (256, 5, 5e-5)

    def test_breakdown_holds_only_the_measured_parts(self):
        assert [f.name for f in dataclasses.fields(obj.LossBreakdown)] == ["j_lat", "j_obs", "j_wgan"]
