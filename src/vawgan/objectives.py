"""Scalar training objectives and their combination.

Sign convention: every "loss" here is minimized. The critic's
maximization of the Wasserstein estimate is realized by minimizing its
negation in `training.critic_step`, the critic update. Per parameter
set the objectives are: encoder minimizes recon + KL, generator
minimizes recon + `training.ALPHA` * wasserstein_gap, critic maximizes
wasserstein_gap.

The reconstruction term drops the constant (D/2) log 2pi of the
unit-covariance Gaussian likelihood so a perfect reconstruction reads
exactly zero; reported values are comparable up to that constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import numerics as nm
from .errors import ShapeError
from .numerics import Tensor


def kl_loss(mu, log_var) -> Tensor:
    """Mean over the batch of KL(N(mu, diag exp(log_var)) || N(0, I)).

    Closed form per frame: 0.5 * sum_d (mu^2 + exp(log_var) - log_var - 1).
    Always >= 0, and 0 exactly at the prior.
    """
    mu, log_var = nm.as_tensor(mu), nm.as_tensor(log_var)
    if mu.shape != log_var.shape:
        raise ShapeError(f"kl_loss: mu {mu.shape} vs log_var {log_var.shape}")
    per_dim = nm.sub(nm.add(nm.square(mu), nm.exp(log_var)), nm.add(log_var, 1.0))
    per_frame = nm.reduce_sum(per_dim, axis=1)
    return nm.mul(nm.reduce_mean(per_frame), 0.5)


def recon_loss(x, x_hat) -> Tensor:
    """Mean over the batch of 0.5 * ||x - x_hat||^2 (unit-covariance Gaussian)."""
    x, x_hat = nm.as_tensor(x), nm.as_tensor(x_hat)
    if x.shape != x_hat.shape:
        raise ShapeError(f"recon_loss: x {x.shape} vs x_hat {x_hat.shape}")
    per_frame = nm.reduce_sum(nm.square(nm.sub(x, x_hat)), axis=1)
    return nm.mul(nm.reduce_mean(per_frame), 0.5)


def wgan_objective(real_scores, fake_scores) -> Tensor:
    """mean(D(real)) - mean(D(fake)): the critic ascends it, the generator descends."""
    real_scores, fake_scores = nm.as_tensor(real_scores), nm.as_tensor(fake_scores)
    if real_scores.size == 0 or fake_scores.size == 0:
        raise ShapeError("wgan_objective: score batches must be non-empty")
    return nm.sub(nm.reduce_mean(real_scores), nm.reduce_mean(fake_scores))


@dataclass(frozen=True)
class LossBreakdown:
    """The measured objectives of one training step: KL, reconstruction and the
    Wasserstein gap (0 in the warm-up), whose weight is `training.ALPHA`."""

    j_lat: float
    j_obs: float
    j_wgan: float
