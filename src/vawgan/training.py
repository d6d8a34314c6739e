"""The paper's two training phases on the package's own networks.

Phase 1, ``warmup_step``, is the VAE-VC baseline (alpha = 0, Hsu et al.
2016, arXiv:1610.04019): the encoder and generator minimize recon + KL
and the critic is not touched. Phase 2, ``joint_step``, follows WGAN
Algorithm 1 (Arjovsky et al. 2017): ``N_CRITIC`` weight-clipped critic
updates that ascend the Wasserstein gap between real target frames and
source frames converted to the target, then one encoder + generator
update: the encoder minimizes recon + KL, the generator recon + alpha * W.

Every parameter update is RMSProp. A step draws every batch index and
every reparameterization draw from the ``RngState`` it is given, so a
run is reproducible from ``(seed, counter)`` and the optimizer state.

``frames`` is indexed by speaker id: ``frames[s]`` holds normalized
(N_s, dim) frames of speaker ``s`` as an ``np.ndarray``, N_s >= 1, one pool
per speaker of the model (any other pool count, type or width, or an empty
pool, raises ``DataError`` before any draw). The VAE terms average one batch of
every speaker, each reconstructed with its own embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from . import model as M
from . import numerics as nm
from . import objectives as O
from .errors import DataError, as_integer, as_real, as_speaker
from .numerics import RngState, Tensor

# decay and epsilon of the RMSProp used by the reference WGAN code
# (PyTorch's optim.RMSprop defaults); the WGAN paper does not state them
RMSPROP_DECAY = 0.99
RMSPROP_EPS = 1e-8

# critic updates per encoder + generator update, and the RMSProp rate of
# all three networks: WGAN Algorithm 1 (Arjovsky et al. 2017)
N_CRITIC = 5
LEARNING_RATE = 5e-5


@dataclass(frozen=True)
class TrainConfig:
    """Step settings; the critic clip bound lives in ``CriticParams.clip_bound``,
    the critic count and learning rate in ``N_CRITIC`` and ``LEARNING_RATE``.

    Defaults and their sources:
    - ``alpha = 50``: weight of the Wasserstein term in the generator's
      objective during the joint phase (the VAW-GAN setting).
    - ``batch_size = 256``: frames drawn per speaker per pass, the
      project's fixed benchmark configuration.
    """

    alpha: float = 50.0
    batch_size: int = 256

    def __post_init__(self):
        # Python numbers, so the config serializes
        object.__setattr__(self, "alpha", as_real("alpha", self.alpha, ValueError, low=0.0))
        object.__setattr__(self, "batch_size", as_integer("batch_size", self.batch_size, ValueError, low=1))


def rmsprop_update(params: M.ModelParams, mean_square: dict):
    """One RMSProp descent step on every parameter that holds a gradient.

    ``mean_square`` maps ``named_parameters`` names to the running mean of
    squared gradients; missing entries start at zero and are added.
    """
    for name, t in params.named_parameters().items():
        if t.grad is None:
            continue
        ms = mean_square.setdefault(name, np.zeros_like(t.data))
        ms *= RMSPROP_DECAY
        ms += (1.0 - RMSPROP_DECAY) * t.grad * t.grad
        t.data -= LEARNING_RATE * t.grad / (np.sqrt(ms) + RMSPROP_EPS)


def _check_pools(params: M.ModelParams, frames):
    """DataError unless there is one non-empty (n, ``dim``) ``np.ndarray`` of frames per
    speaker of the model; called before any draw."""
    speakers, dim = params.generator.config.num_speakers, params.generator.config.dim
    if len(frames) != speakers:
        raise DataError(f"{len(frames)} frame pools for a model of {speakers} speakers")
    for speaker, pool in enumerate(frames):
        if not isinstance(pool, np.ndarray):  # _draw indexes the pool with an index array
            raise DataError(f"speaker {speaker}'s frames are a {type(pool).__name__}, not an np.ndarray")
        if pool.shape[1:] != (dim,):
            raise DataError(f"speaker {speaker}'s frames have shape {pool.shape}, not (n, {dim})")
        if len(pool) == 0:
            raise DataError(f"speaker {speaker} has an empty frame pool")


def _draw(params: M.ModelParams, pool: np.ndarray, batch_size: int, rng: RngState) -> np.ndarray:
    """A batch of ``pool``'s rows in the parameters' dtype. Only the batch is cast, so a
    float64 pool does not carry the losses of a float32 model to float64."""
    dtype = params.encoder.tensors["conv0.w"].data.dtype
    return pool[rng.generator().integers(pool.shape[0], size=batch_size)].astype(dtype, copy=False)


def _mean(terms: list[Tensor]) -> Tensor:
    return nm.mul(reduce(nm.add, terms), 1.0 / len(terms))


def _vae_terms(params: M.ModelParams, frames, batch_size: int, rng: RngState):
    """KL and reconstruction, each averaged over one batch per speaker, and
    the latent sample of every speaker's batch."""
    kl, recon, latents = [], [], []
    for speaker, pool in enumerate(frames):
        x = _draw(params, pool, batch_size, rng)
        mu, log_var = M.encode(x, params.encoder)
        z = M.reparameterize(mu, log_var, rng).z
        kl.append(O.kl_loss(mu, log_var))
        recon.append(O.recon_loss(x, M.generate(z, speaker, params.generator)))
        latents.append(z)
    return _mean(kl), _mean(recon), latents


def _converted_gap(params: M.ModelParams, z_source, real_target: np.ndarray, target: int):
    fake = M.generate(z_source, target, params.generator)
    return O.wgan_objective(
        M.criticize(real_target, params.critic), M.criticize(fake, params.critic)
    )


def warmup_step(
    params: M.ModelParams,
    frames: Sequence[np.ndarray],
    config: TrainConfig,
    rng: RngState,
    mean_square: dict,
) -> O.LossBreakdown:
    """VAE warm-up: encoder and generator take one RMSProp step on recon + KL.

    ``config.alpha`` is not used: this phase is the alpha = 0 baseline.
    The critic is not evaluated, so ``j_wgan`` reads 0.
    """
    _check_pools(params, frames)
    params.set_requires_grad(encoder=True, generator=True, critic=False)
    j_lat, j_obs, _ = _vae_terms(params, frames, config.batch_size, rng)
    params.zero_grad()
    nm.backward(nm.add(j_obs, j_lat))
    rmsprop_update(params, mean_square)
    return O.LossBreakdown(j_lat.item(), j_obs.item(), 0.0, 0.0)


def critic_step(
    params: M.ModelParams,
    frames: Sequence[np.ndarray],
    source: int,
    target: int,
    config: TrainConfig,
    rng: RngState,
    mean_square: dict,
) -> float:
    """One critic update: ascend the gap between real target frames and source
    frames converted to the target, then clip every critic weight to
    ±``clip_bound``. Returns the gap before the update. The frame pools and
    the speaker ids are checked before any draw, so a rejected call leaves
    ``rng`` unchanged."""
    _check_pools(params, frames)
    source, target = as_speaker(source, len(frames)), as_speaker(target, len(frames))
    params.set_requires_grad(encoder=False, generator=False, critic=True)
    x = _draw(params, frames[source], config.batch_size, rng)
    mu, log_var = M.encode(x, params.encoder)
    z = M.reparameterize(mu, log_var, rng).z
    gap = _converted_gap(params, z, _draw(params, frames[target], config.batch_size, rng), target)
    params.zero_grad()
    nm.backward(nm.mul(gap, -1.0))  # the critic ascends the gap
    rmsprop_update(params, mean_square)
    bound = params.critic.clip_bound
    for t in params.critic.tensors.values():
        np.clip(t.data, -bound, bound, out=t.data)
    return gap.item()


def joint_step(
    params: M.ModelParams,
    frames: Sequence[np.ndarray],
    source: int,
    target: int,
    config: TrainConfig,
    rng: RngState,
    mean_square: dict,
) -> O.LossBreakdown:
    """``N_CRITIC`` critic steps, then one encoder + generator update.

    The encoder minimizes recon + KL and the generator recon + alpha * W,
    with one backward pass: the converted branch decodes a copy of the
    source latent cut from the tape, so W reaches the generator only.
    The gradients of that update stay on the tensors after the step.
    """
    _check_pools(params, frames)  # before the critic steps draw, as the speaker ids are
    for _ in range(N_CRITIC):
        critic_step(params, frames, source, target, config, rng, mean_square)

    params.set_requires_grad(encoder=True, generator=True, critic=False)
    j_lat, j_obs, latents = _vae_terms(params, frames, config.batch_size, rng)
    real = _draw(params, frames[target], config.batch_size, rng)
    gap = _converted_gap(params, Tensor(latents[source].data), real, target)
    params.zero_grad()
    nm.backward(nm.add(nm.add(j_obs, j_lat), nm.mul(gap, config.alpha)))
    rmsprop_update(params, mean_square)
    return O.LossBreakdown(j_lat.item(), j_obs.item(), gap.item(), config.alpha)
