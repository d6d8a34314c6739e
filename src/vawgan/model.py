"""The three networks: speaker-blind encoder, conditional generator, critic.

The encoder maps normalized frames to a diagonal-Gaussian posterior
(mu, log-variance) over the phonetic content z; it never sees a speaker
id, which the API makes unrepresentable. The generator blends z with a
learned speaker embedding row and decodes back to frame space through
upsample+conv stages ending in tanh, so outputs stay in (-1, 1). Each
conv block is one ``conv1d`` call: "same" padding (K // 2 zeros at each
edge), its bias, its leaky-ReLU (``slope``) and, in the generator, the
stage's nearest-neighbour upsampling (``upsample``), so the upsampled
input is never built. The critic scores frames with an unbounded real
number (no sigmoid); with its weights clipped it is Lipschitz, and
`critic_lipschitz_bound` certifies a constant from per-layer operator
norms: each conv's from its polyphase symbol, the dense head's from its SVD.

Array inputs to ``encode``, ``criticize`` and ``generate`` are cast to
the parameters' dtype, so a float32 model given float64 frames runs in
float32; a ``Tensor`` input passes through as it is, and ``conv1d``
rejects one of another dtype.

A NaN or inf in any conv block, head or output layer raises
``NumericError`` naming that layer. Each network scans only its outputs:
the encoder's mu head and its log-variance head before the clamp, the
generator's output conv before tanh, and the critic's score; the clamp
and tanh would otherwise turn an inf into a finite number. Every op in
between carries a non-finite input into at least one non-finite output
(every encoder and critic stride is at most K // 2 + 1, so the window of
the last output reaches the last input position at every length), so an
activation can only go non-finite unseen at those points. When an output
scan fails, the network runs again from the same input with every layer
scanned, and the first non-finite layer is named. The networks are pure,
so the re-run sees the same values.

The architecture (latent and embedding widths, layer counts, widths,
strides and upsampling factors, kernel size, slope and log-variance
clamp) is fixed: class constants of ``NetworkConfig`` sized for CPU
training, not a reproduction of any particular architecture. A config
holds only the corpus's shape: the frame width and the speaker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import numerics as nm
from .errors import DataError, NumericError, ShapeError, as_integer, as_real, as_speaker
from .numerics import RngState, Tensor


@dataclass(frozen=True)
class NetworkConfig:
    """The corpus's shape: the frame width ``dim`` and the number of speakers. The
    architecture of all three networks is class constants, not fields."""

    z_dim: ClassVar[int] = 64
    embedding_dim: ClassVar[int] = 16
    encoder_channels: ClassVar[tuple[int, ...]] = (8, 8, 8)
    # encoder and critic strides are at most kernel_size // 2 + 1: every input position is read
    encoder_strides: ClassVar[tuple[int, ...]] = (1, 2, 2)
    generator_channels: ClassVar[tuple[int, ...]] = (8, 8, 8)
    generator_upsamples: ClassVar[tuple[int, ...]] = (2, 2, 2)
    _upsample_product: ClassVar[int] = math.prod(generator_upsamples)
    critic_channels: ClassVar[tuple[int, ...]] = (8, 8, 8)
    critic_strides: ClassVar[tuple[int, ...]] = (1, 2, 2)
    kernel_size: ClassVar[int] = 3
    padding: ClassVar[int] = kernel_size // 2  # the padding conv1d applies at each edge
    leaky_slope: ClassVar[float] = 0.2
    logvar_bound: ClassVar[float] = 14.0
    dim: int
    num_speakers: int = 2

    def __post_init__(self):
        for name in ("dim", "num_speakers"):
            # frozen: store the checked Python int
            object.__setattr__(self, name, as_integer(name, getattr(self, name), low=1))
        if self.dim % self._upsample_product != 0:
            raise DataError(
                f"feature dim {self.dim} is not divisible by the upsample product "
                f"{self._upsample_product}"
            )

    @property
    def generator_seed_length(self) -> int:
        return self.dim // self._upsample_product

    def conv_lengths(self, strides) -> list[int]:
        lengths = [self.dim]
        for s in strides:
            lengths.append((lengths[-1] + 2 * self.padding - self.kernel_size) // s + 1)
        return lengths


@dataclass
class EncoderParams:
    """phi: conv trunk plus mean and log-variance heads."""

    config: NetworkConfig
    tensors: dict[str, Tensor]


@dataclass
class GeneratorParams:
    """theta: dense merge of [z || y], upsample+conv stack, speaker embeddings."""

    config: NetworkConfig
    tensors: dict[str, Tensor]


@dataclass
class CriticParams:
    """psi: conv stack to a single unbounded score; clip_bound caps every weight."""

    config: NetworkConfig
    tensors: dict[str, Tensor]
    clip_bound: float = 0.01

    def __post_init__(self):
        # as_real rejects infinity, which would switch the Lipschitz constraint off
        self.clip_bound = as_real("clip_bound", self.clip_bound)
        if self.clip_bound <= 0:
            raise DataError(f"clip_bound must be positive and finite, got {self.clip_bound}")


@dataclass
class ModelParams:
    encoder: EncoderParams
    generator: GeneratorParams
    critic: CriticParams

    def _groups(self):
        return (("enc", self.encoder.tensors), ("gen", self.generator.tensors),
                ("critic", self.critic.tensors))

    def named_parameters(self) -> dict[str, Tensor]:
        return {f"{prefix}.{name}": t for prefix, group in self._groups() for name, t in group.items()}

    def zero_grad(self):
        for t in self.named_parameters().values():
            t.zero_grad()

    def set_requires_grad(self, encoder: bool, generator: bool, critic: bool):
        for flag, (_, group) in zip((encoder, generator, critic), self._groups()):
            for t in group.values():
                t.requires_grad = flag


@dataclass
class LatentBatch:
    """The drawn latent sample and the standard-normal noise it was drawn with."""

    z: Tensor
    eps: np.ndarray


# ---------------------------------------------------------------------------
# initialization


def _init_tensor(rng: RngState, shape, fan_in: int, dtype) -> Tensor:
    w = np.sqrt(2.0 / max(fan_in, 1)) * rng.standard_normal(shape, dtype=dtype)
    return Tensor(w.astype(dtype, copy=False), requires_grad=True)  # the scale is float64


def _zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def _init_conv_stack(tensors: dict, rng: RngState, c_in: int, channels, k: int, dtype) -> int:
    """Add conv{i}.w / conv{i}.b for each output width; return the last width."""
    for i, c in enumerate(channels):
        tensors[f"conv{i}.w"] = _init_tensor(rng, (c, c_in, k), c_in * k, dtype)
        tensors[f"conv{i}.b"] = _zeros((c, 1), dtype)
        c_in = c
    return c_in


def init_encoder(config: NetworkConfig, rng: RngState, dtype=np.float32) -> EncoderParams:
    tensors = {}
    c_out = _init_conv_stack(tensors, rng, 1, config.encoder_channels, config.kernel_size, dtype)
    flat = c_out * config.conv_lengths(config.encoder_strides)[-1]
    for head in ("mu", "logvar"):
        tensors[f"{head}.w"] = _init_tensor(rng, (flat, config.z_dim), flat, dtype)
        tensors[f"{head}.b"] = _zeros((config.z_dim,), dtype)
    return EncoderParams(config=config, tensors=tensors)


def init_generator(config: NetworkConfig, rng: RngState, dtype=np.float32) -> GeneratorParams:
    k = config.kernel_size
    tensors = {
        "embedding": Tensor(
            0.5 * rng.standard_normal((config.num_speakers, config.embedding_dim), dtype=dtype),
            requires_grad=True,
        )
    }
    merged = config.z_dim + config.embedding_dim
    seed_width = config.generator_channels[0]
    seed_size = seed_width * config.generator_seed_length
    tensors["merge.w"] = _init_tensor(rng, (merged, seed_size), merged, dtype)
    tensors["merge.b"] = _zeros((seed_size,), dtype)
    c_out = _init_conv_stack(tensors, rng, seed_width, config.generator_channels, k, dtype)
    tensors["out.w"] = _init_tensor(rng, (1, c_out, k), c_out * k, dtype)
    tensors["out.b"] = _zeros((1, 1), dtype)
    return GeneratorParams(config=config, tensors=tensors)


def init_critic(
    config: NetworkConfig, rng: RngState, clip_bound: float = 0.01, dtype=np.float32
) -> CriticParams:
    tensors = {}
    c_out = _init_conv_stack(tensors, rng, 1, config.critic_channels, config.kernel_size, dtype)
    flat = c_out * config.conv_lengths(config.critic_strides)[-1]
    tensors["out.w"] = _init_tensor(rng, (flat, 1), flat, dtype)
    tensors["out.b"] = _zeros((1,), dtype)
    return CriticParams(config=config, tensors=tensors, clip_bound=clip_bound)


def init_model(
    config: NetworkConfig, rng: RngState, clip_bound: float = 0.01, dtype=np.float32
) -> ModelParams:
    """All three networks, drawn in order from ``rng``; every parameter has exactly ``dtype``."""
    return ModelParams(
        encoder=init_encoder(config, rng, dtype),
        generator=init_generator(config, rng, dtype),
        critic=init_critic(config, rng, clip_bound, dtype),
    )


# ---------------------------------------------------------------------------
# forward passes


def _ensure_finite(t: Tensor, where: str):
    if not np.isfinite(t.data).all():
        raise NumericError(f"non-finite activation in {where}")


def _located(forward, *args):
    """``forward(*args, locate=False)``, which scans only the network's outputs. If
    one is non-finite, the forward runs again with ``locate=True``, scanning every
    layer, and raises NumericError naming the first non-finite one."""
    try:
        return forward(*args, locate=False)
    except NumericError:
        pass
    return forward(*args, locate=True)


def _as_input(x, like: Tensor) -> Tensor:
    """An array as a constant of ``like``'s dtype; a Tensor passes through unchanged."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.data.dtype))


def _conv_block(h: Tensor, tensors, idx: int, stride: int, config: NetworkConfig, net: str,
                locate: bool, upsample: int = 1):
    h = nm.conv1d(
        h, tensors[f"conv{idx}.w"], bias=tensors[f"conv{idx}.b"], stride=stride,
        slope=config.leaky_slope, upsample=upsample,
    )
    if locate:
        _ensure_finite(h, f"{net} conv layer {idx}")
    return h


def _conv_trunk(x, params, strides, caller: str, net: str, locate: bool) -> Tensor:
    """(batch, dim) frames through a strided conv stack, flattened to (batch, C * L)."""
    config = params.config
    x = _as_input(x, params.tensors["conv0.w"])
    if x.data.ndim != 2 or x.shape[1] != config.dim:
        raise ShapeError(f"{caller}: expected (batch, {config.dim}) frames, got {x.shape}")
    batch = x.shape[0]
    h = nm.reshape(x, (batch, 1, config.dim))
    for i, stride in enumerate(strides):
        h = _conv_block(h, params.tensors, i, stride, config, net, locate)
    return nm.reshape(h, (batch, h.shape[1] * h.shape[2]))


def encode(x, params: EncoderParams):
    """Posterior statistics for a batch of normalized frames: (mu, log_var)."""
    return _located(_encode, x, params)


def _encode(x, params: EncoderParams, locate: bool):
    cfg = params.config
    h = _conv_trunk(x, params, cfg.encoder_strides, "encode", "encoder", locate)
    mu = nm.add(nm.matmul(h, params.tensors["mu.w"]), params.tensors["mu.b"])
    log_var = nm.add(nm.matmul(h, params.tensors["logvar.w"]), params.tensors["logvar.b"])
    _ensure_finite(mu, "encoder mu head")
    _ensure_finite(log_var, "encoder logvar head")  # before the clip turns an inf into the bound
    return mu, nm.clip(log_var, -cfg.logvar_bound, cfg.logvar_bound)


def reparameterize(mu: Tensor, log_var: Tensor, rng: RngState, eps=None) -> LatentBatch:
    """z = mu + exp(0.5 * log_var) * eps with eps ~ N(0, I); differentiable in both.

    A given ``eps`` must have exactly ``mu.shape``: one that would broadcast
    would share one noise draw between frames."""
    if mu.shape != log_var.shape:
        raise ShapeError(f"reparameterize: mu {mu.shape} vs log_var {log_var.shape}")
    if eps is None:
        if rng is None:
            raise TypeError("reparameterize: pass an rng to draw eps from, or eps itself")
        eps = rng.standard_normal(mu.shape, dtype=mu.data.dtype)
    else:
        eps = np.asarray(eps, dtype=mu.data.dtype)
        if eps.shape != mu.shape:
            raise ShapeError(f"reparameterize: eps {eps.shape} vs mu {mu.shape}")
    std = nm.exp(nm.mul(log_var, 0.5))
    z = nm.add(mu, nm.mul(std, Tensor(eps)))
    return LatentBatch(z=z, eps=eps)


def generate(z, speaker_id: int, params: GeneratorParams) -> Tensor:
    """Decode latent content conditioned on a speaker; output in (-1, 1)."""
    return _located(_generate, z, speaker_id, params)


def _generate(z, speaker_id: int, params: GeneratorParams, locate: bool) -> Tensor:
    cfg = params.config
    z = _as_input(z, params.tensors["merge.w"])
    if z.data.ndim != 2 or z.shape[1] != cfg.z_dim:
        raise ShapeError(f"generate: expected (batch, {cfg.z_dim}) latents, got {z.shape}")
    n_speakers = cfg.num_speakers
    speaker_id = as_speaker(speaker_id, n_speakers)
    batch = z.shape[0]

    onehot = np.zeros((1, n_speakers), dtype=z.data.dtype)
    onehot[0, speaker_id] = 1.0
    y = nm.matmul(Tensor(onehot), params.tensors["embedding"])
    y = nm.broadcast_to(y, (batch, cfg.embedding_dim))

    h = nm.concat([z, y], axis=1)
    h = nm.add(nm.matmul(h, params.tensors["merge.w"]), params.tensors["merge.b"])
    h = nm.leaky_relu(h, slope=cfg.leaky_slope)
    if locate:
        _ensure_finite(h, "generator merge layer")

    h = nm.reshape(h, (batch, cfg.generator_channels[0], cfg.generator_seed_length))
    for i, factor in enumerate(cfg.generator_upsamples):
        h = _conv_block(h, params.tensors, i, 1, cfg, "generator", locate, upsample=factor)
    h = nm.conv1d(h, params.tensors["out.w"], bias=params.tensors["out.b"])
    _ensure_finite(h, "generator output layer")  # tanh would turn an inf into ±1
    h = nm.tanh(h)
    return nm.reshape(h, (batch, cfg.dim))


def criticize(x, params: CriticParams) -> Tensor:
    """Unbounded real score per frame; higher means more target-like."""
    return _located(_criticize, x, params)


def _criticize(x, params: CriticParams, locate: bool) -> Tensor:
    h = _conv_trunk(x, params, params.config.critic_strides, "criticize", "critic", locate)
    h = nm.add(nm.matmul(h, params.tensors["out.w"]), params.tensors["out.b"])
    _ensure_finite(h, "critic output head")
    return nm.reshape(h, (h.shape[0],))


# ---------------------------------------------------------------------------
# Lipschitz certificate


def _conv_operator_norm(w: np.ndarray, length: int, stride: int) -> float:
    """Norm of the circular conv of length n = s * ceil((L + 2p + K) / s), p = K // 2: the
    largest singular value, over the n / s frequencies, of the Cout x (Cin * s) polyphase symbol."""
    c_out, c_in, kernel = w.shape
    delays = -(-(length + 2 * (kernel // 2) + kernel) // stride)
    taps = np.zeros((c_out, c_in, stride, delays))
    j = np.arange(kernel)
    taps[:, :, j % stride, j // stride] = w  # tap j: phase j % s, delay j // s
    symbol = np.fft.fft(taps, axis=-1).reshape(c_out, c_in * stride, delays)
    return float(np.linalg.svd(symbol.transpose(2, 0, 1), compute_uv=False).max())


def critic_lipschitz_bound(params: CriticParams) -> float:
    """Certified Lipschitz constant: product of per-layer operator norms.

    A zero-padded strided conv on input length L is a restriction of the
    circular one of any length n >= L + 2p, so its norm is at most the
    circular norm, which the polyphase symbol gives exactly (Sedghi et al.,
    "The Singular Values of Convolutional Layers", ICLR 2019, for stride 1).
    The dense head is measured by its SVD. A leaky ReLU with slope in [0, 1]
    is 1-Lipschitz, so the activations add no factor.
    """
    cfg = params.config
    bound = 1.0
    lengths = cfg.conv_lengths(cfg.critic_strides)
    for i, stride in enumerate(cfg.critic_strides):
        w = params.tensors[f"conv{i}.w"].data
        bound *= _conv_operator_norm(w, lengths[i], stride)
    out_w = params.tensors["out.w"].data.astype(np.float64)
    bound *= np.linalg.svd(out_w, compute_uv=False)[0]
    return float(bound)
