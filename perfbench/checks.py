"""Output checks of the benchmark, run outside its timed region.

Each check returns ``None`` when the output is right and a one-line reason
when it is not, so the driver can count the failure against the step,
utterance or certificate it belongs to. The reference forward passes are
written here in plain float64 numpy with a per-position convolution, and
share no code with ``vawgan.numerics``.
"""

from __future__ import annotations

import numpy as np

from vawgan import model as M
from vawgan import numerics as nm
from vawgan import features as F
from vawgan.numerics import Tensor

# float32 forward against a float64 reference, relative to the output scale
FORWARD_RTOL = 1e-3
# central differences in float64: step and relative tolerance (grad_check's metric)
DIRECTIONAL_STEP = 1e-7
DIRECTIONAL_TOL = 1e-4
# KL is a sum of non-negative terms; float32 rounding may take it just below 0
KL_TOL = 1e-5


# ---------------------------------------------------------------------------
# naive float64 reference networks


def _conv(x, w, b, stride, padding):
    """Convolution computed one output position at a time."""
    batch, c_in, length = x.shape
    c_out, _, kernel = w.shape
    xp = np.zeros((batch, c_in, length + 2 * padding))
    xp[:, :, padding : padding + length] = x
    l_out = (length + 2 * padding - kernel) // stride + 1
    out = np.empty((batch, c_out, l_out))
    for pos in range(l_out):
        window = xp[:, :, pos * stride : pos * stride + kernel]
        out[:, :, pos] = np.einsum("bck,ock->bo", window, w)
    return out + b


def _leaky(x, slope):
    return np.where(x >= 0, x, slope * x)


def _arrays(tensors):
    return {k: np.asarray(t.data, dtype=np.float64) for k, t in tensors.items()}


def ref_encode(x, params: M.EncoderParams):
    cfg, p = params.config, _arrays(params.tensors)
    h = np.asarray(x, dtype=np.float64)[:, None, :]
    for i, stride in enumerate(cfg.encoder_strides):
        h = _leaky(_conv(h, p[f"conv{i}.w"], p[f"conv{i}.b"], stride, cfg.padding), cfg.leaky_slope)
    h = h.reshape(h.shape[0], -1)
    mu = h @ p["mu.w"] + p["mu.b"]
    log_var = np.clip(h @ p["logvar.w"] + p["logvar.b"], -cfg.logvar_bound, cfg.logvar_bound)
    return mu, log_var


def ref_generate(z, speaker_id: int, params: M.GeneratorParams):
    cfg, p = params.config, _arrays(params.tensors)
    z = np.asarray(z, dtype=np.float64)
    y = np.repeat(p["embedding"][speaker_id][None, :], z.shape[0], axis=0)
    h = _leaky(np.concatenate([z, y], axis=1) @ p["merge.w"] + p["merge.b"], cfg.leaky_slope)
    h = h.reshape(z.shape[0], cfg.generator_channels[0], cfg.generator_seed_length)
    for i, factor in enumerate(cfg.generator_upsamples):
        h = np.repeat(h, factor, axis=2)
        h = _leaky(_conv(h, p[f"conv{i}.w"], p[f"conv{i}.b"], 1, cfg.padding), cfg.leaky_slope)
    h = np.tanh(_conv(h, p["out.w"], p["out.b"], 1, cfg.padding))
    return h.reshape(z.shape[0], cfg.dim)


def ref_criticize(x, params: M.CriticParams):
    cfg, p = params.config, _arrays(params.tensors)
    h = np.asarray(x, dtype=np.float64)[:, None, :]
    for i, stride in enumerate(cfg.critic_strides):
        h = _leaky(_conv(h, p[f"conv{i}.w"], p[f"conv{i}.b"], stride, cfg.padding), cfg.leaky_slope)
    return (h.reshape(h.shape[0], -1) @ p["out.w"] + p["out.b"]).reshape(-1)


def _mismatch(what, got, ref):
    err = float(np.max(np.abs(np.asarray(got, dtype=np.float64) - ref)))
    scale = 1.0 + float(np.max(np.abs(ref)))
    if not err <= FORWARD_RTOL * scale:
        return f"{what}: max error {err:.3g} against float64 reference (scale {scale:.3g})"
    return None


def check_forward(frames, speaker_id: int, params: M.ModelParams, critic=True):
    """Library forward passes against the float64 reference on a few frames."""
    mu, log_var = M.encode(frames, params.encoder)
    r_mu, r_lv = ref_encode(frames, params.encoder)
    x_hat = M.generate(mu.data, speaker_id, params.generator)
    r_x_hat = ref_generate(mu.data, speaker_id, params.generator)
    found = [
        _mismatch("encode mu", mu.data, r_mu),
        _mismatch("encode log_var", log_var.data, r_lv),
        _mismatch("generate", x_hat.data, r_x_hat),
    ]
    if critic:
        found.append(_mismatch("criticize", M.criticize(frames, params.critic).data,
                               ref_criticize(frames, params.critic)))
    return next((f for f in found if f), None)


# ---------------------------------------------------------------------------
# gradients


def float64_copy(tensors, requires_grad: bool) -> dict:
    return {k: Tensor(t.data.astype(np.float64), requires_grad=requires_grad)
            for k, t in tensors.items()}


def check_directional(loss_fn, tensors: dict, rng: np.random.Generator, what: str):
    """d/dh loss(theta + h v) at h = 0: backward against central differences.

    ``tensors`` are float64 leaves that ``loss_fn()`` reads; ``v`` is a random
    unit direction over all of them. The error metric is grad_check's:
    |analytic - numeric| / max(1, |analytic|).
    """
    flags = {k: t.requires_grad for k, t in tensors.items()}
    for t in tensors.values():
        t.requires_grad = True
        t.zero_grad()
    nm.backward(loss_fn())
    direction = {k: rng.standard_normal(t.shape) for k, t in tensors.items()}
    norm = np.sqrt(sum(float(np.sum(v * v)) for v in direction.values()))
    analytic = 0.0
    for k, t in tensors.items():
        direction[k] /= norm
        if t.grad is not None:
            analytic += float(np.sum(t.grad * direction[k]))
    saved = {k: t.data.copy() for k, t in tensors.items()}
    values = []
    for sign in (1.0, -1.0):
        for k, t in tensors.items():
            t.data = saved[k] + sign * DIRECTIONAL_STEP * direction[k]
        values.append(loss_fn().item())
    for k, t in tensors.items():
        t.data = saved[k]
        t.zero_grad()
        t.requires_grad = flags[k]
    numeric = (values[0] - values[1]) / (2.0 * DIRECTIONAL_STEP)
    err = abs(analytic - numeric) / max(1.0, abs(analytic))
    if not err <= DIRECTIONAL_TOL:
        return f"{what} gradient: directional derivative {analytic:.6g} vs central difference {numeric:.6g}"
    return None


# ---------------------------------------------------------------------------
# invariants


def check_losses(losses: dict):
    for name, value in losses.items():
        if not np.isfinite(value):
            return f"loss {name} is not finite: {value}"
    if "kl" in losses and losses["kl"] < -KL_TOL:
        return f"KL is negative: {losses['kl']}"
    return None


def check_clipped(critic: M.CriticParams):
    for name, t in critic.tensors.items():
        worst = float(np.max(np.abs(t.data)))
        if not worst <= critic.clip_bound:
            return f"critic weight {name} reaches {worst:.6g} beyond clip bound {critic.clip_bound}"
    return None


def check_readback(path, written: F.FrameMatrix):
    """The file must read back bit-identical to the frames that were written."""
    got = F.read_frames(path)
    same = got.speaker_id == written.speaker_id and _bits_equal(got.frames, written.frames)
    if same and written.energy is None:
        same = got.energy is None
    elif same:
        same = got.energy is not None and _bits_equal(got.energy, written.energy)
    if not same:
        return f"{path}: frames read back differ from the frames written"
    return None


def _bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def max_input_gradient(frames, critic: M.CriticParams) -> float:
    """max_i ||grad_x D(x_i)||, a lower bound on the critic's Lipschitz constant."""
    x = Tensor(np.asarray(frames, dtype=np.float64), requires_grad=True)
    critic64 = M.CriticParams(critic.config, float64_copy(critic.tensors, False), critic.clip_bound)
    nm.backward(nm.reduce_sum(M.criticize(x, critic64)))
    return float(np.max(np.linalg.norm(x.grad, axis=1)))


def check_certificate(bound: float, lower: float):
    if not np.isfinite(bound) or bound < lower * (1.0 - 1e-9):
        return f"Lipschitz bound {bound:.6g} is below the gradient lower bound {lower:.6g}"
    return None
