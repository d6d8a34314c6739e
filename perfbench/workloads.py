"""The benchmark's workloads: set-up, one unit of work, and its output checks.

A unit is what one latency sample times: a warm-up step, a joint step
(``N_CRITIC`` critic updates plus one encoder + generator update), or one
utterance converted from file to file. The library has no trainer yet, so
each training step is built here from the public functions, with a plain
SGD update written in the driver. Checks run after the timed part of a
unit; their failure, or an exception, marks the unit as failed.

Inputs come only from the workload seed: the synthetic corpus, the model
initialisation, every batch index and every reparameterisation draw.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from vawgan import features as F
from vawgan import model as M
from vawgan import numerics as nm
from vawgan import objectives as O
from vawgan.numerics import RngState

import checks

BATCH = 256
DTYPE = np.float32
CLIP_BOUND = 0.01
N_CRITIC = 5
ALPHA = 50.0
SOURCE, TARGET = 0, 1
TRAIN_FRAMES = 4096  # frames per speaker in the training corpus
LR_WARMUP = 1e-3
LR_CRITIC = 1e-3
LR_JOINT = 1e-4
CHECK_FRAMES = 4  # frames per reference-forward and directional-derivative check
N_UTTERANCES = 32
UTT_LENGTHS = (100, 1000)
SILENCE_FRACTION = 0.1


@dataclass
class Unit:
    """Outcome of one unit: timed seconds, frames processed, first failure."""

    seconds: float = 0.0
    frames: int = 0
    failure: str | None = None
    parts: dict = field(default_factory=dict)


def _seeds(seed: int):
    """Library seeds (corpus, init) and a driver generator, all from one seed."""
    ss = np.random.SeedSequence(seed)
    data_seed, init_seed = (int(v) for v in ss.generate_state(2, dtype=np.uint64))
    return data_seed, init_seed, np.random.default_rng(ss.spawn(1)[0])


def _set_requires_grad(flag: bool, *groups):
    for group in groups:
        for t in group.tensors.values():
            t.requires_grad = flag


def _sgd(groups, lr: float):
    for group in groups:
        for t in group.tensors.values():
            if t.grad is not None:
                t.data -= lr * t.grad
                t.grad = None


class _Training:
    """Shared set-up of the two training workloads."""

    check_every = 1
    cycle = 1  # a run ends on a multiple of this many timed units

    def __init__(self, dim: int, seed: int, workdir: Path):
        self.config = M.NetworkConfig(dim=dim)
        self.seed = seed

    def setup(self):
        data_seed, init_seed, self.rng = _seeds(self.seed)
        self.check_rng = np.random.default_rng(init_seed)
        spec = F.SyntheticSpec(dim=self.config.dim, frames_per_speaker=TRAIN_FRAMES)
        corpus, _ = F.generate_synthetic(spec, RngState(data_seed))
        stats = F.fit_normalizer(corpus)
        self.frames = [F.normalize(fm, stats).frames for fm in corpus]
        self.params = M.init_model(self.config, RngState(init_seed), CLIP_BOUND, DTYPE)

    def _batch(self, speaker: int) -> np.ndarray:
        frames = self.frames[speaker]
        return frames[self.rng.integers(0, frames.shape[0], BATCH)]

    def _eps(self, rows: int = BATCH) -> np.ndarray:
        return self.rng.standard_normal((rows, self.config.z_dim), dtype=DTYPE)

    def _float64(self):
        p = self.params
        cfg = self.config
        return (
            M.EncoderParams(cfg, checks.float64_copy(p.encoder.tensors, False)),
            M.GeneratorParams(cfg, checks.float64_copy(p.generator.tensors, False)),
            M.CriticParams(cfg, checks.float64_copy(p.critic.tensors, False), p.critic.clip_bound),
        )

    def finish(self, rec):
        return []

    def cleanup(self):
        pass


class Warmup(_Training):
    """VAE warm-up (alpha = 0): encoder and generator minimise recon + KL."""

    warmup_units = 10
    check_every = 50

    def unit(self, i: int, rec) -> Unit:
        enc, gen = self.params.encoder, self.params.generator
        rec.step = i
        t0 = perf_counter()
        with rec.span("unit"):
            with rec.span("driver.batch"):
                speaker = i % 2
                x = self._batch(speaker)
                eps = self._eps()
            mu, log_var = M.encode(x, enc)
            z = M.reparameterize(mu, log_var, None, eps=eps).z
            x_hat = M.generate(z, speaker, gen)
            kl = O.kl_loss(mu, log_var)
            recon = O.recon_loss(x, x_hat)
            nm.backward(nm.add(recon, kl))
            with rec.span("driver.update"):
                _sgd((enc, gen), LR_WARMUP)
        seconds = perf_counter() - t0
        with rec.span("driver.check"):
            failure = checks.check_losses({"kl": kl.item(), "recon": recon.item()})
            if failure is None and i % self.check_every == 0:
                failure = self._deep_check(x[:CHECK_FRAMES], eps[:CHECK_FRAMES], speaker)
        return Unit(seconds=seconds, frames=BATCH, failure=failure)

    def _deep_check(self, x, eps, speaker):
        failure = checks.check_forward(x, speaker, self.params, critic=False)
        enc, gen, _ = self._float64()
        x, eps = x.astype(np.float64), eps.astype(np.float64)

        def loss():
            mu, log_var = M.encode(x, enc)
            z = M.reparameterize(mu, log_var, None, eps=eps).z
            return nm.add(O.recon_loss(x, M.generate(z, speaker, gen)), O.kl_loss(mu, log_var))

        for what, group in (("encoder", enc), ("generator", gen)):
            failure = failure or checks.check_directional(loss, group.tensors, self.check_rng, what)
        return failure


class Joint(_Training):
    """Joint VAW-GAN step: N_CRITIC clipped critic updates, then one encoder +
    generator update on recon + KL + ALPHA * W."""

    warmup_units = 1

    def unit(self, i: int, rec) -> Unit:
        p = self.params
        rec.step = i
        critic_s, failure = [], None
        for _ in range(N_CRITIC):
            t0 = perf_counter()
            with rec.span("unit"):
                with rec.span("driver.batch"):
                    xs, xt, eps = self._batch(SOURCE), self._batch(TARGET), self._eps()
                    _set_requires_grad(False, p.encoder, p.generator)
                    _set_requires_grad(True, p.critic)
                mu, log_var = M.encode(xs, p.encoder)
                z = M.reparameterize(mu, log_var, None, eps=eps).z
                fake = M.generate(z, TARGET, p.generator)
                gap = O.wgan_objective(M.criticize(xt, p.critic), M.criticize(fake, p.critic))
                nm.backward(gap)
                with rec.span("driver.update"):
                    _sgd((p.critic,), -LR_CRITIC)  # the critic ascends W
                    for t in p.critic.tensors.values():
                        np.clip(t.data, -p.critic.clip_bound, p.critic.clip_bound, out=t.data)
            critic_s.append(perf_counter() - t0)
            with rec.span("driver.check"):
                failure = failure or checks.check_losses({"wgan": gap.item()})
                failure = failure or checks.check_clipped(p.critic)

        t0 = perf_counter()
        with rec.span("unit"):
            with rec.span("driver.batch"):
                xs, xt, eps = self._batch(SOURCE), self._batch(TARGET), self._eps()
                _set_requires_grad(True, p.encoder, p.generator)
                _set_requires_grad(False, p.critic)
            mu, log_var = M.encode(xs, p.encoder)
            z = M.reparameterize(mu, log_var, None, eps=eps).z
            recon = O.recon_loss(xs, M.generate(z, SOURCE, p.generator))
            kl = O.kl_loss(mu, log_var)
            fake = M.generate(z, TARGET, p.generator)
            gap = O.wgan_objective(M.criticize(xt, p.critic), M.criticize(fake, p.critic))
            nm.backward(nm.add(nm.add(recon, kl), nm.mul(gap, ALPHA)))
            with rec.span("driver.update"):
                _sgd((p.encoder, p.generator), LR_JOINT)
        gen_s = perf_counter() - t0
        with rec.span("driver.check"):
            failure = failure or checks.check_losses(
                {"kl": kl.item(), "recon": recon.item(), "wgan": gap.item()})
            if failure is None and i % self.check_every == 0:
                failure = self._deep_check(xs[:CHECK_FRAMES], xt[:CHECK_FRAMES], eps[:CHECK_FRAMES])
        return Unit(seconds=sum(critic_s) + gen_s, frames=BATCH, failure=failure,
                    parts={"critic": critic_s, "gen": [gen_s]})

    def _deep_check(self, xs, xt, eps):
        failure = checks.check_forward(xs, TARGET, self.params)
        enc, gen, critic = self._float64()
        xs, xt, eps = xs.astype(np.float64), xt.astype(np.float64), eps.astype(np.float64)
        mu, log_var = M.encode(xs, enc)
        fake = M.generate(M.reparameterize(mu, log_var, None, eps=eps).z, TARGET, gen).data

        def critic_loss():
            return O.wgan_objective(M.criticize(xt, critic), M.criticize(fake, critic))

        def joint_loss():
            mu, log_var = M.encode(xs, enc)
            z = M.reparameterize(mu, log_var, None, eps=eps).z
            gap = O.wgan_objective(M.criticize(xt, critic),
                                   M.criticize(M.generate(z, TARGET, gen), critic))
            recon = O.recon_loss(xs, M.generate(z, SOURCE, gen))
            return nm.add(nm.add(recon, O.kl_loss(mu, log_var)), nm.mul(gap, ALPHA))

        for what, group, loss in (("critic", critic, critic_loss), ("encoder", enc, joint_loss),
                                  ("generator", gen, joint_loss)):
            failure = failure or checks.check_directional(loss, group.tensors, self.check_rng, what)
        return failure

    def finish(self, rec):
        """Certify the final critic once; one more attempted unit."""
        t0 = perf_counter()
        bound = M.critic_lipschitz_bound(self.params.critic)
        seconds = perf_counter() - t0
        with rec.span("driver.check"):
            lower = checks.max_input_gradient(self._batch(TARGET), self.params.critic)
            failure = checks.check_certificate(bound, lower)
        return [Unit(seconds=seconds, failure=failure, parts={"certify": [seconds]})]


class Convert:
    """Forward-only conversion of VAWF utterance files, source to target speaker."""

    warmup_units = 1
    check_every = 8
    cycle = N_UTTERANCES

    def __init__(self, dim: int, seed: int, workdir: Path):
        self.config = M.NetworkConfig(dim=dim)
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        data_seed, init_seed, rng = _seeds(self.seed)
        # every seed converts the same set of lengths, in its own order and
        # with its own frames, so runs with different seeds stay comparable
        lengths = rng.permutation(np.round(np.linspace(*UTT_LENGTHS, N_UTTERANCES)).astype(int))
        spec = F.SyntheticSpec(dim=self.config.dim, frames_per_speaker=int(lengths.sum()),
                               silence_fraction=SILENCE_FRACTION)
        corpus, _ = F.generate_synthetic(spec, RngState(data_seed))
        self.stats = F.fit_normalizer(corpus)
        source = corpus[SOURCE]
        for sub in ("in", "out"):
            (self.workdir / sub).mkdir(parents=True, exist_ok=True)
        self.inputs, self.outputs = [], []
        ends = np.cumsum(lengths)
        for k, (start, end) in enumerate(zip(ends - lengths, ends)):
            path = self.workdir / "in" / f"utt{k:03d}.vawf"
            F.write_frames(F.FrameMatrix(SOURCE, source.frames[start:end], source.energy[start:end]),
                           path)
            self.inputs.append(path)
            self.outputs.append(self.workdir / "out" / f"utt{k:03d}.vawf")
        self.params = M.init_model(self.config, RngState(init_seed), CLIP_BOUND, DTYPE)
        _set_requires_grad(False, self.params.encoder, self.params.generator, self.params.critic)

    def unit(self, i: int, rec) -> Unit:
        enc, gen = self.params.encoder, self.params.generator
        k = i % len(self.inputs)
        rec.step = i
        t0 = perf_counter()
        with rec.span("unit"):
            fm = F.filter_nonsilent(F.read_frames(self.inputs[k]))
            x = F.normalize(fm, self.stats)
            mu, _ = M.encode(x.frames, enc)
            y = M.generate(mu, TARGET, gen)
            out = F.denormalize(F.FrameMatrix(TARGET, y.data, x.energy), self.stats)
            F.write_frames(out, self.outputs[k])
        seconds = perf_counter() - t0
        with rec.span("driver.check"):
            failure = checks.check_readback(self.outputs[k], out)
            if failure is None and not np.all(np.abs(y.data) <= 1.0):
                failure = f"utterance {k}: generator output outside [-1, 1]"
            if failure is None and i % self.check_every == 0:
                failure = checks.check_forward(x.frames[:CHECK_FRAMES], TARGET, self.params,
                                               critic=False)
        return Unit(seconds=seconds, frames=fm.num_frames, failure=failure)

    def finish(self, rec):
        return []

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# name -> (workload class, feature dim); batch 256 and float32 throughout
WORKLOADS = {
    "warmup-d24": (Warmup, 24),
    "joint-d512": (Joint, 512),
    "convert-d512": (Convert, 512),
}
