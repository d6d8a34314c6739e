import json
from dataclasses import asdict

import numpy as np
import pytest

from vawgan import features as F
from vawgan import model as md
from vawgan import numerics as nm
from vawgan import training as tr
from vawgan.errors import DataError, UnknownSpeakerError
from vawgan.model import NetworkConfig
from vawgan.numerics import RngState
from vawgan.training import TrainConfig

CONFIG = NetworkConfig(dim=24)
SMALL = TrainConfig(batch_size=8)


@pytest.fixture(scope="module")
def frames():
    corpus, _ = F.generate_synthetic(F.SyntheticSpec(dim=24, frames_per_speaker=64), RngState(3))
    stats = F.fit_normalizer(corpus)
    return [F.normalize(fm, stats).frames for fm in corpus]


def _params(seed=0):
    return md.init_model(CONFIG, RngState(seed))


def _arrays(group):
    return {name: t.data.copy() for name, t in group.tensors.items()}


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert (config.alpha, config.batch_size) == (50.0, 256)
        assert (tr.N_CRITIC, tr.LEARNING_RATE) == (5, 5e-5)

    @pytest.mark.parametrize(
        "bad",
        [
            {"alpha": -0.1},
            {"alpha": float("nan")},
            {"batch_size": 0},
            {"alpha": float("inf")},
            {"batch_size": 2.5},
            {"batch_size": True},
            {"alpha": True},
            {"alpha": np.bool_(False)},
            {"alpha": "50"},
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)

    def test_accepts_numpy_integer_batch_size(self):
        assert TrainConfig(batch_size=np.int64(8)).batch_size == 8

    def test_settings_stored_as_python_numbers_round_trip_json(self):
        config = TrainConfig(alpha=np.float32(0.1), batch_size=np.int64(8))
        assert type(config.alpha) is float and type(config.batch_size) is int
        assert TrainConfig(**json.loads(json.dumps(asdict(config)))) == config


class TestWarmupStep:
    def test_critic_untouched_and_vae_updated(self, frames):
        params = _params()
        critic_before = _arrays(params.critic)
        encoder_before = _arrays(params.encoder)
        breakdown = tr.warmup_step(params, frames, SMALL, RngState(1), {})
        for name, t in params.critic.tensors.items():
            assert np.array_equal(t.data, critic_before[name]), name
            assert t.grad is None, name
        assert any(
            not np.array_equal(t.data, encoder_before[name])
            for name, t in params.encoder.tensors.items()
        )
        assert breakdown.alpha == 0.0
        assert breakdown.j_lat >= 0.0 and np.isfinite(breakdown.total)

    def test_float64_pools_leave_every_warmup_tape_node_float32(self, frames, monkeypatch):
        losses, backward = [], nm.backward
        monkeypatch.setattr(nm, "backward", lambda out: (losses.append(out), backward(out)))
        tr.warmup_step(_params(), [f.astype(np.float64) for f in frames], SMALL, RngState(6), {})
        nodes, stack = {}, list(losses)
        while stack:  # every node on the loss's tape, constants and parameters too
            t = stack.pop()
            if id(t) not in nodes:
                nodes[id(t)] = t
                stack.extend(t._parents)
        assert len(losses) == 1 and len(nodes) > 50
        assert sorted({t.op for t in nodes.values() if t.data.dtype != np.float32}) == []


class TestSpeakerIds:
    @pytest.mark.parametrize("step", [tr.critic_step, tr.joint_step], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("source, target", [(-1, 1), (5, 1), (0, 2), (0, -2), (0.0, 1), (0, True), (False, 1)])
    def test_unknown_speaker_rejected_before_any_draw(self, frames, step, source, target):
        params, rng, state = _params(), RngState(seed=7, counter=4), {}
        before = {name: t.data.copy() for name, t in params.named_parameters().items()}
        with pytest.raises(UnknownSpeakerError):
            step(params, frames, source, target, SMALL, rng, state)
        assert rng.counter == 4 and state == {}
        for name, t in params.named_parameters().items():
            assert np.array_equal(t.data, before[name]), name

    def test_numpy_integer_speakers_accepted(self, frames):
        gaps = [tr.critic_step(_params(), frames, s, t, SMALL, RngState(1), {})
                for s, t in ((0, 1), (np.int64(0), np.int32(1)))]
        assert gaps[0] == gaps[1]


class TestEmptyPools:
    @pytest.mark.parametrize("step", ["warmup", "critic", "joint"])
    @pytest.mark.parametrize("empty", [0, 1])
    def test_empty_pool_rejected_before_any_draw(self, frames, step, empty):
        pools = list(frames)
        pools[empty] = pools[empty][:0]
        self._rejected_before_any_draw(step, pools, f"speaker {empty} has an empty frame pool")

    # three pools or one for a two-speaker model, frames of another width, or a list of rows
    @pytest.mark.parametrize("step", ["warmup", "critic", "joint"])
    @pytest.mark.parametrize(
        "pools, match",
        [(lambda f: [*f, f[0]], "3 frame pools for a model of 2 speakers"),
         (lambda f: f[:1], "1 frame pools for a model of 2 speakers"),
         (lambda f: [f[0], f[1][:, :12]], r"speaker 1's frames have shape \(64, 12\), not \(n, 24\)"),
         (lambda f: [f[0][:, None, :], f[1]], r"speaker 0's frames have shape \(64, 1, 24\)"),
         (lambda f: [f[0], f[1].tolist()], "speaker 1's frames are a list, not an np.ndarray")],
        ids=["three-pools", "one-pool", "narrow-frames", "3d-pool", "list-pool"],
    )
    def test_pools_that_do_not_fit_the_model_rejected_before_any_draw(self, frames, step, pools, match):
        self._rejected_before_any_draw(step, pools(list(frames)), match)

    @staticmethod
    def _rejected_before_any_draw(step, pools, match):
        params, rng, state = _params(), RngState(seed=7, counter=4), {}
        before = {name: t.data.copy() for name, t in params.named_parameters().items()}
        args = (SMALL, rng, state) if step == "warmup" else (0, 1, SMALL, rng, state)
        fn = {"warmup": tr.warmup_step, "critic": tr.critic_step, "joint": tr.joint_step}[step]
        with pytest.raises(DataError, match=match):
            fn(params, pools, *args)
        assert rng.counter == 4 and state == {}
        for name, t in params.named_parameters().items():
            assert np.array_equal(t.data, before[name]), name


class TestJointStep:
    def test_critic_clipped_after_every_update(self, frames, monkeypatch):
        params = _params()
        bound = params.critic.clip_bound
        assert max(np.abs(t.data).max() for t in params.critic.tensors.values()) > bound
        calls = []
        original = tr.critic_step

        def checked(p, *args):
            gap = original(p, *args)
            calls.append(max(np.abs(t.data).max() for t in p.critic.tensors.values()))
            return gap

        monkeypatch.setattr(tr, "critic_step", checked)
        tr.joint_step(params, frames, 0, 1, SMALL, RngState(2), {})
        assert len(calls) == tr.N_CRITIC
        assert all(worst <= bound for worst in calls)

    def test_wasserstein_gradient_reaches_generator_not_encoder(self, frames):
        grads = {}
        for alpha in (0.0, 50.0):
            params = _params()
            config = TrainConfig(alpha=alpha, batch_size=8)
            breakdown = tr.joint_step(params, frames, 0, 1, config, RngState(4), {})
            assert breakdown.alpha == alpha and breakdown.j_wgan != 0.0
            grads[alpha] = {
                net: {name: t.grad.copy() for name, t in group.tensors.items()}
                for net, group in (("enc", params.encoder), ("gen", params.generator))
            }
        for name, g in grads[0.0]["enc"].items():
            assert np.array_equal(g, grads[50.0]["enc"][name]), name
        assert any(
            not np.array_equal(g, grads[50.0]["gen"][name]) for name, g in grads[0.0]["gen"].items()
        )

    def test_same_seed_and_counter_reproduce_bit_for_bit(self, frames):
        finals = []
        for _ in range(2):
            params, rng, state = _params(seed=5), RngState(seed=9, counter=3), {}
            tr.warmup_step(params, frames, SMALL, rng, state)
            tr.joint_step(params, frames, 0, 1, SMALL, rng, state)
            tr.joint_step(params, frames, 1, 0, SMALL, rng, state)
            finals.append((params.named_parameters(), state, rng.counter))
        (p0, s0, c0), (p1, s1, c1) = finals
        assert c0 == c1
        assert p0.keys() == p1.keys() and s0.keys() == s1.keys()
        for name in p0:
            assert np.array_equal(p0[name].data, p1[name].data), name
            assert np.array_equal(s0[name], s1[name]), name

    def test_float32_model_given_float64_frames_stays_float32(self, frames, monkeypatch):
        outputs, grads = [], []

        def recording(fn):
            def wrapped(*args):
                out = fn(*args)
                outputs.extend(t.data.dtype for t in (out if isinstance(out, tuple) else (out,)))
                return out

            return wrapped

        for name in ("encode", "generate", "criticize"):
            monkeypatch.setattr(md, name, recording(getattr(md, name)))
        original = tr.rmsprop_update

        def checked(p, state):
            grads.extend(t.grad.dtype for t in p.named_parameters().values() if t.grad is not None)
            original(p, state)

        monkeypatch.setattr(tr, "rmsprop_update", checked)
        params, rng, state = _params(), RngState(6), {}
        frames64 = [f.astype(np.float64) for f in frames]
        tr.warmup_step(params, frames64, SMALL, rng, state)
        tr.joint_step(params, frames64, 0, 1, SMALL, rng, state)
        # warm-up: 2 encodes and 2 generates; joint: 5 critic steps of 1 encode, 1 generate
        # and 2 criticizes, then 2 encodes, 3 generates and 2 criticizes
        assert len(outputs) == 2 * 2 + 2 + tr.N_CRITIC * 5 + 2 * 2 + 3 + 2
        assert set(outputs) == set(grads) == {np.dtype(np.float32)}
        for name, t in params.named_parameters().items():
            assert t.data.dtype == state[name].dtype == np.float32, name

    def test_float32_model_stays_float32(self, frames, monkeypatch):
        grad_dtypes = []
        original = tr.rmsprop_update

        def checked(p, state):
            grads = [t.grad for t in p.named_parameters().values() if t.grad is not None]
            grad_dtypes.extend(g.dtype for g in grads)
            original(p, state)

        monkeypatch.setattr(tr, "rmsprop_update", checked)
        params, state = _params(), {}
        tr.joint_step(params, frames, 0, 1, SMALL, RngState(6), state)
        named = params.named_parameters()
        vae = len(params.encoder.tensors) + len(params.generator.tensors)
        assert len(grad_dtypes) == tr.N_CRITIC * len(params.critic.tensors) + vae
        assert set(grad_dtypes) == {np.dtype(np.float32)}
        assert state.keys() == named.keys()
        for name, t in named.items():
            assert t.data.dtype == state[name].dtype == np.float32, name
        bound = params.critic.clip_bound
        assert all(np.abs(t.data).max() <= bound for t in params.critic.tensors.values())
