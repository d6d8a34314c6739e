import dataclasses
import itertools

import numpy as np
import pytest

from vawgan import model as md
from vawgan import numerics as nm
from vawgan import objectives as O
from vawgan import training as tr
from vawgan.errors import DataError, NumericError, ShapeError, UnknownSpeakerError
from vawgan.features import SyntheticSpec
from vawgan.model import NetworkConfig
from vawgan.numerics import RngState, Tensor

# the 64-bit configuration of the gradient checks: the smallest frame width the
# fixed architecture accepts (the generator upsamples 2 * 2 * 2)
CHECK_CONFIG = NetworkConfig(dim=8)
DIM, Z_DIM = CHECK_CONFIG.dim, CHECK_CONFIG.z_dim


def _frames(rng, batch, dim):
    return np.tanh(rng.standard_normal((batch, dim)))


def _dense_conv_norm(w, length, stride):
    """Oracle: spectral norm of a conv layer unrolled into its dense matrix,
    built by running ``nm.conv1d`` (zero bias) in float64 on the identity basis."""
    c_out, c_in, _ = w.shape
    basis = np.eye(c_in * length).reshape(-1, c_in, length)
    out = nm.conv1d(basis, w.astype(np.float64), np.zeros((c_out, 1)), stride=stride).data
    return np.linalg.svd(out.reshape(c_in * length, -1), compute_uv=False)[0]


def _dense_critic_bound(params):
    cfg = params.config
    act = max(1.0, cfg.leaky_slope)
    lengths = cfg.conv_lengths(cfg.critic_strides)
    bound = np.linalg.svd(params.tensors["out.w"].data.astype(np.float64), compute_uv=False)[0]
    for i, stride in enumerate(cfg.critic_strides):
        w = params.tensors[f"conv{i}.w"].data
        bound *= act * _dense_conv_norm(w, lengths[i], stride)
    return bound


class TestEncoder:
    def test_zero_weight_network_outputs_bias(self):
        params = md.init_encoder(CHECK_CONFIG, RngState(seed=0), dtype=np.float64)
        for name, t in params.tensors.items():
            if name.endswith(".w"):
                t.data[:] = 0.0
        params.tensors["mu.b"].data[:] = 0.25
        params.tensors["logvar.b"].data[:] = -0.5
        mu, log_var = md.encode(np.zeros((3, DIM)), params)
        np.testing.assert_allclose(mu.data, 0.25)
        np.testing.assert_allclose(log_var.data, -0.5)

    def test_output_shape_is_batch_by_64(self):
        # default latent width is the 64-dimensional phonetic space
        config = NetworkConfig(dim=24)
        assert config.z_dim == 64
        params = md.init_encoder(config, RngState(seed=1))
        mu, log_var = md.encode(np.zeros((7, 24), dtype=np.float32), params)
        assert mu.shape == (7, 64)
        assert log_var.shape == (7, 64)

    def test_gradients_match_finite_differences(self):
        rng = RngState(seed=7)
        params = md.init_encoder(CHECK_CONFIG, rng, dtype=np.float64)
        x = Tensor(_frames(np.random.default_rng(3), 4, DIM))
        w_mu = np.random.default_rng(4).standard_normal((4, Z_DIM))
        w_lv = np.random.default_rng(5).standard_normal((4, Z_DIM))

        def fn(point):
            mu, log_var = md.encode(x, md.EncoderParams(CHECK_CONFIG, point))
            proj = nm.add(nm.mul(mu, Tensor(w_mu)), nm.mul(log_var, Tensor(w_lv)))
            return nm.reduce_sum(proj)

        assert nm.grad_check(fn, params.tensors) < 1e-4

    def test_logvar_head_is_clamped(self):
        params = md.init_encoder(CHECK_CONFIG, RngState(seed=2), dtype=np.float64)
        params.tensors["logvar.b"].data[:] = 1e6
        _, log_var = md.encode(np.zeros((2, DIM)), params)
        assert log_var.data.max() == CHECK_CONFIG.logvar_bound

    def test_non_finite_activation_reports_layer(self):
        params = md.init_encoder(CHECK_CONFIG, RngState(seed=3), dtype=np.float64)
        params.tensors["conv1.w"].data[:] = np.inf
        with pytest.raises(NumericError, match="encoder conv layer 1"), np.errstate(invalid="ignore"):
            md.encode(np.ones((2, DIM)), params)

    def test_rejects_wrong_width(self):
        params = md.init_encoder(CHECK_CONFIG, RngState(seed=4))
        with pytest.raises(ShapeError, match="encode"):
            md.encode(np.zeros((2, 7)), params)


class TestReparameterize:
    def test_zero_variance_surrogate_returns_mu_exactly(self):
        mu = Tensor(np.array([[1.5, -2.0]]))
        log_var = Tensor(np.array([[-1e9, -1e9]]))  # exp(0.5 * log_var) underflows to 0
        lat = md.reparameterize(mu, log_var, RngState(seed=0))
        assert np.array_equal(lat.z.data, mu.data)

    def test_unit_posterior_sample_variance(self):
        shape = (100_000, 1)
        lat = md.reparameterize(
            Tensor(np.zeros(shape)), Tensor(np.zeros(shape)), RngState(seed=11)
        )
        assert abs(lat.z.data.var() - 1.0) < 0.02

    def test_dz_dmu_is_identity(self):
        mu = Tensor(np.zeros((2, 3)), requires_grad=True)
        log_var = Tensor(np.zeros((2, 3)))
        lat = md.reparameterize(mu, log_var, RngState(seed=5))
        nm.backward(nm.reduce_sum(lat.z))
        np.testing.assert_array_equal(mu.grad, np.ones((2, 3)))

    def test_recorded_eps_satisfies_invariant(self):
        rng = np.random.default_rng(9)
        mu = Tensor(rng.standard_normal((4, 3)))
        log_var = Tensor(rng.standard_normal((4, 3)))
        lat = md.reparameterize(mu, log_var, RngState(seed=13))
        expected = mu.data + np.exp(0.5 * log_var.data) * lat.eps
        np.testing.assert_allclose(lat.z.data, expected, rtol=1e-12)

    def test_eps_override_hook(self):
        mu = Tensor(np.full((2, 2), 3.0))
        log_var = Tensor(np.zeros((2, 2)))
        lat = md.reparameterize(mu, log_var, RngState(seed=0), eps=np.zeros((2, 2)))
        assert np.array_equal(lat.z.data, mu.data)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            md.reparameterize(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), RngState(seed=0))

    def test_no_rng_and_no_eps_rejected(self):
        mu, log_var = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))
        with pytest.raises(TypeError, match="rng.*eps"):
            md.reparameterize(mu, log_var, None)
        assert np.array_equal(md.reparameterize(mu, log_var, None, eps=np.ones((2, 3))).z.data, np.ones((2, 3)))

    @pytest.mark.parametrize("eps_shape", [(1, 3), (3,), (2, 1), (3, 2), (1, 2, 3)])
    def test_eps_must_match_mu_exactly(self, eps_shape):
        mu, log_var = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match="eps"):  # a broadcastable eps would share draws
            md.reparameterize(mu, log_var, RngState(seed=0), eps=np.ones(eps_shape))


class TestGenerator:
    def test_different_speakers_give_different_outputs(self):
        z = np.zeros((3, Z_DIM))
        for seed in range(10):
            params = md.init_generator(CHECK_CONFIG, RngState(seed=seed), dtype=np.float64)
            a = md.generate(z, 0, params).data
            b = md.generate(z, 1, params).data
            assert not np.allclose(a, b)

    def test_output_range_inside_unit_interval(self):
        params = md.init_generator(CHECK_CONFIG, RngState(seed=3), dtype=np.float64)
        out = md.generate(np.random.default_rng(0).standard_normal((20, Z_DIM)) * 5, 1, params)
        assert out.shape == (20, DIM)
        assert (out.data > -1.0).all() and (out.data < 1.0).all()

    def test_embedding_row_receives_gradient(self):
        params = md.init_generator(CHECK_CONFIG, RngState(seed=6), dtype=np.float64)
        z = Tensor(np.random.default_rng(2).standard_normal((4, Z_DIM)))
        target = np.random.default_rng(3).standard_normal((4, DIM))
        out = md.generate(z, 1, params)
        loss = nm.reduce_mean(nm.square(nm.sub(out, Tensor(target))))
        nm.backward(loss)
        emb_grad = params.tensors["embedding"].grad
        assert emb_grad is not None
        assert np.abs(emb_grad[1]).max() > 0.0
        np.testing.assert_array_equal(emb_grad[0], 0.0)

    def test_gradients_match_finite_differences(self):
        params = md.init_generator(CHECK_CONFIG, RngState(seed=8), dtype=np.float64)
        z = Tensor(np.random.default_rng(4).standard_normal((3, Z_DIM)))
        proj = np.random.default_rng(5).standard_normal((3, DIM))

        def fn(point):
            out = md.generate(z, 0, md.GeneratorParams(CHECK_CONFIG, point))
            return nm.reduce_sum(nm.mul(out, Tensor(proj)))

        assert nm.grad_check(fn, params.tensors) < 1e-4

    def test_no_tape_generate_keeps_no_upsampled_copy(self, peak_bytes):
        # with no tape the last conv block holds its input and its output, and the output
        # conv and its finiteness scan add a little: about 1.57x the block's output. An
        # upsampled copy of the input would add 1x, a bool copy of the block's output 0.25x
        config = NetworkConfig(dim=256)
        params = md.init_generator(config, RngState(seed=1))
        for t in params.tensors.values():
            t.requires_grad = False
        z = np.random.default_rng(2).standard_normal((64, config.z_dim)).astype(np.float32)
        md.generate(z, 1, params)  # grows conv1d's scratch arena to its size
        block_bytes = 64 * config.generator_channels[-1] * config.dim * 4
        assert peak_bytes(lambda: md.generate(z, 1, params)) <= 1.65 * block_bytes

    def test_unknown_speaker_rejected(self):
        params = md.init_generator(CHECK_CONFIG, RngState(seed=1))
        with pytest.raises(UnknownSpeakerError):
            md.generate(np.zeros((1, Z_DIM), dtype=np.float32), 2, params)

    def test_non_integer_speaker_rejected(self):
        params = md.init_generator(CHECK_CONFIG, RngState(seed=1))
        z = np.zeros((1, Z_DIM), dtype=np.float32)
        with pytest.raises(UnknownSpeakerError, match="integer"):
            md.generate(z, 1.5, params)
        np.testing.assert_array_equal(
            md.generate(z, np.int64(1), params).data, md.generate(z, 1, params).data
        )

    @pytest.mark.parametrize("speaker", [True, False, np.bool_(True)], ids=repr)
    def test_bool_speaker_rejected(self, speaker):
        params = md.init_generator(CHECK_CONFIG, RngState(seed=1))
        with pytest.raises(UnknownSpeakerError, match="integer"):
            md.generate(np.zeros((1, Z_DIM), dtype=np.float32), speaker, params)


class TestCritic:
    def test_zero_weight_critic_scores_equal_bias(self):
        params = md.init_critic(CHECK_CONFIG, RngState(seed=0), dtype=np.float64)
        for name, t in params.tensors.items():
            if name.endswith(".w"):
                t.data[:] = 0.0
        params.tensors["out.b"].data[:] = 0.125
        scores = md.criticize(np.random.default_rng(1).standard_normal((5, DIM)), params)
        np.testing.assert_allclose(scores.data, 0.125)

    def test_clipped_critic_is_lipschitz(self):
        params = md.init_critic(CHECK_CONFIG, RngState(seed=4), dtype=np.float64)
        for t in params.tensors.values():
            np.clip(t.data, -0.01, 0.01, out=t.data)
        bound = md.critic_lipschitz_bound(params)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x1 = rng.standard_normal((1, DIM))
            x2 = rng.standard_normal((1, DIM))
            gap = abs(md.criticize(x1, params).item() - md.criticize(x2, params).item())
            assert gap <= bound * np.linalg.norm(x1 - x2) + 1e-12

    @pytest.mark.parametrize("c_in, c_out", [(1, 8), (8, 8), (3, 5)])
    def test_polyphase_norm_bounds_dense_norm(self, c_in, c_out):
        rng = np.random.default_rng(c_in * 10 + c_out)
        for kernel in (1, 2, 3, 4, 5):
            w = rng.standard_normal((c_out, c_in, kernel))
            for length, stride in itertools.product((5, 16, 24, 64), (1, 2, 3, 4)):
                dense = _dense_conv_norm(w, length, stride)
                poly = md._conv_operator_norm(w, length, stride)
                assert poly >= dense * (1 - 1e-12), (kernel, length, stride)

    def test_certificate_is_tight_for_the_default_critic(self):
        params = md.init_critic(NetworkConfig(dim=128), RngState(seed=3))
        dense = _dense_critic_bound(params)
        assert dense <= md.critic_lipschitz_bound(params) <= dense * (1 + 1e-3)

    def test_gradients_match_finite_differences(self):
        params = md.init_critic(CHECK_CONFIG, RngState(seed=9), dtype=np.float64)
        x = Tensor(_frames(np.random.default_rng(6), 4, DIM))

        def fn(point):
            scores = md.criticize(x, md.CriticParams(CHECK_CONFIG, point))
            return nm.reduce_mean(scores)

        assert nm.grad_check(fn, params.tensors) < 1e-4

    # an infinite bound would leave the critic's weights unconstrained; True is not 1.0
    @pytest.mark.parametrize(
        "bound, match",
        [*[pytest.param(bound, "positive and finite", id=repr(bound)) for bound in (0.0, -0.01)],
         *[pytest.param(bound, "finite real number", id=repr(bound)) for bound in (float("nan"), float("inf"))],
         *[pytest.param(bound, "real number", id=repr(bound)) for bound in (True, np.bool_(True), "0.01")]],
    )
    def test_rejects_bad_clip_bound(self, bound, match):
        with pytest.raises(DataError, match="clip_bound"):
            md.init_model(CHECK_CONFIG, RngState(seed=0), clip_bound=bound)
        with pytest.raises(DataError, match=match):
            md.init_critic(CHECK_CONFIG, RngState(seed=0), clip_bound=bound)

    def test_numpy_float_clip_bound_stored_as_python_float(self):
        params = md.init_critic(CHECK_CONFIG, RngState(seed=0), clip_bound=np.float32(0.01))
        assert type(params.clip_bound) is float and params.clip_bound == float(np.float32(0.01))

    def test_scores_are_unbounded_reals(self):
        params = md.init_critic(CHECK_CONFIG, RngState(seed=2), dtype=np.float64)
        params.tensors["out.b"].data[:] = 50.0
        scores = md.criticize(np.zeros((2, DIM)), params)
        assert scores.data.max() > 1.0  # no squashing nonlinearity at the output


class TestNonFiniteOutputs:
    """A NaN or inf planted in any layer raises NumericError naming that layer,
    from the network's own call (off the tape) and through ``critic_step`` and
    ``warmup_step`` (on the tape). Only the outputs are scanned on the way: the
    critic's score is unbounded, tanh turns an inf into ±1 and the clip an inf
    into the bound; a failed scan re-runs the network with every layer scanned."""

    # (network, tensor, planted value, layer named)
    SITES = [
        *[(net, f"conv{i}.w", value, f"{net} conv layer {i}")
          for net in ("encoder", "generator", "critic") for i, value in enumerate((np.nan, np.inf, np.nan))],
        ("generator", "merge.w", np.inf, "generator merge layer"),
        ("critic", "out.w", np.nan, "critic output head"),
        ("generator", "out.w", np.inf, "generator output layer"),
        ("encoder", "mu.b", np.nan, "encoder mu head"),
        ("encoder", "logvar.b", np.inf, "encoder logvar head"),
    ]

    @staticmethod
    def _model():
        config = NetworkConfig(dim=24)
        rng = np.random.default_rng(1)
        frames = [_frames(rng, 16, config.dim).astype(np.float32) for _ in range(2)]
        return md.init_model(config, RngState(seed=0)), frames

    @classmethod
    def _planted(cls, net, name, value):
        params, frames = cls._model()
        getattr(params, net).tensors[name].data.flat[0] = value
        return params, frames

    @staticmethod
    def _raises_naming(layer):
        return pytest.raises(NumericError, match=f"in {layer}$")

    @pytest.mark.parametrize("net,name,value,layer", SITES)
    def test_direct_call_names_layer(self, net, name, value, layer):
        params, frames = self._planted(net, name, value)
        calls = {
            "critic": lambda: md.criticize(frames[0], params.critic),
            "generator": lambda: md.generate(np.ones((4, params.generator.config.z_dim)), 1,
                                             params.generator),
            "encoder": lambda: md.encode(frames[0], params.encoder),
        }
        with self._raises_naming(layer), np.errstate(invalid="ignore"):
            calls[net]()

    @pytest.mark.parametrize("net,name,value,layer", SITES)
    def test_critic_step_names_layer(self, net, name, value, layer):
        params, frames = self._planted(net, name, value)
        with self._raises_naming(layer), np.errstate(invalid="ignore"):
            tr.critic_step(params, frames, 0, 1, tr.TrainConfig(batch_size=8), RngState(2), {})

    # warm-up never runs the critic
    @pytest.mark.parametrize("net,name,value,layer", [site for site in SITES if site[0] != "critic"])
    def test_warmup_step_names_layer(self, net, name, value, layer):
        params, frames = self._planted(net, name, value)
        with self._raises_naming(layer), np.errstate(invalid="ignore"):
            tr.warmup_step(params, frames, tr.TrainConfig(batch_size=8), RngState(2), {})

    def test_finite_forward_scans_only_its_outputs(self, monkeypatch):
        # mu and log-variance heads, the generator's output conv, the critic's score
        scans = []
        scan = md._ensure_finite
        monkeypatch.setattr(md, "_ensure_finite", lambda t, where: scans.append(where) or scan(t, where))
        params, frames = self._model()
        counts = {}
        for name, call in (
            ("encode", lambda: md.encode(frames[0], params.encoder)),
            ("generate", lambda: md.generate(np.ones((4, params.generator.config.z_dim)), 1,
                                             params.generator)),
            ("criticize", lambda: md.criticize(frames[0], params.critic)),
        ):
            scans.clear()
            call()
            counts[name] = len(scans)
        assert counts == {"encode": 2, "generate": 1, "criticize": 1}

    def test_strides_read_every_input_position(self):
        # output j of a stride-s conv reads s*j - K // 2 .. s*j + K // 2; the last of the
        # (L - 1) // s + 1 outputs reaches position L - 1 at every length L iff s <= K // 2 + 1
        cfg = NetworkConfig
        assert max(cfg.encoder_strides + cfg.critic_strides) <= cfg.kernel_size // 2 + 1

    @pytest.mark.parametrize("dim", [8, 24])
    @pytest.mark.parametrize("net", ["encoder", "critic"])
    def test_input_nan_at_any_position_reaches_the_output_scan(self, net, dim):
        # every input position is read, so a NaN anywhere in a frame is caught by the
        # output scan and located in conv layer 0
        config = NetworkConfig(dim=dim)
        params = getattr(md.init_model(config, RngState(seed=0)), net)
        forward = md.encode if net == "encoder" else md.criticize
        for position in range(config.dim):
            x = np.full((2, config.dim), 0.5, dtype=np.float32)
            x[1, position] = np.nan
            with self._raises_naming(f"{net} conv layer 0"):
                forward(x, params)


class TestConv1dCalls:
    def test_model_passes_only_x_and_w_positionally(self, monkeypatch):
        # a conv1d wrapper of the form f(x, w, **kwargs), as the benchmark's
        # planted-fault check writes it, must serve every conv of the model
        conv, calls = nm.conv1d, []

        def spy(x, w, **kwargs):
            calls.append(kwargs)
            return conv(x, w, **kwargs)

        monkeypatch.setattr(nm, "conv1d", spy)
        config, small = NetworkConfig(dim=24), tr.TrainConfig(batch_size=8)
        params = md.init_model(config, RngState(seed=0))
        rng = np.random.default_rng(1)
        frames = [_frames(rng, 16, config.dim).astype(np.float32) for _ in range(2)]
        mu, _ = md.encode(frames[0], params.encoder)
        md.generate(mu, 1, params.generator)
        md.criticize(frames[0], params.critic)
        tr.warmup_step(params, frames, small, RngState(2), {})
        tr.critic_step(params, frames, 0, 1, small, RngState(3), {})
        # 3 encoder, 4 generator and 3 critic convs; warm-up: 2 encodes and 2 generates;
        # critic step: 1 encode, 1 generate and 2 criticizes
        assert len(calls) == 3 + 4 + 3 + 2 * (3 + 4) + 3 + 4 + 2 * 3
        assert all("bias" in kwargs for kwargs in calls)


# NetworkConfig's settings before its architecture became class constants
FORMER_SETTINGS = ("z_dim", "embedding_dim", "encoder_channels", "encoder_strides",
                   "generator_channels", "generator_upsamples", "critic_channels", "critic_strides")


def _assert_rejected(knob, match, dim=16):
    with pytest.raises(DataError, match=match):
        NetworkConfig(**{"dim": dim, **knob})


class TestConfigValidation:
    def test_fields_are_the_corpus_shape(self):
        assert [f.name for f in dataclasses.fields(NetworkConfig)] == ["dim", "num_speakers"]

    def test_upsample_product_must_divide_dim(self):
        with pytest.raises(DataError, match="not divisible by the upsample product 8"):
            NetworkConfig(dim=10)

    def test_each_conv_layer_has_one_stride_or_upsample(self):
        cfg = NetworkConfig
        assert len(cfg.encoder_channels) == len(cfg.encoder_strides)
        assert len(cfg.generator_channels) == len(cfg.generator_upsamples)
        assert len(cfg.critic_channels) == len(cfg.critic_strides)

    @pytest.mark.parametrize(
        "knob, match",
        [
            ({"dim": 0}, r"dim must be an integer in \[1, inf\)"),
            ({"dim": -8}, r"dim must be an integer in \[1, inf\)"),
            ({"num_speakers": 0}, r"num_speakers must be an integer in \[1, inf\)"),
        ],
        ids=["dim-zero", "dim-negative", "speakers"],
    )
    def test_out_of_range_setting_rejected(self, knob, match):
        _assert_rejected(knob, match, dim=8)

    @pytest.mark.parametrize("knob", [{"dim": 16.0}, {"num_speakers": 2.0}], ids=lambda knob: next(iter(knob)))
    def test_non_integer_setting_rejected(self, knob):
        _assert_rejected(knob, next(iter(knob)))

    @pytest.mark.parametrize(
        "knob", [{"num_speakers": True}, {"dim": np.bool_(True)}], ids=lambda knob: next(iter(knob))
    )
    def test_bool_setting_rejected(self, knob):
        _assert_rejected(knob, next(iter(knob)))

    def test_numpy_integer_settings_accepted(self):
        config = NetworkConfig(dim=np.int64(16), num_speakers=np.int32(3))
        assert config == NetworkConfig(dim=16, num_speakers=3)
        assert type(config.dim) is int and type(config.num_speakers) is int
        md.init_model(config, RngState(seed=1))

    @pytest.mark.parametrize(
        "cls, name",
        [*[(NetworkConfig, name) for name in FORMER_SETTINGS],
         (NetworkConfig, "kernel_size"), (NetworkConfig, "leaky_slope"),
         (NetworkConfig, "logvar_bound"), (SyntheticSpec, "cluster_spread"),
         (SyntheticSpec, "map_scale"), (SyntheticSpec, "bias_scale"), (SyntheticSpec, "num_clusters"),
         (SyntheticSpec, "noise_scale"), (SyntheticSpec, "max_condition")],
        ids=lambda v: v if isinstance(v, str) else v.__name__,
    )
    def test_fixed_constants_are_not_settings(self, cls, name):
        fields = {"dim": 8} if cls is NetworkConfig else {}
        with pytest.raises(TypeError, match=name):
            cls(**fields, **{name: 1.0})

    def test_purity_of_forward_passes(self):
        params = md.init_model(CHECK_CONFIG, RngState(seed=5), dtype=np.float64)
        x = _frames(np.random.default_rng(8), 3, DIM)
        a_mu, _ = md.encode(x, params.encoder)
        b_mu, _ = md.encode(x, params.encoder)
        assert np.array_equal(a_mu.data, b_mu.data)
        s1 = md.criticize(x, params.critic).data
        s2 = md.criticize(x, params.critic).data
        assert np.array_equal(s1, s2)


class TestFloat32:
    def test_float32_model_stays_float32_forward_and_backward(self):
        config = NetworkConfig(dim=24)
        params = md.init_model(config, RngState(seed=3), dtype=np.float32)
        named = params.named_parameters()
        assert {t.data.dtype for t in named.values()} == {np.dtype(np.float32)}
        x = _frames(np.random.default_rng(1), 5, 24).astype(np.float32)
        mu, log_var = md.encode(x, params.encoder)
        z = md.reparameterize(mu, log_var, RngState(seed=4)).z
        outs = [mu, log_var, z, md.criticize(x, params.critic)]
        outs += [md.generate(z, s, params.generator) for s in (0, 1)]
        kl, recon = O.kl_loss(mu, log_var), O.recon_loss(x, outs[-1])
        for t in outs + [kl, recon]:
            assert t.data.dtype == np.float32, t.op
        nm.backward(nm.add(nm.add(kl, recon), nm.reduce_mean(outs[3])))
        for name, t in named.items():
            assert t.grad is not None and t.grad.dtype == np.float32, name

    def test_float64_arrays_are_cast_to_the_parameters_dtype(self):
        config = NetworkConfig(dim=24)
        params = md.init_model(config, RngState(seed=3), dtype=np.float32)
        x = _frames(np.random.default_rng(1), 5, 24)  # float64
        mu, log_var = md.encode(x, params.encoder)
        z = mu.data.astype(np.float64)
        outs = [mu, log_var, md.criticize(x, params.critic), md.generate(z, 1, params.generator)]
        assert [t.data.dtype for t in outs] == [np.dtype(np.float32)] * 4
        # the cast matches casting the frames by hand, bit for bit
        assert mu.data.tobytes() == md.encode(x.astype(np.float32), params.encoder)[0].data.tobytes()

    def test_float64_tensor_is_not_cast(self):
        params = md.init_encoder(NetworkConfig(dim=24), RngState(seed=3), dtype=np.float32)
        x = Tensor(_frames(np.random.default_rng(1), 5, 24))
        with pytest.raises(ShapeError, match="one dtype, got float64, float32"):
            md.encode(x, params)
