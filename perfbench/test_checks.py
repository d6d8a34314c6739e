"""Self-tests of the benchmark: every output check must flag a planted fault.

Faults are planted by swapping a module attribute for a wrapped copy inside
this test process (pytest's ``monkeypatch`` restores it); the library's
source is never edited. Run from the repository root with

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json

import bootstrap

import numpy as np
import pytest

from vawgan import features as F
from vawgan import model as M
from vawgan import numerics as nm
from vawgan import objectives as O
from vawgan.numerics import Tensor

import checks
import run
import spans
import workloads

NULL = spans.NullRecorder()


def _flip_backward_sign(monkeypatch, op):
    original = getattr(nm, op)

    def faulty(*args, **kwargs):
        out = original(*args, **kwargs)
        if out._backward is not None:
            backward_fn = out._backward
            out._backward = lambda g: tuple(None if d is None else -d for d in backward_fn(g))
        return out

    monkeypatch.setattr(nm, op, faulty)


@pytest.fixture
def warmup(tmp_path):
    wl = workloads.Warmup(24, 7, tmp_path)
    wl.setup()
    return wl


@pytest.fixture
def joint(tmp_path):
    wl = workloads.Joint(24, 7, tmp_path)
    wl.setup()
    return wl


@pytest.fixture
def convert(tmp_path):
    wl = workloads.Convert(24, 7, tmp_path)
    wl.setup()
    return wl


def _warmup_check_inputs(wl):
    x = wl._batch(0)[: workloads.CHECK_FRAMES]
    return x, wl._eps(workloads.CHECK_FRAMES), 0


def _joint_check_inputs(wl):
    n = workloads.CHECK_FRAMES
    return wl._batch(workloads.SOURCE)[:n], wl._batch(workloads.TARGET)[:n], wl._eps(n)


# ---------------------------------------------------------------------------
# every check passes on the library as it is


def test_units_pass_on_the_library(warmup, joint, convert):
    for wl in (warmup, joint, convert):
        for i in range(2):
            assert wl.unit(i, NULL).failure is None
    assert joint.finish(NULL)[0].failure is None


def test_reference_forward_agrees_in_float64(warmup):
    x = warmup._batch(1)[:4].astype(np.float64)
    p = warmup.params
    mu, log_var = M.encode(x, M.EncoderParams(p.encoder.config, checks.float64_copy(p.encoder.tensors, False)))
    r_mu, r_lv = checks.ref_encode(x, p.encoder)
    np.testing.assert_allclose(mu.data, r_mu, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(log_var.data, r_lv, rtol=1e-6, atol=1e-6)


# ---------------------------------------------------------------------------
# planted faults


def test_forward_check_flags_flipped_conv_kernel(warmup, monkeypatch):
    conv = nm.conv1d

    def flipped(x, w, **kwargs):
        return conv(x, Tensor(nm.as_tensor(w).data[:, :, ::-1].copy()), **kwargs)

    monkeypatch.setattr(nm, "conv1d", flipped)
    failure = checks.check_forward(warmup._batch(0)[:4], 1, warmup.params)
    assert failure is not None and "float64 reference" in failure


@pytest.mark.parametrize("op", ["leaky_relu", "conv1d", "matmul"])
def test_directional_check_flags_wrong_sign_backward(warmup, monkeypatch, op):
    _flip_backward_sign(monkeypatch, op)
    failure = warmup._deep_check(*_warmup_check_inputs(warmup))
    assert failure is not None and "gradient" in failure


def test_directional_check_flags_wrong_critic_gradient(joint, monkeypatch):
    assert joint._deep_check(*_joint_check_inputs(joint)) is None
    criticize = M.criticize
    # the critic's last layer gets a backward of the wrong sign; nothing else changes
    monkeypatch.setattr(M, "criticize", lambda x, p: _negated_backward(criticize(x, p)))
    failure = joint._deep_check(*_joint_check_inputs(joint))
    assert failure is not None and "critic gradient" in failure


def _negated_backward(t: Tensor) -> Tensor:
    backward_fn = t._backward
    if backward_fn is not None:
        t._backward = lambda g: tuple(None if d is None else -d for d in backward_fn(g))
    return t


def test_certificate_check_flags_bound_below_gradient(joint, monkeypatch):
    lower = checks.max_input_gradient(joint._batch(workloads.TARGET), joint.params.critic)
    assert 0 < lower <= M.critic_lipschitz_bound(joint.params.critic)
    monkeypatch.setattr(M, "critic_lipschitz_bound", lambda p: 0.5 * lower)
    failure = joint.finish(NULL)[0].failure
    assert failure is not None and "below the gradient lower bound" in failure


def test_clip_check_flags_unclipped_critic(joint):
    assert checks.check_clipped(joint.params.critic) is not None  # fresh init is unclipped
    joint.unit(0, NULL)
    assert checks.check_clipped(joint.params.critic) is None
    joint.params.critic.tensors["conv0.w"].data[0, 0, 0] = 2 * joint.params.critic.clip_bound
    assert "beyond clip bound" in checks.check_clipped(joint.params.critic)


def test_loss_check_flags_negative_kl_and_non_finite_losses():
    assert checks.check_losses({"kl": 0.0, "recon": 1.0}) is None
    assert "negative" in checks.check_losses({"kl": -0.1})
    assert "not finite" in checks.check_losses({"recon": float("nan")})
    assert "not finite" in checks.check_losses({"wgan": float("inf")})


def test_warmup_unit_fails_when_kl_goes_negative(warmup, monkeypatch):
    kl = O.kl_loss
    monkeypatch.setattr(O, "kl_loss", lambda mu, lv: nm.mul(kl(mu, lv), -1.0))
    assert "negative" in warmup.unit(1, NULL).failure


def test_readback_check_flags_corrupted_write(convert, monkeypatch):
    write = F.write_frames

    def corrupting(fm, path):
        frames = fm.frames.copy()
        frames.view(np.uint32)[0, 0] ^= 1  # one flipped bit
        write(F.FrameMatrix(fm.speaker_id, frames, fm.energy), path)

    monkeypatch.setattr(F, "write_frames", corrupting)
    failure = convert.unit(0, NULL).failure
    assert failure is not None and "read back differ" in failure


def test_readback_check_flags_dropped_energy(convert, monkeypatch):
    write = F.write_frames
    monkeypatch.setattr(F, "write_frames", lambda fm, path: write(F.FrameMatrix(fm.speaker_id, fm.frames), path))
    assert "read back differ" in convert.unit(0, NULL).failure


# ---------------------------------------------------------------------------
# span recorder


def test_instrument_restores_the_library(warmup):
    before = {op: getattr(nm, op) for op in spans.PRIMITIVES}
    rec = spans.SpanRecorder()
    with spans.instrument(rec, nm, M, O, F):
        assert nm.conv1d is not before["conv1d"]
        warmup.unit(0, rec)
    assert {op: getattr(nm, op) for op in spans.PRIMITIVES} == before
    assert rec.spans and not rec._stack


def test_self_times_add_up_to_the_traced_step(warmup):
    rec = spans.SpanRecorder()
    with spans.instrument(rec, nm, M, O, F):
        for i in range(3):
            warmup.unit(i, rec)
    m = spans.per_layer_metrics(rec.spans, 0.01, 1.0)
    assert list(m) == spans.per_layer_names()
    unattributed = m["trace.step_ms"] - m["trace.self_sum_ms"]
    assert 0 <= unattributed < 0.2 * m["trace.step_ms"]
    assert m["numerics.conv1d.calls"] == 7  # 3 encoder convs + 3 generator convs + output conv
    assert m["numerics.backward.ms"] >= m["numerics.backward.self_ms"] > 0
    assert m["numerics.conv1d.bwd_ms"] > 0 and m["driver.check.ms"] > 0


def test_reshape_copy_is_detected():
    rec = spans.SpanRecorder()
    with spans.instrument(rec, nm, M, O, F):
        rec.step = 0
        with rec.span("unit"):
            a = Tensor(np.zeros((2, 3, 4)))
            nm.reshape(a, (6, 4))
            nm.reshape(Tensor(a.data.transpose(0, 2, 1)), (2, 12))
    assert spans.per_layer_metrics(rec.spans, 1.0, 1.0)["numerics.reshape.copy_frac"] == 0.5


# ---------------------------------------------------------------------------
# the entry point and BENCHMARK.json agree


def test_benchmark_json_lists_what_run_reports(capsys):
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == spans.per_layer_names()
    assert run.main(["--workload", "warmup-d24", "--seed", "3", "--seconds", "0.3", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_traced_run_reports_every_per_layer_metric(capsys):
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "warmup-d24", "--seed", "3", "--seconds", "0.3", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert result["metrics"]["numerics.conv1d.calls"]["value"] == 7
