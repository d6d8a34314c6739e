import numpy as np
import pytest

from vawgan import numerics as nm
from vawgan.errors import ShapeError
from vawgan.numerics import RngState, Tensor


def _param(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestForward:
    def test_identity_matmul(self):
        eye = Tensor(np.eye(2))
        x = Tensor([[3.0], [-1.5]])
        out = nm.matmul(eye, x)
        assert np.array_equal(out.data, [[3.0], [-1.5]])

    def test_integer_data_is_stored_as_float64(self):
        for data in (np.arange(3), [1, 2], np.array([True, False])):
            assert Tensor(data).data.dtype == np.float64
        assert Tensor(np.arange(3)).data.tolist() == [0.0, 1.0, 2.0]
        assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32

    def test_item_needs_exactly_one_element(self):
        assert Tensor([[2.5]]).item() == 2.5
        for data in ([3.0, 4.0], np.zeros((0,))):
            with pytest.raises(ShapeError, match="item"):
                Tensor(data).item()

    def test_activation_fixed_points(self):
        assert nm.tanh(Tensor(0.0)).item() == 0.0
        assert nm.leaky_relu(Tensor(-1.0), slope=0.2).item() == pytest.approx(-0.2)
        assert nm.leaky_relu(Tensor(0.0), slope=0.2).item() == 0.0

    def test_mlp_against_dense_arithmetic(self):
        # three dense layers with tanh, checked against raw numpy
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 4))
        ws = [rng.standard_normal(s) for s in [(4, 6), (6, 6), (6, 2)]]
        bs = [rng.standard_normal(s) for s in [(6,), (6,), (2,)]]

        h = Tensor(x)
        for w, b in zip(ws, bs):
            h = nm.tanh(nm.add(nm.matmul(h, Tensor(w)), Tensor(b)))

        ref = x
        for w, b in zip(ws, bs):
            ref = np.tanh(ref @ w + b)
        np.testing.assert_allclose(h.data, ref, atol=1e-12, rtol=0)

    def test_forward_is_pure_and_deterministic(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 3)))
        w = Tensor(rng.standard_normal((3, 3)))
        before = x.data.copy()
        a = nm.tanh(nm.matmul(x, w)).data
        b = nm.tanh(nm.matmul(x, w)).data
        assert np.array_equal(a, b)
        assert np.array_equal(x.data, before)

    def test_shape_mismatch_names_offending_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            nm.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        for op in (nm.add, nm.sub, nm.mul):
            with pytest.raises(ShapeError, match=rf"{op.__name__}: cannot broadcast \(2, 3\) with \(4,\)"):
                op(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))
        with pytest.raises(ShapeError, match="conv1d"):
            nm.conv1d(Tensor(np.ones((1, 2, 5))), Tensor(np.ones((4, 3, 3))), np.zeros((4, 1)))
        for x, w in ((np.ones((2, 5)), np.ones((4, 2, 3))), (np.ones((1, 2, 5)), np.ones((4, 6)))):
            with pytest.raises(ShapeError, match="conv1d: need 3-D input and kernel"):
                nm.conv1d(Tensor(x), Tensor(w), np.zeros((4, 1)))
        with pytest.raises(ShapeError, match="broadcast: cannot broadcast"):
            nm.broadcast_to(Tensor(np.ones((2, 3))), (4, 3))
        with pytest.raises(ShapeError, match="concat"):
            nm.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))], axis=1)
        with pytest.raises(ShapeError, match="concat: empty input list"):
            nm.concat([])
        with pytest.raises(ShapeError, match=r"reshape: cannot view \(2, 3\) as \(4,\)"):
            nm.reshape(Tensor(np.ones((2, 3))), (4,))
        for reduce, name in ((nm.reduce_sum, "reduce_sum"), (nm.reduce_mean, "reduce_mean")):
            for axis in (2, -3):  # numpy's AxisError would name no op
                with pytest.raises(ShapeError, match=rf"{name}: .*\(2, 3\)"):
                    reduce(Tensor(np.ones((2, 3))), axis=axis)

    def test_conv1d_matches_direct_convolution(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 8))
        # (c_out, kernel, stride): strided, stride above kernel, one output channel, kernel 5;
        # conv1d pads kernel // 2 at each edge
        for c_out, kernel, stride in [(4, 3, 2), (4, 2, 3), (1, 3, 1), (2, 5, 2)]:
            w, bias = rng.standard_normal((c_out, 3, kernel)), rng.standard_normal((c_out, 1))
            out = nm.conv1d(Tensor(x), Tensor(w), Tensor(bias), stride=stride)
            padding = kernel // 2
            xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
            l_out = (8 + 2 * padding - kernel) // stride + 1
            ref = np.zeros((2, c_out, l_out))
            for b in range(2):
                for co in range(c_out):
                    for l in range(l_out):
                        window = xp[b, :, stride * l : stride * l + kernel]
                        ref[b, co, l] = np.sum(window * w[co]) + bias[co, 0]
            np.testing.assert_allclose(out.data, ref, atol=1e-12, rtol=0)
            assert out.data.flags.c_contiguous


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        nm.backward(nm.reduce_sum(nm.square(x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_constant_scale(self):
        x = Tensor(1.7, requires_grad=True)
        nm.backward(nm.mul(Tensor(3.25), x))
        assert x.grad == pytest.approx(3.25)

    def test_rejects_non_scalar_output(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            nm.backward(nm.square(x))

    def test_output_that_needs_no_grad_is_left_alone(self):
        x = Tensor([1.0, 2.0])
        out = nm.reduce_sum(nm.square(x))
        nm.backward(out)
        assert x.grad is None and out.grad is None

    def test_conv_mlp_composite_finite_differences(self):
        rng = np.random.default_rng(5)
        point = {
            "x": _param(rng, (2, 2, 8)),
            "w1": _param(rng, (3, 2, 3)),
            "b1": _param(rng, (3, 1)),
            "w2": _param(rng, (12, 4)),
            "b2": _param(rng, (4,)),
        }

        def fn(p):
            h = nm.leaky_relu(nm.conv1d(p["x"], p["w1"], p["b1"], stride=2))
            h = nm.reshape(h, (2, 12))
            h = nm.tanh(nm.add(nm.matmul(h, p["w2"]), p["b2"]))
            return nm.reduce_mean(nm.square(h))

        assert nm.grad_check(fn, point) < 1e-4

    def test_backward_is_linear_in_the_output(self):
        rng = np.random.default_rng(9)
        x = _param(rng, (3, 3))
        w = _param(rng, (3, 3))

        def term_a():
            return nm.reduce_sum(nm.square(nm.matmul(x, w)))

        def term_b():
            return nm.reduce_mean(nm.tanh(nm.mul(x, w)))

        x.zero_grad(), w.zero_grad()
        nm.backward(nm.add(term_a(), term_b()))
        combined = (x.grad.copy(), w.grad.copy())

        x.zero_grad(), w.zero_grad()
        nm.backward(term_a())
        ga = (x.grad.copy(), w.grad.copy())
        x.zero_grad(), w.zero_grad()
        nm.backward(term_b())
        gb = (x.grad.copy(), w.grad.copy())

        for c, a, b in zip(combined, ga, gb):
            np.testing.assert_allclose(c, a + b, atol=1e-10, rtol=0)

    def test_gradient_takes_its_tensors_dtype(self):
        # a float32 leaf under a float64 loss: its gradient is rounded to float32
        leaf = Tensor(np.arange(1.0, 7.0, dtype=np.float32).reshape(2, 3), requires_grad=True)
        t64 = Tensor(np.full((2, 3), 1 / 3))
        nm.backward(nm.reduce_sum(nm.mul(leaf, t64)))
        assert leaf.grad.dtype == np.float32
        assert leaf.grad.tobytes() == np.full((2, 3), 1 / 3, dtype=np.float32).tobytes()

    def test_gradient_accumulates_across_passes(self):
        x = Tensor([2.0], requires_grad=True)
        nm.backward(nm.reduce_sum(nm.square(x)))
        nm.backward(nm.reduce_sum(nm.square(x)))
        np.testing.assert_allclose(x.grad, [8.0])

    def test_grad_kept_on_leaves_only(self):
        rng = np.random.default_rng(3)
        leaves = x, w, b = _param(rng, (2, 2, 8)), _param(rng, (3, 2, 3)), _param(rng, (3, 1))

        def loss():
            h = nm.leaky_relu(nm.conv1d(x, w, b, stride=2))
            return nm.reduce_mean(nm.square(nm.reshape(h, (2, 12))))

        out = loss()
        nm.backward(out)
        tape = nm._reverse_topological(out)
        assert {id(t) for t in tape if t._backward is None} == {id(t) for t in leaves}
        assert all(t.grad is None for t in tape if t._backward is not None)
        first = [t.grad.copy() for t in leaves]
        nm.backward(loss())  # a second pass adds into the leaves' .grad
        for t, g in zip(leaves, first):
            np.testing.assert_array_equal(t.grad, 2 * g)


# one small randomized configuration per primitive; grad-checked at many points
PRIMITIVE_CASES = {
    "matmul": (("a", "b"), lambda p: nm.reduce_sum(nm.matmul(p["a"], p["b"]))),
    "conv1d": (("x3", "k", "bias"), lambda p: nm.reduce_sum(nm.conv1d(p["x3"], p["k"], p["bias"]))),
    "conv1d_strided": (
        ("x3", "k", "bias"), lambda p: nm.reduce_sum(nm.conv1d(p["x3"], p["k"], p["bias"], stride=2)),
    ),
    # windows [-1, 1), [2, 4), [5, 7), [8, 10): inputs 1, 4 and 7 feed no output
    "conv1d_stride_exceeds_kernel": (
        ("x9", "k2", "bias"),
        lambda p: nm.reduce_sum(nm.square(nm.conv1d(p["x9"], p["k2"], p["bias"], stride=3))),
    ),
    "conv1d_one_output_channel": (
        ("x3", "k_out1", "bias1"),
        lambda p: nm.reduce_sum(nm.square(nm.conv1d(p["x3"], p["k_out1"], p["bias1"]))),
    ),
    "conv1d_bias": (
        ("x3", "k", "bias"),
        lambda p: nm.reduce_sum(nm.square(nm.conv1d(p["x3"], p["k"], p["bias"], stride=2))),
    ),
    "conv1d_kernel5_strided": (
        ("x9", "k5", "bias"),
        lambda p: nm.reduce_sum(nm.square(nm.conv1d(p["x9"], p["k5"], p["bias"], stride=2))),
    ),
    # windows [-1, 2), [3, 6), [7, 10): inputs 2, 6 and 10 feed no output
    "conv1d_stride4_length11": (
        ("x11", "k", "bias"),
        lambda p: nm.reduce_sum(nm.square(nm.conv1d(p["x11"], p["k"], p["bias"], stride=4))),
    ),
    "conv1d_upsample2": (
        ("x3", "k", "bias"),
        lambda p: nm.reduce_sum(nm.square(nm.conv1d(p["x3"], p["k"], p["bias"], slope=0.2, upsample=2))),
    ),
    "conv1d_upsample3_strided": (
        ("x3", "k", "bias"),
        lambda p: nm.reduce_sum(nm.square(nm.conv1d(p["x3"], p["k"], p["bias"], stride=2, upsample=3))),
    ),
    "add": (("a", "row"), lambda p: nm.reduce_sum(nm.add(p["a"], p["row"]))),
    "sub": (("a", "row"), lambda p: nm.reduce_sum(nm.sub(p["a"], p["row"]))),
    "mul": (("a", "row"), lambda p: nm.reduce_sum(nm.mul(p["a"], p["row"]))),
    "leaky_relu": (("a",), lambda p: nm.reduce_sum(nm.leaky_relu(p["a"], slope=0.2))),
    "tanh": (("a",), lambda p: nm.reduce_sum(nm.tanh(p["a"]))),
    "exp": (("a",), lambda p: nm.reduce_sum(nm.exp(p["a"]))),
    "log": (("a",), lambda p: nm.reduce_sum(nm.log(nm.add(nm.square(p["a"]), 1.0)))),
    "square": (("a",), lambda p: nm.reduce_sum(nm.square(p["a"]))),
    "clip": (("a",), lambda p: nm.reduce_sum(nm.clip(p["a"], -0.9, 0.9))),
    "reduce_sum": (("a",), lambda p: nm.reduce_sum(nm.square(nm.reduce_sum(p["a"], axis=1)))),
    "reduce_mean": (("a",), lambda p: nm.reduce_sum(nm.square(nm.reduce_mean(p["a"], axis=0)))),
    "broadcast": (("row",), lambda p: nm.reduce_sum(nm.square(nm.broadcast_to(p["row"], (3, 4))))),
    "concat": (("a", "a2"), lambda p: nm.reduce_sum(nm.square(nm.concat([p["a"], p["a2"]], axis=1)))),
    "reshape": (("a",), lambda p: nm.reduce_sum(nm.square(nm.reshape(p["a"], (4, 3))))),
}

PRIMITIVE_SHAPES = {
    "a": (3, 4),
    "a2": (3, 2),
    "row": (1, 4),
    "b": (4, 2),
    "x3": (2, 2, 6),
    "k": (3, 2, 3),
    "x9": (2, 2, 9),
    "k2": (3, 2, 2),
    "k_out1": (1, 2, 3),
    "bias": (3, 1),
    "bias1": (1, 1),
    "k5": (3, 2, 5),
    "x11": (2, 2, 11),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_at_100_random_points(name):
    keys, fn = PRIMITIVE_CASES[name]
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        point = {k: _param(rng, PRIMITIVE_SHAPES[k]) for k in keys}
        worst = max(worst, nm.grad_check(fn, point))
    assert worst < 1e-4


@pytest.mark.parametrize("frozen", ["x", "w"])
def test_conv1d_gradients_with_one_input_frozen(frozen):
    def fn(p):
        return nm.reduce_sum(nm.square(nm.conv1d(p["x"], p["w"], p["b"], stride=2)))

    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(2000 + trial)
        point = {"x": _param(rng, (2, 2, 6)), "w": _param(rng, (3, 2, 3)), "b": _param(rng, (3, 1))}
        point[frozen].requires_grad = False
        worst = max(worst, nm.grad_check(fn, point))
        assert point[frozen].grad is None
    assert worst < 1e-4


class TestConv1dBias:
    # (dtype of x and w, dtype of the bias): conv1d takes one dtype. The padding p
    # is conv1d's, that of a kernel of 2p + 1 taps
    @pytest.mark.parametrize("dtype,bias_dtype", [(np.float32, np.float32), (np.float64, np.float64)])
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (3, 0)])
    def test_bit_identical_to_separate_add(self, dtype, bias_dtype, stride, padding):
        rng = np.random.default_rng(31)
        dtypes = (dtype, dtype, bias_dtype)
        shapes = ((4, 3, 10), (5, 3, 2 * padding + 1), (5, 1))
        arrays = [rng.standard_normal(s).astype(d) for s, d in zip(shapes, dtypes)]
        proj = rng.standard_normal((4, 5, (10 - 1) // stride + 1)).astype(bias_dtype)
        results = []
        for fused in (True, False):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            if fused:
                out = nm.conv1d(x, w, b, stride=stride)
            else:  # + 0.0, then + b: the bits of + b for any b but -0.0
                out = nm.add(nm.conv1d(x, w, np.zeros((5, 1), dtype), stride=stride), b)
            nm.backward(nm.reduce_sum(nm.mul(out, Tensor(proj))))
            results.append([out.data, x.grad, w.grad, b.grad])
        assert results[0][1].dtype == dtype  # x's gradient keeps x's dtype
        for fused, separate in zip(*results):
            assert fused.dtype == separate.dtype
            assert fused.shape == separate.shape
            assert fused.tobytes() == separate.tobytes()

    def test_rejects_bias_of_wrong_shape(self):
        with pytest.raises(ShapeError, match="bias"):
            nm.conv1d(Tensor(np.ones((1, 2, 5))), Tensor(np.ones((4, 2, 3))), Tensor(np.ones(4)))

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (3, 0)])
    def test_rejects_bias_of_another_dtype(self, stride, padding):
        x, w = (Tensor(np.ones(s, dtype=np.float32)) for s in ((4, 3, 10), (5, 3, 2 * padding + 1)))
        with pytest.raises(ShapeError, match="one dtype, got float32, float32, float64"):
            nm.conv1d(x, w, Tensor(np.ones((5, 1))), stride=stride)

    def test_rejects_kernel_of_another_dtype(self):
        x, b = (Tensor(np.ones(s, dtype=np.float32)) for s in ((4, 3, 10), (5, 1)))
        with pytest.raises(ShapeError, match="one dtype, got float32, float64, float32"):
            nm.conv1d(x, Tensor(np.ones((5, 3, 3))), b)


class TestConv1dInputGradient:
    # (kernel, stride, padding, length), padding = kernel // 2 as conv1d pads: stride 1
    # and 2, kernel 5 strided, stride above kernel, a kernel as long as the input, and
    # kernel 1
    CASES = [(3, 1, 1, 8), (3, 2, 1, 8), (5, 2, 2, 9), (3, 4, 1, 11), (2, 3, 1, 9),
             (1, 1, 0, 4), (4, 1, 2, 4)]

    @pytest.mark.parametrize("kernel,stride,padding,length", CASES)
    def test_matches_col2im_loop(self, kernel, stride, padding, length):
        rng = np.random.default_rng(41)
        x = Tensor(rng.standard_normal((2, 3, length)), requires_grad=True)
        w = rng.standard_normal((4, 3, kernel))
        out = nm.conv1d(x, Tensor(w), np.zeros((4, 1)), stride=stride)
        g = rng.standard_normal(out.shape)
        nm.backward(nm.reduce_sum(nm.mul(out, Tensor(g))))
        ref = np.zeros((2, 3, length + 2 * padding))
        for j in range(out.shape[2]):  # each output scatters its window back onto the input
            ref[:, :, j * stride : j * stride + kernel] += np.einsum("bo,ock->bck", g[:, :, j], w)
        np.testing.assert_allclose(x.grad, ref[:, :, padding : padding + length], atol=1e-12, rtol=0)
        assert x.grad.flags.c_contiguous


def _conv1d_oracle(x, w, b, g, stride):
    """conv1d's output and (gx, gw, gb) as the np.pad + sliding_window_view im2col
    and the spread-buffer transposed convolution compute them, with padding K // 2;
    an oracle only."""
    from numpy.lib.stride_tricks import sliding_window_view

    batch, c_in, length = x.shape
    c_out, _, kernel = w.shape
    padding = kernel // 2
    l_out = (length + 2 * padding - kernel) // stride + 1

    def columns():
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
        windows = sliding_window_view(xp, kernel, axis=2)[:, :, ::stride]
        return windows.transpose(0, 1, 3, 2).reshape(batch, c_in * kernel, l_out)

    data = w.reshape(c_out, c_in * kernel) @ columns()
    data += b
    gb = g.sum(axis=0).sum(axis=1, keepdims=True)
    gw = (g @ columns().transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    spread = np.zeros((batch, c_out, length + kernel - 1), dtype=g.dtype)
    for j in range(l_out):  # an index past the buffer's end raises
        spread[:, :, j * stride + kernel - 1 - padding] = g[:, :, j]
    windows = sliding_window_view(spread, kernel, axis=2)[:, :, :, ::-1]
    cols = windows.transpose(0, 1, 3, 2).reshape(batch, c_out * kernel, length)
    gx = w.transpose(1, 0, 2).reshape(c_in, c_out * kernel) @ cols
    return data, gx.astype(x.dtype, copy=False), gw, gb


def _upsample_oracle(h, factor):
    """Nearest-neighbour upsampling as the generator once built it on the tape:
    reshape, concat of ``factor`` copies on a new trailing axis, reshape; the engine
    sums the copies' gradients in order. An oracle for conv1d's ``upsample`` only."""
    if factor == 1:
        return h
    b, c, length = h.shape
    h = nm.reshape(h, (b, c, length, 1))
    h = nm.concat([h] * factor, axis=3)
    return nm.reshape(h, (b, c, length * factor))


class TestConv1dUpsample:
    """``conv1d(x, ..., upsample=f)`` is ``conv1d(_upsample_oracle(x, f), ...)`` bit
    for bit, in the output and in all three gradients."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_in", [1, 3])
    @pytest.mark.parametrize("block_bytes", [None, 1], ids=["one-block", "row-blocks"])
    def test_grid_matches_concat_oracle(self, dtype, c_in, block_bytes, monkeypatch):
        if block_bytes is not None:
            monkeypatch.setattr(nm, "_BLOCK_BYTES", block_bytes)  # every sample is its own block
        rng = np.random.default_rng(71)
        cases = 0
        for factor in (1, 2, 3):
            for kernel in (1, 3, 5):  # conv1d pads 0, 1 and 2
                for stride in (1, 2):
                    for slope in (None, 0.2):
                        arrays = [rng.standard_normal(s).astype(dtype)
                                  for s in ((4, c_in, 5), (2, c_in, kernel), (2, 1))]
                        proj = rng.standard_normal((4, 2, (5 * factor - 1) // stride + 1))
                        results = []
                        for fused in (True, False):
                            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
                            kwargs = dict(stride=stride, slope=slope)
                            if fused:
                                out = nm.conv1d(x, w, b, upsample=factor, **kwargs)
                            else:
                                out = nm.conv1d(_upsample_oracle(x, factor), w, b, **kwargs)
                            nm.backward(nm.reduce_sum(nm.mul(out, Tensor(proj.astype(dtype)))))
                            results.append([out.data, x.grad, w.grad, b.grad])
                        for a, e in zip(*results):
                            assert a.dtype == e.dtype and a.shape == e.shape
                            assert a.tobytes() == e.tobytes(), (factor, kernel, stride, slope)
                        cases += 1
        assert cases == 36


class TestConv1dBitIdentity:
    """conv1d's strided-view columns equal the oracle's bit for bit: even and odd
    kernels, stride above K, a kernel longer than the input, and one input or output
    channel (columns that can be views)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_in,c_out", [(1, 1), (1, 2), (3, 1), (3, 2)])
    def test_grid_matches_oracle(self, dtype, c_in, c_out):
        assert self._grid(dtype, c_in, c_out) == 120

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_in,c_out", [(1, 2), (3, 2)])
    def test_grid_matches_oracle_one_row_per_block(self, dtype, c_in, c_out, monkeypatch):
        monkeypatch.setattr(nm, "_BLOCK_BYTES", 1)  # every sample is its own block
        assert self._grid(dtype, c_in, c_out) == 120

    @staticmethod
    def _grid(dtype, c_in, c_out):
        rng = np.random.default_rng(43)
        cases = 0
        for length in (1, 2, 5, 6, 11, 24):
            for kernel in (1, 2, 3, 4, 5):
                for stride in (1, 2, 3, 4):
                    x = rng.standard_normal((3, c_in, length)).astype(dtype)
                    w = rng.standard_normal((c_out, c_in, kernel)).astype(dtype)
                    b = rng.standard_normal((c_out, 1)).astype(dtype)
                    before = x.copy()
                    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
                    out = nm.conv1d(xt, wt, bt, stride=stride)
                    g = rng.standard_normal(out.shape).astype(dtype)
                    got = (out.data, *out._backward(g))
                    want = _conv1d_oracle(x, w, b, g, stride)
                    for a, e in zip(got, want):
                        assert a.dtype == e.dtype and a.shape == e.shape
                        assert a.tobytes() == e.tobytes(), (length, kernel, stride)
                    assert xt.data is x and x.tobytes() == before.tobytes()
                    cases += 1
        return cases

    @pytest.mark.parametrize("padding", [0, 2])
    def test_non_contiguous_input_matches_oracle(self, padding):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((3, 2, 20))[:, :, ::2]  # strided view, not C-contiguous
        # conv1d pads ``padding`` at each edge for a kernel of 2 * padding + 1 taps
        w, b = rng.standard_normal((4, 2, 2 * padding + 1)), rng.standard_normal((4, 1))
        out = nm.conv1d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                        Tensor(b, requires_grad=True), stride=2)
        g = rng.standard_normal(out.shape)
        for a, e in zip((out.data, *out._backward(g)), _conv1d_oracle(x, w, b, g, 2)):
            assert a.tobytes() == e.tobytes()


def _rows_per_block(c_in, c_out, length, l_out, kernel, itemsize):
    """Rows whose columns (the larger of a sample's forward and backward columns) fit
    in one conv1d block."""
    return nm._BLOCK_BYTES // (kernel * max(c_in * l_out, c_out * length) * itemsize)


class TestConv1dBlocks:
    """Dim-512 layer shapes over one block, two blocks and three blocks with a shorter
    last one: the output and all three gradients equal the unblocked oracle's bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_in,c_out", [(1, 8), (8, 8), (8, 1)])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("blocks", ["one", "two", "ragged", "empty"])
    def test_blocks_match_oracle(self, dtype, c_in, c_out, stride, blocks):
        length, kernel = 512, 3
        l_out = (length - 1) // stride + 1
        rows = _rows_per_block(c_in, c_out, length, l_out, kernel, np.dtype(dtype).itemsize)
        assert rows >= 2  # so that a ragged last block is shorter than a full one
        batch = {"one": rows, "two": 2 * rows, "ragged": 3 * rows - 1, "empty": 0}[blocks]
        rng = np.random.default_rng(59)
        x = rng.standard_normal((batch, c_in, length)).astype(dtype)
        w = rng.standard_normal((c_out, c_in, kernel)).astype(dtype)
        b = rng.standard_normal((c_out, 1)).astype(dtype)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = nm.conv1d(xt, wt, bt, stride=stride)
        g = rng.standard_normal(out.shape).astype(dtype)
        for a, e in zip((out.data, *out._backward(g)), _conv1d_oracle(x, w, b, g, stride)):
            assert a.dtype == e.dtype and a.shape == e.shape
            assert a.tobytes() == e.tobytes()


    def test_results_do_not_share_the_scratch_arena(self):
        rng = np.random.default_rng(67)
        x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True)
                   for s in ((5, 3, 16), (4, 3, 3), (4, 1)))
        out = nm.conv1d(x, w, b, stride=2, slope=0.2)
        grads = out._backward(rng.standard_normal(out.shape))
        kept = [a.copy() for a in (out.data, *grads)]
        other = nm.conv1d(Tensor(rng.standard_normal((5, 3, 16)), requires_grad=True), w, b)
        other._backward(rng.standard_normal(other.shape))  # reuses the arena's buffers
        for a, k in zip((out.data, *grads), kept):
            assert not np.shares_memory(a, vars(nm._arena)[np.dtype(np.float64)])
            assert a.tobytes() == k.tobytes()


class TestConv1dSlope:
    """``conv1d(..., slope=s)`` is ``leaky_relu(conv1d(...), s)`` bit for bit."""

    @staticmethod
    def _inputs(dtype):
        # channels 0 and 1 have zero weights, so their pre-activation is 0 + bias:
        # the bias -0.0 gives +0.0 (a sum that starts at +0.0 cannot give -0.0) and
        # the bias -tiny gives a negative subnormal, which slope * pre rounds to -0.0
        rng = np.random.default_rng(61)
        x = rng.standard_normal((7, 3, 12)).astype(dtype)
        x[0, :, :4] = 0.0
        w = rng.standard_normal((4, 3, 3)).astype(dtype)
        w[:2] = 0.0
        b = rng.standard_normal((4, 1)).astype(dtype)
        b[0], b[1] = -np.finfo(dtype).smallest_subnormal, -0.0
        g = rng.standard_normal((7, 4, 12)).astype(dtype)
        g[:, :, ::5] = 0.0
        return x, w, b, g

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0, np.float32(0.2)], ids=repr)
    @pytest.mark.parametrize("block_bytes", [None, 1], ids=["one-block", "row-blocks"])
    def test_bit_identical_to_separate_leaky_relu(self, dtype, slope, block_bytes, monkeypatch):
        if block_bytes is not None:
            monkeypatch.setattr(nm, "_BLOCK_BYTES", block_bytes)
        arrays = self._inputs(dtype)
        results = []
        for fused in (True, False):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays[:3])
            if fused:
                out = nm.conv1d(x, w, b, slope=slope)
            else:
                pre = nm.conv1d(x, w, b)
                out = nm.leaky_relu(pre, slope=slope)
            nm.backward(nm.reduce_sum(nm.mul(out, Tensor(arrays[3]))))
            results.append([out.data, x.grad, w.grad, b.grad])
        zero, subnormal = pre.data[:, 1], pre.data[:, 0]
        assert (zero == 0).all() and not np.signbit(zero).any()
        assert (subnormal < 0).all() and (subnormal > -np.finfo(dtype).tiny).all()
        if slope < 1:  # the output's sign would pick the wrong branch here
            assert np.signbit(results[1][0][:, 0]).all() and (results[1][0][:, 0] == 0).all()
        for fused, separate in zip(*results):
            assert fused.dtype == separate.dtype and fused.shape == separate.shape
            assert fused.tobytes() == separate.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("upsample", [1, 2])
    def test_no_tape_forward_matches_taped(self, dtype, slope, upsample):
        arrays = self._inputs(dtype)[:3]
        outs = []
        for taped in (True, False):
            x, w, b = (Tensor(a, requires_grad=taped) for a in arrays)
            outs.append(nm.conv1d(x, w, b, slope=slope, upsample=upsample))
        assert outs[1]._backward is None and not outs[1].requires_grad
        assert outs[0].data.tobytes() == outs[1].data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_tape_forward_allocates_no_mask(self, dtype, peak_bytes):
        rng = np.random.default_rng(73)
        x, w, b = (Tensor(rng.standard_normal(s).astype(dtype))
                   for s in ((64, 8, 128), (8, 8, 3), (8, 1)))

        def call():
            return nm.conv1d(x, w, b, slope=0.2, upsample=2)

        out_bytes = call().data.nbytes  # the first call also grows the scratch arena
        assert peak_bytes(call) <= 1.1 * out_bytes  # a bool mask would add 1 / itemsize

    @pytest.mark.parametrize("slope", [1.5, -0.1, float("nan"), True, np.True_, "0.2"], ids=repr)
    def test_rejects_slope_outside_unit_interval(self, slope):
        with pytest.raises(ValueError, match="conv1d: slope"):
            nm.conv1d(Tensor(np.ones((1, 2, 5))), Tensor(np.ones((4, 2, 3))), np.zeros((4, 1)),
                      slope=slope)


class TestConv1dArguments:
    X, W, B = Tensor(np.ones((1, 2, 10))), Tensor(np.ones((4, 2, 3))), Tensor(np.zeros((4, 1)))

    def test_padding_argument_rejected(self):
        # conv1d takes its padding, kernel // 2, from the kernel
        with pytest.raises(TypeError, match="padding"):
            nm.conv1d(self.X, self.W, self.B, padding=1)

    def test_bias_required(self):
        with pytest.raises(TypeError, match="bias"):
            nm.conv1d(self.X, self.W)
        with pytest.raises(TypeError, match="bias"):
            nm.conv1d(self.X, self.W, stride=2)

    @pytest.mark.parametrize("kernel,length", [(3, 0), (2, 0), (0, 10)])
    def test_empty_input_or_kernel_rejected(self, kernel, length):
        with pytest.raises(ShapeError, match="non-empty"):
            nm.conv1d(Tensor(np.ones((1, 2, length))), Tensor(np.ones((4, 2, kernel))), self.B)

    @pytest.mark.parametrize("knob", ["stride", "upsample"])
    def test_zero_stride_or_upsample_rejected(self, knob):
        with pytest.raises(ShapeError, match=rf"conv1d: {knob} must be >= 1, got 0"):
            nm.conv1d(self.X, self.W, self.B, **{knob: 0})

    @pytest.mark.parametrize(
        "knob", [{"padding": 1.0}, {"stride": 1.5}, {"stride": "2"}, {"upsample": 1.5},
                 {"stride": True}, {"upsample": True}, {"stride": np.bool_(True)}]
    )
    def test_non_integer_stride_or_padding_rejected(self, knob):
        with pytest.raises(TypeError):
            nm.conv1d(self.X, self.W, self.B, **knob)

    def test_numpy_integers_accepted(self):
        rng = np.random.default_rng(53)
        x, w = Tensor(rng.standard_normal((2, 2, 9))), Tensor(rng.standard_normal((4, 2, 3)))
        ref = nm.conv1d(x, w, self.B, stride=2, upsample=2).data
        got = nm.conv1d(x, w, self.B, stride=np.int64(2), upsample=np.int16(2)).data
        assert got.tobytes() == ref.tobytes()


class TestLeakyRelu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0, np.float32(0.2)], ids=repr)
    def test_bit_identical_to_where(self, dtype, slope):
        rng = np.random.default_rng(21)
        x = np.concatenate([[0.0, -0.0, 0.0, -0.0], rng.standard_normal(60)]).astype(dtype)
        g = np.concatenate([[1.0, -1.0, 0.0, -0.0], rng.standard_normal(60)]).astype(dtype)
        t = Tensor(x, requires_grad=True)
        out = nm.leaky_relu(t, slope=slope)
        nm.backward(nm.reduce_sum(nm.mul(out, Tensor(g))))
        ref_out = np.where(x >= 0, x, slope * x)
        ref_grad = np.where(x >= 0, g, slope * g)
        assert out.data.dtype == t.grad.dtype == dtype
        assert out.data.tobytes() == ref_out.tobytes()
        assert t.grad.tobytes() == ref_grad.tobytes()

    def test_numpy_slope_is_read_as_a_python_float(self):
        # a float64 scalar would otherwise carry a float32 input's product to float64
        x = Tensor(np.random.default_rng(3).standard_normal(1000).astype(np.float32))
        assert nm.leaky_relu(x, np.float64(0.2)).data.tobytes() == nm.leaky_relu(x, 0.2).data.tobytes()

    # a bool is a flag, not slope 1
    @pytest.mark.parametrize("slope", [1.5, -0.1, float("nan"), True, np.True_, "0.2"], ids=repr)
    def test_rejects_slope_outside_unit_interval(self, slope):
        with pytest.raises(ValueError, match="leaky_relu: slope"):
            nm.leaky_relu(Tensor([1.0, -1.0]), slope=slope)


class TestScalarOperands:
    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    @pytest.mark.parametrize("scalar", [0.3, np.float64(0.3)], ids=["python", "numpy"])
    @pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scalar_takes_the_tensor_dtype(self, op, scalar, left, dtype):
        x = np.random.default_rng(5).standard_normal((2, 3)).astype(dtype)
        t = Tensor(x, requires_grad=True)
        out = getattr(nm, op)(*((scalar, t) if left else (t, scalar)))
        nm.backward(nm.reduce_sum(out))
        s = dtype(scalar)
        ref = {"add": np.add, "sub": np.subtract, "mul": np.multiply}[op](
            *((s, x) if left else (x, s))
        )
        assert out.data.dtype == t.grad.dtype == dtype
        assert out.data.tobytes() == ref.tobytes()
        grad = {"add": 1.0, "sub": -1.0 if left else 1.0, "mul": s}[op]
        assert t.grad.tobytes() == np.full(x.shape, grad, dtype=dtype).tobytes()


def test_clip_rejects_lo_above_hi_as_value_error():
    with pytest.raises(ValueError, match="lo 1 exceeds hi 0") as info:
        nm.clip(Tensor([1.0]), 1, 0)
    assert not isinstance(info.value, ShapeError)


@pytest.mark.parametrize("lo, hi", [(np.nan, 0.5), (-0.5, np.nan), (np.nan, np.nan)])
def test_clip_rejects_nan_bound(lo, hi):
    with pytest.raises(ValueError, match="NaN"):
        nm.clip(Tensor([1.0, -1.0]), lo, hi)


class TestGradCheck:
    def test_rejects_non_scalar_fn(self):
        x = _param(np.random.default_rng(1), (3,))
        with pytest.raises(ShapeError, match=r"grad_check: fn must return a scalar, got shape \(3,\)"):
            nm.grad_check(lambda p: nm.square(p["x"]), {"x": x})

    def test_one_element_vector_output(self):
        rng = np.random.default_rng(3)
        a = _param(rng, (2, 3))
        err = nm.grad_check(lambda p: nm.reshape(nm.reduce_sum(nm.square(p["a"])), (1,)), {"a": a})
        assert err < 1e-6

    def test_linear_function_is_exact(self):
        rng = np.random.default_rng(2)
        c = Tensor(rng.standard_normal((5,)))
        x = _param(rng, (5,))
        err = nm.grad_check(lambda p: nm.reduce_sum(nm.mul(c, p["x"])), {"x": x})
        assert err < 1e-9

    def test_quadratic_is_exact_for_central_differences(self):
        rng = np.random.default_rng(4)
        x = _param(rng, (6,))
        err = nm.grad_check(lambda p: nm.reduce_sum(nm.square(p["x"])), {"x": x})
        assert err < 1e-9


class TestRng:
    def test_large_sample_moments(self):
        draws = RngState(seed=123).generator().standard_normal((100_000,))
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.02

    def test_same_seed_same_draws(self):
        a = RngState(seed=42).generator().standard_normal((17, 3))
        b = RngState(seed=42).generator().standard_normal((17, 3))
        assert np.array_equal(a, b)

    def test_shape(self):
        assert RngState(seed=0).generator().standard_normal((2, 3)).size == 6

    def test_counter_advances_and_pins_state(self):
        rng = RngState(seed=9)
        first = rng.generator().standard_normal((4,))
        assert rng.counter == 1
        second = rng.generator().standard_normal((4,))
        assert not np.array_equal(first, second)
        replay = RngState(seed=9, counter=1).generator().standard_normal((4,))
        assert np.array_equal(second, replay)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError):
            RngState(seed=-1)
        with pytest.raises(ValueError):
            RngState(seed=2**64)

    def test_rejects_negative_counter_when_built(self):
        with pytest.raises(ValueError, match="counter"):
            RngState(seed=1, counter=-1)

    @pytest.mark.parametrize("fields", [{"seed": 1.5}, {"seed": "3"}, {"seed": 1, "counter": 2.7},
                                        {"seed": True, "counter": 0}, {"seed": 1, "counter": False}],
                             ids=["float-seed", "string-seed", "float-counter", "bool-seed", "bool-counter"])
    def test_rejects_non_integer_seed_and_counter(self, fields):
        with pytest.raises(TypeError):
            RngState(**fields)

    def test_numpy_integers_stored_as_python_ints(self):
        rng = RngState(seed=np.uint64(7), counter=np.int32(2))
        assert type(rng.seed) is int and type(rng.counter) is int
        assert np.array_equal(rng.generator().standard_normal((3,)),
                              RngState(7, 2).generator().standard_normal((3,)))

    def test_blocks_from_one_generator_equal_one_draw(self):
        # the synthetic corpus draws each speaker's noise this way
        whole = RngState(seed=8).generator().standard_normal((8, 4))
        rng = RngState(seed=8)
        generator = rng.generator()
        blocks = [generator.standard_normal((3, 4)), generator.standard_normal((5, 4))]
        assert rng.counter == 1  # one bump per generator, however many draws it makes
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
