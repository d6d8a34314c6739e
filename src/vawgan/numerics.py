"""Minimal reverse-mode differentiable tensor core over dense numpy arrays.

Computation is define-by-run: every primitive records its parents and a
backward closure on the result tensor, so the tape of live tensors *is*
the computation graph. ``backward`` walks that tape in reverse
topological order; ``grad_check`` compares the result against central
finite differences element by element.

The primitive set is deliberately small: matmul, 1-D convolution along
the feature axis, elementwise add/sub/mul, branch-free leaky-ReLU, tanh,
exp, log, square, clip, reduce-sum/mean, broadcast, concat, reshape.
Tests verify each against finite differences at 64-bit precision. Outputs
follow NumPy promotion, and a scalar operand of add/sub/mul takes the
tensor operand's dtype (NEP 50's weak scalar): float32 stays float32.
conv1d takes one dtype: x, w and the bias must share it. ``backward``
gives each gradient its tensor's dtype, so every ``.grad``, and every
gradient a primitive's backward receives, has the dtype of that tensor.
add/sub/mul share one broadcasting helper, ``_broadcasting``; tanh, exp,
log, square, clip and the two reductions share one one-input helper, ``_unary``.

conv1d is im2col plus one matmul plus a required bias, with activations
kept as (batch, channels, length) and K // 2 zeros padded at each edge
("same" padding: ceil(L / stride) outputs for odd K). It works over the
batch in blocks of rows whose columns take about ``_BLOCK_BYTES``, so each
block's columns and outputs are still in cache for the matmul, the in-place
bias and the optional leaky-ReLU (``slope``) that follow. Every column
block is one read-only strided view, ``_taps``, of a zero-edged buffer,
copied into a column buffer. With
``upsample`` f, conv1d convolves the nearest-neighbour upsampled input
(each position repeated f times) without building it: the zero-edged
buffer is filled one phase at a time. Buffers that do not outlive a call
come from a per-thread arena of the call's dtype, ``_scratch``, so that
they do not fault in fresh pages on every call. The input gradient is a
transposed convolution: im2col of the stride-spread output gradient with
the taps reversed, then one matmul; with upsampling its f phases are then
added in order. With ``slope`` a taped result keeps the bool mask of the
non-negative pre-activations, not the pre-activation; a result off the
tape keeps none. Each sample goes through the same matmuls as without blocks, and the
weight gradient's per-sample products are summed over the whole batch at
the end, so blocking changes no bit.

All primitives are pure: inputs are never mutated, and identical inputs
give bitwise-identical outputs on one platform. Backward closures re-read
their inputs' ``data`` (conv1d rebuilds its columns from ``x.data``), so
do not mutate a tensor between its forward use and ``backward``.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, as_integer, as_real

_FLOAT_DTYPES = (np.float32, np.float64)

# byte budget of one block of conv1d's im2col columns, so that a block of rows and
# its output stay in a core's L2 cache between the column copy and the matmul;
# 512 KiB measured best of 256 KiB to 4 MiB at dim 512 (BENCH_convblocks.json)
_BLOCK_BYTES = 1 << 19


class Tensor:
    """Dense real array plus tape links for reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: expected one element, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    """Wrap arrays/scalars as constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _result(data, parents, backward_fn, op: str) -> Tensor:
    out = Tensor(data)
    out.op = op
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcasting introduced or stretched."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitives


def _broadcasting(op: str, fn, a, b, grad_a, grad_b) -> Tensor:
    """``fn(a, b)`` under NumPy broadcasting; a Python or NumPy scalar operand takes
    the other operand's dtype. ``grad_a(g, b)`` and ``grad_b(g, a)`` give each
    operand's gradient before the broadcast axes are summed away."""
    if np.isscalar(a):
        b = as_tensor(b)
        a = Tensor(np.asarray(a, dtype=b.data.dtype))
    else:
        a = as_tensor(a)
        b = Tensor(np.asarray(b, dtype=a.data.dtype)) if np.isscalar(b) else as_tensor(b)
    try:
        data = fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: cannot broadcast {a.shape} with {b.shape}") from exc

    def backward_fn(g):
        return (
            _unbroadcast(grad_a(g, b.data), a.shape) if a.requires_grad else None,
            _unbroadcast(grad_b(g, a.data), b.shape) if b.requires_grad else None,
        )

    return _result(data, (a, b), backward_fn, op)


def add(a, b) -> Tensor:
    return _broadcasting("add", operator.add, a, b, lambda g, _: g, lambda g, _: g)


def sub(a, b) -> Tensor:
    return _broadcasting("sub", operator.sub, a, b, lambda g, _: g, lambda g, _: -g)


def mul(a, b) -> Tensor:
    return _broadcasting("mul", operator.mul, a, b, operator.mul, operator.mul)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backward_fn(g):
        return (
            g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None,
        )

    return _result(data, (a, b), backward_fn, "matmul")


def _taps(buf, kernel: int, stride: int, l_out: int, reverse: bool = False) -> np.ndarray:
    """Read-only (B, C, K, Lout) view of the C-contiguous ``buf`` (B, C, length): tap k
    at position j reads ``buf[..., j * stride + k]``, or ``buf[..., j * stride + K - 1 - k]``
    when ``reverse``. NumPy rejects a view that would reach outside ``buf``."""
    sb, sc, sl = buf.strides
    view = np.ndarray(
        (buf.shape[0], buf.shape[1], kernel, l_out), buf.dtype, buffer=buf,
        offset=(kernel - 1) * sl if reverse else 0,
        strides=(sb, sc, -sl if reverse else sl, stride * sl),
    )
    view.flags.writeable = False
    return view


_arena = threading.local()


def _scratch(dtype, *shapes) -> list:
    """One array of ``dtype`` per shape, carved at 64-byte offsets from a per-thread
    arena of that dtype that only grows. conv1d's per-call buffers thus reuse memory
    that is already mapped instead of faulting in fresh pages on every call; they
    never leave the call."""
    align = 64 // dtype.itemsize
    offsets, end = [], 0
    for shape in shapes:
        offsets.append(end)
        end += -(-math.prod(shape) // align) * align
    arenas = vars(_arena)  # this thread's arenas, keyed by dtype
    arena = arenas.get(dtype)
    if arena is None or arena.size < end:
        arena = arenas[dtype] = np.empty(end, dtype)
    return [arena[offset : offset + math.prod(shape)].reshape(shape)
            for shape, offset in zip(shapes, offsets)]


def _im2col(windows, buf) -> np.ndarray:
    """The (n, C, K, L) ``windows`` as (n, C * K, L) columns: a view when their strides
    allow one, as reshape gives it, else copied into the front of the flat buffer ``buf``."""
    n, c, k, length = windows.shape
    if c == 1 or k == 1 or windows.strides[1] == k * windows.strides[2]:
        return windows.reshape(n, c * k, length)
    cols = buf[: windows.size].reshape(n, c * k, length)
    np.copyto(cols.reshape(n, c, k, length), windows)
    return cols


def _check_slope(op: str, slope) -> float:
    """``slope`` as a Python float in [0, 1], or ValueError; True is not 1."""
    slope = as_real(f"{op}: slope", slope, ValueError, low=0.0)
    if slope > 1.0:  # as_real's high is open, and 1 is allowed
        raise ValueError(f"{op}: slope must lie in [0, 1], got {slope}")
    return slope


def _leaky_grad(above, g, slope, out) -> np.ndarray:
    """``out`` = g * max(above, slope): g where the input was >= 0, slope * g elsewhere."""
    np.copyto(out, above)
    np.maximum(out, slope, out=out)
    out *= g
    return out


def conv1d(x, w, bias, stride: int = 1, slope=None, upsample: int = 1) -> Tensor:
    """1-D convolution along the last (feature) axis of the nearest-neighbour
    upsampled input, plus a bias and an optional leaky-ReLU.

    x: (batch, in_channels, length), w: (out_channels, in_channels, kernel) and
    the required bias: (out_channels, 1); length and kernel are >= 1. ``stride``
    >= 1 and ``upsample`` >= 1 are integers (NumPy integers pass). The input is
    convolved as if each position were repeated ``upsample`` times, to length
    U = upsample * L, with K // 2 zeros at each edge ("same" padding), so the
    output has ceil(U / stride) positions for odd K (U // stride + 1 for even K).
    x, w and the bias must share one dtype (else ShapeError); the result is
    C-contiguous, in that dtype.

    The batch is taken in blocks of rows, as many as the whole number nearest to
    its im2col columns (forward or backward, whichever is larger) over
    ``_BLOCK_BYTES``, and at least one, so each block's columns are still in cache
    when its matmul reads them. Per block: the rows of ``x.data`` are copied into
    the middle of one reused buffer whose K // 2 columns at each edge stay
    zero, once per phase k into the positions k, k + upsample, ... (one
    broadcast copy over the phases, whose innermost loop is only ``upsample``
    long, measured 4x slower), a strided view of it gives the (b, Cin, K, Lout)
    windows, which are copied into the columns (or viewed as them, where
    reshape would give a view), and one matmul writes the block's rows of the
    output; the bias is added in place. Every sample goes through the same
    matmul as in one unblocked call, so the output is bit for bit that
    matmul's result plus the bias. The buffers that do not outlive a call come
    from ``_scratch``'s per-thread arena of the call's dtype.

    ``slope`` in [0, 1] applies ``leaky_relu`` to each block while it is in
    cache; the result is bit for bit ``leaky_relu(conv1d(x, w, bias, ...), slope)``.
    When the result goes on the tape (an input requires grad), the tape keeps the
    bool mask ``pre >= 0`` of the pre-activation, not the pre-activation itself;
    off the tape no mask is made. The mask is not read from the output's sign: a
    negative subnormal pre-activation can give ``slope * pre == -0.0``.

    Backward, per block of rows: the weight gradient's per-sample products go
    into one (B, Cout, Cin * K) array that is summed over the batch at the end,
    as one unblocked matmul and sum would. The input gradient is a transposed
    convolution (Dumoulin & Visin 2016, arXiv:1603.07285): g spread at the
    stride into a zero buffer, then the same strided view of that buffer with
    the taps reversed, and one matmul with the transposed kernel into the
    block's rows of gx. With upsampling that matmul writes the U-long gradient
    into a scratch buffer, and the block's rows of gx are its phase 0 + phase 1,
    then += each further phase: bit for bit the sum the engine formed over the
    copies of a reshape, ``concat`` of ``upsample`` copies on a new trailing
    axis, reshape. The tape keeps ``x``, not the columns, and backward
    rebuilds them from ``x.data``: do not mutate ``x`` before ``backward``.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(bias)
    stride = as_integer("conv1d: stride", stride, TypeError)
    upsample = as_integer("conv1d: upsample", upsample, TypeError)
    if stride < 1:
        raise ShapeError(f"conv1d: stride must be >= 1, got {stride}")
    if upsample < 1:
        raise ShapeError(f"conv1d: upsample must be >= 1, got {upsample}")
    if slope is not None:
        slope = _check_slope("conv1d", slope)
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError(f"conv1d: need 3-D input and kernel, got {x.shape} and {w.shape}")
    batch, c_in, length = x.shape
    c_out, c_in_w, kernel = w.shape
    if c_in_w != c_in:
        raise ShapeError(f"conv1d: channel mismatch, input {c_in} vs kernel {c_in_w}")
    if b.shape != (c_out, 1):
        raise ShapeError(f"conv1d: bias must have shape {(c_out, 1)}, got {b.shape}")
    if length < 1 or kernel < 1:
        raise ShapeError(f"conv1d: need a non-empty input and kernel, got {x.shape} and {w.shape}")
    padding, up_len = kernel // 2, length * upsample
    l_out = (up_len + 2 * padding - kernel) // stride + 1
    parents = (x, w, b)
    dtype = x.data.dtype
    if any(p.data.dtype != dtype for p in parents):
        names = ", ".join(p.data.dtype.name for p in parents)
        raise ShapeError(f"conv1d: x, w and bias must share one dtype, got {names}")
    # a sample's columns: the larger of its forward and input-gradient columns. The
    # batch splits into the whole number of blocks nearest to its columns over the
    # budget, so that no call splits off a small ragged block
    sample_cols = kernel * max(c_in * l_out, c_out * up_len)
    rows = max(1, -(-batch // max(1, round(batch * sample_cols * dtype.itemsize / _BLOCK_BYTES))))
    cols_shape, padded_shape = (rows * sample_cols,), (rows, c_in, up_len + 2 * padding)

    def column_maker(xp, buf):
        """A function of (b0, b1) that gives the (b1 - b0, Cin * K, Lout) im2col
        columns of rows b0:b1, in ``buf`` unless they are a view. Each call rewrites
        the middle of ``xp``, whose edges stay zero, one phase of the upsampled rows
        at a time. Use each result before the next call."""
        xp[:, :, :padding] = 0
        xp[:, :, padding + up_len :] = 0
        windows = _taps(xp, kernel, stride, l_out)
        phases = xp[:, :, padding : padding + up_len].reshape(rows, c_in, length, upsample)

        def columns(b0, b1):
            for k in range(upsample):  # a broadcast over k would loop upsample long innermost
                phases[: b1 - b0, :, :, k] = x.data[b0:b1]
            return _im2col(windows[: b1 - b0], buf)

        return columns

    w2 = w.data.reshape(c_out, c_in * kernel)
    data = np.empty((batch, c_out, l_out), dtype=dtype)
    buf, xp, scaled = _scratch(dtype, cols_shape, padded_shape, (rows, c_out, l_out))
    taped = any(p.requires_grad for p in parents)
    if slope is not None and taped:  # only backward reads the mask
        mask = np.empty(data.shape, dtype=bool)
    columns = column_maker(xp, buf)
    for b0 in range(0, batch, rows):
        b1 = min(b0 + rows, batch)
        block = data[b0:b1]
        np.matmul(w2, columns(b0, b1), out=block)
        block += b.data
        if slope is not None:  # leaky_relu's max(pre, slope * pre), on the cached block
            if taped:
                np.greater_equal(block, 0, out=mask[b0:b1])
            np.maximum(block, np.multiply(block, slope, out=scaled[: b1 - b0]), out=block)

    # g[..., j] lands at j * stride + K - 1 - padding of a zero buffer of length
    # upsample * L + K - 1, which holds every entry as padding <= K - 1
    offset = kernel - 1 - padding

    def backward_fn(g):
        gx = gw = gb = None
        if slope is not None:
            g_pre = np.empty(data.shape, dtype=dtype)
        if w.requires_grad:
            products = np.empty((batch, c_out, c_in * kernel), dtype=dtype)
        # one buffer for both column blocks: a block's columns are used up before
        # its input-gradient columns are built
        buf, xp, spread, up_gx = _scratch(
            dtype, cols_shape, padded_shape, (rows, c_out, up_len + kernel - 1),
            (rows, c_in, up_len if upsample > 1 else 0),
        )
        if x.requires_grad:
            gx = np.empty(x.shape, dtype=dtype)
            spread.fill(0)
            windows_t = _taps(spread, kernel, 1, up_len, reverse=True)
            w_t = w.data.transpose(1, 0, 2).reshape(c_in, c_out * kernel)
        columns = column_maker(xp, buf) if w.requires_grad else None
        for b0 in range(0, batch, rows):
            b1 = min(b0 + rows, batch)
            g_block = g[b0:b1]
            if slope is not None:
                g_block = _leaky_grad(mask[b0:b1], g_block, slope, g_pre[b0:b1])
            if w.requires_grad:
                np.matmul(g_block, columns(b0, b1).transpose(0, 2, 1), out=products[b0:b1])
            if x.requires_grad:
                # the entries between and around g's stay zero
                spread[: b1 - b0, :, offset : offset + l_out * stride : stride] = g_block
                cols_t = _im2col(windows_t[: b1 - b0], buf)
                gx_block = gx[b0:b1] if upsample == 1 else up_gx[: b1 - b0]
                np.matmul(w_t, cols_t, out=gx_block)
                if upsample > 1:  # phase 0 + phase 1, then += phase k, as the engine summed copies
                    phases = gx_block.reshape(b1 - b0, c_in, length, upsample)
                    np.add(phases[..., 0], phases[..., 1], out=gx[b0:b1])
                    for k in range(2, upsample):
                        gx[b0:b1] += phases[..., k]
        if slope is not None:
            g = g_pre
        if b.requires_grad:
            gb = g.sum(axis=0).sum(axis=1, keepdims=True)
        if w.requires_grad:
            gw = products.sum(axis=0).reshape(w.shape)
        return (gx, gw, gb)

    return _result(data, parents, backward_fn, "conv1d")


def leaky_relu(x, slope: float = 0.2) -> Tensor:
    """max(x, slope*x), slope in [0, 1]; at 0 the value is 0 and the subgradient is 1.

    Branch-free: ``np.maximum`` forward; backward scales g by max(x >= 0, slope),
    which is exactly slope or 1.
    """
    slope = _check_slope("leaky_relu", slope)
    x = as_tensor(x)
    data = np.multiply(x.data, slope, out=np.empty_like(x.data))
    np.maximum(x.data, data, out=data)

    def backward_fn(g):
        return (_leaky_grad(x.data >= 0, g, slope, np.empty(x.shape, dtype=g.dtype)),)

    return _result(data, (x,), backward_fn, "leaky_relu")


def _unary(op: str, x, fn, grad_fn) -> Tensor:
    """One-input primitive y = fn(x); ``grad_fn(g, x, y)`` maps y's gradient to x's.
    A ValueError from ``fn``, such as numpy's AxisError, means x's shape does not suit it."""
    x = as_tensor(x)
    try:
        data = fn(x.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: {exc}, input shape {x.shape}") from exc
    return _result(data, (x,), lambda g: (grad_fn(g, x.data, data),), op)


def tanh(x) -> Tensor:
    return _unary("tanh", x, np.tanh, lambda g, x, y: g * (1.0 - y * y))


def exp(x) -> Tensor:
    return _unary("exp", x, np.exp, lambda g, x, y: g * y)


def log(x) -> Tensor:
    return _unary("log", x, np.log, lambda g, x, y: g / x)


def square(x) -> Tensor:
    return _unary("square", x, lambda v: v * v, lambda g, x, y: 2.0 * g * x)


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; pass-through gradient on the closed interval."""
    x = as_tensor(x)
    if not lo <= hi:  # a NaN bound fails this too; it would turn every output into NaN
        raise ValueError(f"clip: lo {lo} exceeds hi {hi}, or a bound is NaN")
    inside = (x.data >= lo) & (x.data <= hi)
    return _unary(
        "clip", x, lambda v: np.clip(v, lo, hi), lambda g, x, y: np.where(inside, g, 0.0)
    )


def _restore_axes(g, axis, x):
    """A reduction's output gradient spread back over the reduced input ``x``."""
    return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), x.shape)


def reduce_sum(x, axis=None) -> Tensor:
    return _unary(
        "reduce_sum", x, lambda v: v.sum(axis=axis), lambda g, x, y: _restore_axes(g, axis, x)
    )


def reduce_mean(x, axis=None) -> Tensor:
    """Mean over ``axis``; each mean's gradient is spread over its x.size / y.size inputs."""
    return _unary(
        "reduce_mean", x, lambda v: v.mean(axis=axis),
        lambda g, x, y: _restore_axes(g, axis, x) / (x.size / max(y.size, 1)),
    )


def broadcast_to(x, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    try:
        data = np.broadcast_to(x.data, shape)
    except ValueError as exc:
        raise ShapeError(f"broadcast: cannot broadcast {x.shape} to {shape}") from exc

    def backward_fn(g):
        return (_unbroadcast(g, x.shape),)

    return _result(data, (x,), backward_fn, "broadcast")


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat: empty input list")
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in ts]}") from exc
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        pieces = np.split(g, offsets, axis=axis)
        return tuple(p if t.requires_grad else None for p, t in zip(pieces, ts))

    return _result(data, ts, backward_fn, "concat")


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {x.shape} as {tuple(shape)}") from exc

    def backward_fn(g):
        return (g.reshape(x.shape),)

    return _result(data, (x,), backward_fn, "reshape")


# ---------------------------------------------------------------------------
# engine


def _reverse_topological(root: Tensor):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def backward(output: Tensor):
    """Accumulate d(output)/d(t) into t.grad for every leaf (a tensor with no
    backward closure) that requires it; an intermediate's gradient is freed once
    passed to its parents, and its .grad stays None.

    Each gradient a node passes to a parent is cast to that parent's dtype (no
    copy when they match): a float32 leaf under a float64 loss gets a float32
    .grad, and every backward closure receives g in its own output's dtype.

    The output must be scalar (size 1). Gradients add into any existing
    .grad, so zero them between independent passes.
    """
    if output.data.size != 1:
        raise ShapeError(f"backward: output must be scalar, got shape {output.shape}")
    if not output.requires_grad:
        return
    pending = {id(output): np.ones_like(output.data)}
    for node in _reverse_topological(output):
        # each backward returns a gradient for every parent that requires grad: every node has one
        g = pending.pop(id(node))
        if node._backward is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            pg = pg.astype(parent.data.dtype, copy=False)
            key = id(parent)
            pending[key] = pg if key not in pending else pending[key] + pg


_GRAD_CHECK_STEP = 1e-5


def grad_check(fn, point: dict) -> float:
    """Max relative error between analytic gradients and central differences.

    ``fn`` maps the named tensors in ``point`` to a scalar Tensor and must be
    deterministic (draw any randomness outside and pass it in as constants).
    Error metric per element: |analytic - numeric| / max(1, |analytic|), with
    central differences of step ``_GRAD_CHECK_STEP``.
    """
    for t in point.values():
        t.zero_grad()
    out = fn(point)
    if out.data.size != 1:
        raise ShapeError(f"grad_check: fn must return a scalar, got shape {out.shape}")
    backward(out)

    worst = 0.0
    for t in point.values():
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat_data = t.data.reshape(-1)
        flat_grad = analytic.reshape(-1)
        for i in range(flat_data.size):
            saved = flat_data[i]
            flat_data[i] = saved + _GRAD_CHECK_STEP
            f_plus = fn(point).item()
            flat_data[i] = saved - _GRAD_CHECK_STEP
            f_minus = fn(point).item()
            flat_data[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * _GRAD_CHECK_STEP)
            a = float(flat_grad[i])
            worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
    return worst


# ---------------------------------------------------------------------------
# randomness


@dataclass
class RngState:
    """Counter-based random stream: (seed, counter) pins every draw.

    ``generator()`` derives a fresh numpy Generator from the pair and bumps
    the counter by one, so streams are reproducible and resumable from the
    two integers. Blocks drawn in turn from one Generator equal one draw.
    """

    seed: int
    counter: int = 0

    def __post_init__(self):
        # not int(): 1.5 and "3" are rejected, not truncated or parsed, and True is not 1
        self.seed = as_integer("seed", self.seed, TypeError)
        self.counter = as_integer("counter", self.counter, TypeError)
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in u64, got {self.seed}")
        if self.counter < 0:
            raise ValueError(f"counter must be non-negative, got {self.counter}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.counter,))
        self.counter += 1
        return np.random.Generator(np.random.PCG64(ss))
