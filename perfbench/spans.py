"""Span recorder for the traced benchmark run, and the per-layer metrics it yields.

Tracing wraps the public functions of ``vawgan.numerics``, ``model``,
``objectives`` and ``features`` by replacing the module attributes for the
length of a ``with instrument(...)`` block; nothing in the library is
edited, and an untraced run installs nothing. Each call becomes one span
``[name, start, end, parent, step, out_bytes, on_tape, copied]`` kept in
memory. Backward time per op is taken by wrapping the ``_backward`` closure
of every tensor a primitive returns.

A layer's self time is its span's duration minus the time its child spans
cover. Spans are grouped by the root span they sit under: ``unit`` (one
training update, or one utterance), ``setup``, ``driver.check`` or a bare
call such as the Lipschitz certificate.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

PRIMITIVES = (
    "add", "sub", "mul", "matmul", "conv1d", "leaky_relu", "tanh", "exp", "log",
    "square", "clip", "reduce_sum", "reduce_mean", "broadcast_to", "concat", "reshape",
)
MODEL_FUNCS = ("encode", "reparameterize", "generate", "criticize")
OBJECTIVE_FUNCS = ("kl_loss", "recon_loss", "wgan_objective")
UNIT_FEATURES = ("read_frames", "filter_nonsilent", "normalize", "denormalize", "write_frames")
SETUP_FEATURES = ("generate_synthetic", "fit_normalizer")
DRIVER_SPANS = ("batch", "update", "check")

NAME, START, END, PARENT, STEP, OUT_BYTES, ON_TAPE, COPIED = range(8)


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order (the BENCHMARK.json list)."""
    names = []
    for op in PRIMITIVES:
        names += [f"numerics.{op}.fwd_ms", f"numerics.{op}.bwd_ms", f"numerics.{op}.calls"]
    names += ["numerics.backward.ms", "numerics.backward.self_ms", "numerics.tape_nodes",
              "numerics.reshape.copy_frac", "numerics.out_mb"]
    for fn in MODEL_FUNCS:
        names += [f"model.{fn}.ms", f"model.{fn}.self_ms"]
    names.append("model.critic_lipschitz_bound.ms")
    names += [f"objectives.{fn}.ms" for fn in OBJECTIVE_FUNCS]
    names += [f"features.{fn}.ms" for fn in UNIT_FEATURES + SETUP_FEATURES]
    names += [f"driver.{s}.ms" for s in DRIVER_SPANS]
    names += ["trace.step_ms", "trace.untraced_step_ms", "trace.self_sum_ms",
              "trace.throughput_ratio"]
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


class SpanRecorder:
    """In-memory spans with a parent stack; ``step`` tags spans with a step id."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.step = -1

    def _open(self, name: str) -> list:
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.step, 0, False, False]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list):
        rec[END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def wrap_primitive(self, op: str, fn):
        name, bwd_name = f"numerics.{op}", f"numerics.{op}.bwd"
        is_reshape = op == "reshape"

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
                rec[OUT_BYTES] = out.data.nbytes
                if out._backward is not None:
                    rec[ON_TAPE] = True
                    out._backward = self.wrap(bwd_name, out._backward)
                if is_reshape:
                    src = getattr(args[0], "data", args[0])
                    rec[COPIED] = not np.may_share_memory(out.data, src)
                return out
            finally:
                self._close(rec)

        return traced


class NullRecorder:
    """Stand-in for untraced runs: driver spans cost one no-op context each."""

    _null = contextlib.nullcontext()
    step = -1

    def span(self, name: str):
        return self._null


@contextlib.contextmanager
def instrument(rec: SpanRecorder, nm, model, objectives, features):
    """Route calls to the library's public functions through ``rec`` while open."""
    saved = []

    def patch(module, attr, wrapper):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    for op in PRIMITIVES:
        patch(nm, op, rec.wrap_primitive(op, getattr(nm, op)))
    patch(nm, "backward", rec.wrap("numerics.backward", nm.backward))
    for fn in MODEL_FUNCS + ("critic_lipschitz_bound",):
        patch(model, fn, rec.wrap(f"model.{fn}", getattr(model, fn)))
    for fn in OBJECTIVE_FUNCS:
        patch(objectives, fn, rec.wrap(f"objectives.{fn}", getattr(objectives, fn)))
    for fn in UNIT_FEATURES + SETUP_FEATURES:
        patch(features, fn, rec.wrap(f"features.{fn}", getattr(features, fn)))
    try:
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _span_name(name: str) -> str:
    """Primitive forward spans are reported as ``numerics.<op>.fwd``."""
    if name.startswith("numerics.") and name.count(".") == 1 and name != "numerics.backward":
        return name + ".fwd"
    return name


def summarize(spans: list[list]):
    """Aggregate spans by (root kind, name): count, total seconds, self seconds.

    Returns ``(table, unit_steps, root_counts)``: ``table[kind][name] =
    [calls, total_s, self_s, out_bytes, on_tape, copied]``, the set of step
    ids seen on ``unit`` roots, and the number of root spans of each kind.
    """
    n = len(spans)
    child = [0.0] * n
    root = [0] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            root[i] = i
        else:
            root[i] = root[p]
            child[p] += s[END] - s[START]
    table: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, 0, 0, 0]))
    unit_steps, root_counts = set(), defaultdict(int)
    for i, s in enumerate(spans):
        kind = spans[root[i]][NAME]
        if s[PARENT] < 0:
            root_counts[kind] += 1
            if kind == "unit":
                unit_steps.add(s[STEP])
        dur = s[END] - s[START]
        row = table[kind][_span_name(s[NAME])]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child[i]
        row[3] += s[OUT_BYTES]
        row[4] += s[ON_TAPE]
        row[5] += s[COPIED]
    return table, unit_steps, root_counts


def per_layer_metrics(spans, untraced_step_s: float, throughput_ratio: float) -> dict[str, float]:
    """Per-layer metrics per step (or utterance), from the traced run's spans.

    ``untraced_step_s`` is the mean untraced unit time; ``throughput_ratio``
    is traced over untraced throughput, both measured by the caller.
    """
    table, unit_steps, root_counts = summarize(spans)
    units = table["unit"]
    n_steps = max(len(unit_steps), 1)
    n_setups = max(root_counts.get("setup", 0), 1)

    def per_step(name, col=1, scale=1e3):
        return units[name][col] * scale / n_steps if name in units else 0.0

    def per_setup(name):
        return table["setup"][name][1] * 1e3 / n_setups if name in table["setup"] else 0.0

    m = {}
    for op in PRIMITIVES:
        m[f"numerics.{op}.fwd_ms"] = per_step(f"numerics.{op}.fwd")
        m[f"numerics.{op}.bwd_ms"] = per_step(f"numerics.{op}.bwd")
        m[f"numerics.{op}.calls"] = per_step(f"numerics.{op}.fwd", col=0, scale=1.0)
    m["numerics.backward.ms"] = per_step("numerics.backward")
    m["numerics.backward.self_ms"] = per_step("numerics.backward", col=2)
    m["numerics.tape_nodes"] = sum(r[4] for r in units.values()) / n_steps
    reshape = units.get("numerics.reshape.fwd")
    m["numerics.reshape.copy_frac"] = reshape[5] / reshape[0] if reshape else 0.0
    m["numerics.out_mb"] = sum(r[3] for r in units.values()) / 1e6 / n_steps
    for fn in MODEL_FUNCS:
        m[f"model.{fn}.ms"] = per_step(f"model.{fn}")
        m[f"model.{fn}.self_ms"] = per_step(f"model.{fn}", col=2)
    certify = [r for t in table.values() for k, r in t.items() if k == "model.critic_lipschitz_bound"]
    calls = sum(r[0] for r in certify)
    m["model.critic_lipschitz_bound.ms"] = sum(r[1] for r in certify) * 1e3 / calls if calls else 0.0
    for fn in OBJECTIVE_FUNCS:
        m[f"objectives.{fn}.ms"] = per_step(f"objectives.{fn}")
    for fn in UNIT_FEATURES:
        m[f"features.{fn}.ms"] = per_step(f"features.{fn}")
    for fn in SETUP_FEATURES:
        m[f"features.{fn}.ms"] = per_setup(f"features.{fn}")
    m["driver.batch.ms"] = per_step("driver.batch")
    m["driver.update.ms"] = per_step("driver.update")
    check = table.get("driver.check", {}).get("driver.check")
    m["driver.check.ms"] = check[1] * 1e3 / n_steps if check else 0.0
    m["trace.step_ms"] = per_step("unit")
    m["trace.untraced_step_ms"] = untraced_step_s * 1e3
    m["trace.self_sum_ms"] = sum(r[2] for k, r in units.items() if k != "unit") * 1e3 / n_steps
    m["trace.throughput_ratio"] = throughput_ratio
    return m


def text_table(spans, title: str) -> str:
    """Per-step breakdown of the ``unit`` spans, largest self time first."""
    table, unit_steps, _ = summarize(spans)
    units = table["unit"]
    n_steps = max(len(unit_steps), 1)
    step_s = units["unit"][1] / n_steps if "unit" in units else 0.0
    lines = [title, f"{'span':<34}{'calls/step':>11}{'ms/step':>11}{'self ms':>11}{'self %':>8}"]
    rows = sorted(units.items(), key=lambda kv: -kv[1][2])
    for name, (calls, total, self_s, *_rest) in rows:
        share = 100.0 * self_s / n_steps / step_s if step_s else 0.0
        lines.append(
            f"{name:<34}{calls / n_steps:>11.1f}{total * 1e3 / n_steps:>11.3f}"
            f"{self_s * 1e3 / n_steps:>11.3f}{share:>8.1f}"
        )
    return "\n".join(lines) + "\n"


def write_spans(spans, path):
    """Write spans as JSON lines, one ``[name, start, end, parent, step, ...]`` each."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s, separators=(",", ":")))
            fh.write("\n")
