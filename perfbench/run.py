"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload warmup-d24 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with nothing
instrumented. With ``--trace 1`` it alternates untraced and traced units,
and reports the per-layer metrics and the tracing overhead. Either way the
last line of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``. Full results, the run record, and for traced runs
the spans and a text table, are written under ``perfbench/out/``.

One process and one closed-loop caller: each unit starts when the previous
unit and its checks are done.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import asdict
from time import perf_counter

import bootstrap  # first: pins BLAS threads before numpy loads

import numpy as np

from vawgan import features as F
from vawgan import model as M
from vawgan import numerics as nm
from vawgan import objectives as O

import spans
import workloads

OUT = bootstrap.ROOT / "perfbench" / "out"
# set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S seconds
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
# frames_per_s is the median throughput over windows of at least this much timed work
WINDOW_S = 1.0
# stop a run that overshoots this wall time, so it ends well inside 180 s
WALL_LIMIT_S = 150.0


def _percentile_with_tail(samples):
    """(label, value): the higher of p90/p75 with >= 10 samples beyond it, if any."""
    n = len(samples)
    for q in (90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", float(np.percentile(samples, q))
    return None, None


def _git_commit() -> str:
    """Commit of the checkout, read from .git without starting a process."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "network_config": asdict(M.NetworkConfig(dim=workloads.WORKLOADS[workload][1])),
        "batch": workloads.BATCH, "dtype": np.dtype(workloads.DTYPE).name,
        "numpy": np.__version__, "python": platform.python_version(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": bootstrap.BLAS_THREADS, "nproc": bootstrap.NPROC,
        "git_commit": _git_commit(),
    }


def setup(wl, rec) -> list[float]:
    """Set the workload up repeatedly; the last set-up is the one measured."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        with rec.span("setup"):
            t0 = perf_counter()
            wl.setup()
            times.append(perf_counter() - t0)
    return times


def attempt(wl, i: int, rec):
    """Run unit ``i``; an exception becomes a failed unit."""
    try:
        return wl.unit(i, rec)
    except Exception:
        return workloads.Unit(failure=traceback.format_exc())


def measure(wl, rec, seconds: float, deadline: float):
    """Run units until ``seconds`` of timed work and a whole number of cycles.

    Returns (timed units, all units); warm-up units and failed units are
    not timed.
    """
    timed, done, i, total = [], [], 0, 0.0
    while perf_counter() < deadline:
        if total >= seconds and (i - wl.warmup_units) % wl.cycle == 0:
            break
        unit = attempt(wl, i, rec)
        done.append(unit)
        if i >= wl.warmup_units and unit.failure is None:
            timed.append(unit)
            total += unit.seconds
        i += 1
    return timed, done


def finish(wl, rec):
    try:
        return wl.finish(rec)
    except Exception:
        return [workloads.Unit(failure=traceback.format_exc())]


def run_untraced(wl, seconds: float, deadline: float):
    """End-to-end metrics (BENCHMARK.json ``end_to_end``), extras, all units."""
    rec = spans.NullRecorder()
    setup_times = setup(wl, rec)
    timed, units = measure(wl, rec, seconds, deadline)
    units += finish(wl, rec)
    unit_s = [u.seconds for u in timed]
    if not unit_s:
        raise RuntimeError("no unit completed without failure")
    rates, frames, window = [], 0, 0.0
    for u in timed:
        frames, window = frames + u.frames, window + u.seconds
        if window >= WINDOW_S:
            rates.append(frames / window)
            frames, window = 0, 0.0
    metrics = {
        "frames_per_s": (statistics.median(rates or [frames / window]), "1/s"),
        "step_ms_p50": (statistics.median(unit_s) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"step_ms_samples": len(unit_s), "frames_per_s_windows": len(rates),
             "setup_samples": len(setup_times)}
    label, value = _percentile_with_tail(unit_s)
    if label:
        extra[f"step_ms_{label}"] = value * 1e3
    for part in ("critic", "gen"):
        part_s = [s for u in timed for s in u.parts.get(part, ())]
        if part_s:
            extra[f"{part}_step_ms_p50"] = statistics.median(part_s) * 1e3
            extra[f"{part}_step_ms_samples"] = len(part_s)
    certify = [s for u in units for s in u.parts.get("certify", ())]
    if certify:
        extra["certify_s"] = certify[0]
    return metrics, extra, units


def run_traced(wl, seconds: float, deadline: float, tag: str):
    """Per-layer metrics (BENCHMARK.json ``per_layer``) and all units.

    After the warm-up units, each unit index runs twice: untraced, then
    traced (the same utterance, or the next training step). Both halves thus
    see the same machine, and their difference is the tracing overhead.
    Spans and a text table are written under OUT.
    """
    rec, null = spans.SpanRecorder(), spans.NullRecorder()
    with spans.instrument(rec, nm, M, O, F):
        setup(wl, rec)
    units = [attempt(wl, i, null) for i in range(wl.warmup_units)]
    plain, traced, i, total = [], [], wl.warmup_units, 0.0
    while perf_counter() < deadline:
        if total >= seconds and (i - wl.warmup_units) % wl.cycle == 0:
            break
        pair = [attempt(wl, i, null)]
        with spans.instrument(rec, nm, M, O, F):
            pair.append(attempt(wl, i, rec))
        units += pair
        if pair[0].failure is None and pair[1].failure is None:
            plain.append(pair[0])
            traced.append(pair[1])
            total += pair[0].seconds + pair[1].seconds
        i += 1
    with spans.instrument(rec, nm, M, O, F):
        units += finish(wl, rec)
    plain_step = statistics.fmean(u.seconds for u in plain) if plain else 0.0
    # both units of a pair do the same work, so their time ratio is the
    # throughput ratio; the median over pairs resists machine noise
    ratio = statistics.median(a.seconds / b.seconds for a, b in zip(plain, traced)) if plain else 0.0
    metrics = spans.per_layer_metrics(rec.spans, plain_step, ratio)
    summary = "".join(f"{k:<34}{v:>12.4f}\n" for k, v in metrics.items() if k.startswith("trace."))
    (OUT / f"{tag}.txt").write_text(
        spans.text_table(rec.spans, f"{tag}: per-unit breakdown of traced spans") + "\n" + summary)
    spans.write_spans(rec.spans, OUT / f"{tag}.spans.jsonl")
    return {k: (v, spans.per_layer_unit(k)) for k, v in metrics.items()}, {}, units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = perf_counter() + WALL_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    cls, dim = workloads.WORKLOADS[args.workload]
    wl = cls(dim, args.seed, OUT / f"{tag}-files")
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    try:
        if args.trace:
            metrics, extra, units = run_traced(wl, args.seconds, deadline, tag)
        else:
            metrics, extra, units = run_untraced(wl, args.seconds, deadline)
    finally:
        wl.cleanup()

    failures = [u.failure for u in units if u.failure]
    extra["failed_frac"] = len(failures) / len(units)
    result = {
        "correct": not failures,
        "attempted": len(units),
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"record": record, "result": result, "extra": extra, "failures": failures[:5]}, indent=1))

    print("run record: " + json.dumps(record))
    for name, entry in result["metrics"].items():
        print(f"{args.workload:<14}{name:<36}{entry['value']:>14.6g} {entry['unit']}")
    for name, value in extra.items():
        print(f"{args.workload:<14}{name:<36}{value:>14.6g}")
    for failure in failures[:3]:
        print("FAILED: " + failure.strip().splitlines()[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
