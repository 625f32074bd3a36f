"""One benchmark run of one workload, in a process of its own.

Started by ``perfbench/run.py``, which pins the BLAS thread count before
numpy loads.  With ``--trace 0`` it runs one untimed warm-up pass on small
inputs, then repeats timed passes until ``--seconds`` have passed, setting up
again after each pass while the set-ups add up to under two seconds.  It
reports the median set-up as ``setup_s`` and, as ``wall_ref``, the median of
each pass's wall time divided by that of a fixed reference computation timed
just before and after it (see ``reference_s``).  With
``--trace 1`` it runs one untraced and one traced pass over the same inputs
and reports the per-layer metrics plus the tracing overhead.  The last line
of standard output is the JSON result; the exit code is 1 if any check
failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

# Set-up repeats: at least three, more while they add up to under two seconds.
# They are spread between the timed passes, so their median samples the host
# over the whole run rather than over one moment of it.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 100, 2.0

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_ref": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Caller-seen figures of the untraced pass in a traced run; 0 where the
# workload does not make the call, or (percentiles) has under ten samples beyond.
FIGURES = {
    "experiment_s.bbq": ("s", "lower"),
    "experiment_s.sisa": ("s", "lower"),
    "experiment_s.retrain": ("s", "lower"),
    "load_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "serve_rps": ("1/s", "higher"),
    "delete_hit_count": ("count", "lower"),
    "delete_hit_p50_us": ("us", "lower"),
    "delete_hit_p90_us": ("us", "lower"),
    "delete_hit_p99_us": ("us", "lower"),
    "delete_free_p50_us": ("us", "lower"),
    "predict_p50_us": ("us", "lower"),
    "core_linalg.inverse_residual": ("abs", "lower"),
}

COUNTS = {
    "bbq_linear.bbq_fit.points": ("count", "lower"),
    "bbq_linear.bbq_fit.replays": ("count", "lower"),
    "bbq_linear.deletion_update.hits": ("count", "lower"),
    "bbq_linear.deletion_update.free": ("count", "lower"),
    "bbq_linear.deletion_update.hit_coreset_mean": ("count", "lower"),
    "bbq_linear.save_model.bytes": ("bytes", "lower"),
    "bbq_linear.load_model.bytes": ("bytes", "lower"),
    "capacity.capacity_gate.accept": ("count", "higher"),
    "capacity.capacity_gate.exhausted": ("count", "lower"),
    "capacity.capacity_gate.accept_ratio": ("ratio", "higher"),
    "datastreams.load_dataset.bytes": ("bytes", "lower"),
    "datastreams.load_dataset.rows_per_s": ("1/s", "higher"),
    "baselines.sisa_unlearn.shards_retrained": ("count", "lower"),
    "general_bbq.value_matrix.evaluations": ("count", "lower"),
    "general_bbq.general_deletion_update.hits": ("count", "lower"),
    "general_bbq.general_deletion_update.free": ("count", "lower"),
    # bbq's reported deletion_time beside the traced gate + deletion + refit
    # replay time: the gap is the gate cost the report leaves out.
    "harness.bbq.deletion_time_s": ("s", "lower"),
    "harness.bbq.traced_delete_path_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    out = dict(FIGURES)
    for name in tracing.span_names():
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.s"] = ("s", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    out.update(COUNTS)
    return out


def machine_facts(seed: int) -> dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']}-{blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "seed": str(seed),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# The reference computation: interpreted arithmetic plus small matrix products,
# the mix the library's hot loops run.  On a shared host other tenants slow the
# CPU for minutes at a time by up to half; the reference slows with the passes
# around it, so a pass's time divided by the reference's stays put.
_REF_MATRIX = np.random.default_rng(0).standard_normal((10, 10))


def reference_s() -> float:
    """Wall seconds of the fixed reference computation (about 14 ms on an idle 2.1 GHz core)."""
    a, total = _REF_MATRIX, 0.0
    t0 = time.perf_counter()
    for _ in range(10):
        for i in range(20_000):
            total += i * 0.5
        for _ in range(300):
            a @ a
    return time.perf_counter() - t0


def timed_pass(workload, inputs, expected, before_check=None):
    """Run one pass and its checks; returns the pass, its failures and its wall seconds."""
    gc.collect()  # every pass starts from a collected heap, not one a previous pass left
    t0 = time.perf_counter()
    result = workload.run_pass(inputs, expected)
    if before_check:
        before_check()
    failures = result.failures()
    return result, failures, time.perf_counter() - t0


def warm_up(workload, seed: int, workdir: Path) -> None:
    """One pass on small inputs so imports, caches and first-call costs stay out of timing."""
    small = workdir / "warmup"
    small.mkdir()
    inputs = workload.setup(seed, small, workload.small)
    workload.run_pass(inputs, workload.expect(inputs)).failures()
    reference_s()


def measure(workload, seed: int, seconds: float, workdir: Path):
    warm_up(workload, seed, workdir)
    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        inputs = workload.setup(seed, workdir, workload.Sizes())
        setup_times.append(time.perf_counter() - t0)
        return inputs

    def more_setups() -> bool:
        n = len(setup_times)
        return n < MIN_SETUPS or (sum(setup_times) < SETUP_SECONDS and n < MAX_SETUPS)

    inputs = set_up()
    expected = workload.expect(inputs)
    passes, failures, walls, ratios = [], [], [], []
    ref_before = reference_s()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        result, failed, wall = timed_pass(workload, inputs, expected)
        ref_after = reference_s()
        passes.append(result)
        failures += failed
        walls.append(wall)
        ratios.append(wall / ((ref_before + ref_after) / 2))
        ref_before = ref_after
        if failed:
            break
        if more_setups():
            inputs = set_up()  # the same seed writes the same inputs again
    while len(setup_times) < MIN_SETUPS:
        set_up()
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_ref": statistics.median(ratios),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "setups": len(setup_times), "passes": len(passes),
        "pass_min_s": f"{min(walls):.4g}", "pass_median_s": f"{statistics.median(walls):.4g}",
    }
    return metrics, passes, failures, info


def trace(workload, seed: int, workdir: Path, trace_path: Path):
    warm_up(workload, seed, workdir)
    tr = tracing.Tracer()
    uninstall = tr.install()
    try:
        inputs = workload.setup(seed, workdir, workload.Sizes())
    finally:
        uninstall()
    expected = workload.expect(inputs)
    plain, failures, plain_wall = timed_pass(workload, inputs, expected)
    tr.run_id = 1
    uninstall = tr.install()
    try:
        traced, failed, traced_wall = timed_pass(workload, inputs, expected, before_check=uninstall)
    finally:
        uninstall()
    failures += failed
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tr.write(trace_path)

    metrics = {name: 0.0 for name in per_layer_metrics()}
    metrics.update({k: v for k, v in plain.figures.items() if k in FIGURES})
    metrics.update(tr.aggregate())
    c = tr.counts
    for key in COUNTS:
        if key in c:
            metrics[key] = c[key]
    if c.get("bbq_linear.deletion_update.hits"):
        metrics["bbq_linear.deletion_update.hit_coreset_mean"] = (
            c["bbq_linear.deletion_update.hit_coreset_sum"] / c["bbq_linear.deletion_update.hits"]
        )
    gate_calls = metrics["capacity.capacity_gate.calls"]
    if gate_calls:
        metrics["capacity.capacity_gate.accept_ratio"] = c.get("capacity.capacity_gate.accept", 0) / gate_calls
    if metrics["datastreams.load_dataset.s"]:
        metrics["datastreams.load_dataset.rows_per_s"] = (
            c["datastreams.load_dataset.rows"] / metrics["datastreams.load_dataset.s"]
        )
    if "harness.bbq.deletion_time_s" in traced.figures:
        metrics["harness.bbq.deletion_time_s"] = traced.figures["harness.bbq.deletion_time_s"]
        metrics["harness.bbq.traced_delete_path_s"] = (
            metrics["capacity.capacity_gate.s"]
            + metrics["bbq_linear.deletion_update.s"]
            + c.get("bbq_linear.bbq_fit.replay_s", 0.0)
        )
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    info = {"spans": len(tr.code), "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, [plain, traced], failures, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"run-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.npz"
            metrics, passes, failures, info = trace(workload, args.seed, workdir, trace_path)
            units = per_layer_metrics()
        else:
            metrics, passes, failures, info = measure(workload, args.seed, args.seconds, workdir)
            units = END_TO_END
    except Exception:  # a library call raised: report the run as failed, print no result
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures += workloads.check_repeats([p.digest for p in passes])
    attempted = sum(p.attempted for p in passes)
    facts = machine_facts(args.seed)
    print(f"# perfbench workload={args.workload} seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("# run " + " ".join(f"{k}={v}" for k, v in info.items())
          + f" attempted={attempted} failed={len(failures)} error_rate={len(failures) / attempted:g}"
          + f" digest={passes[0].digest[:16] or '-'}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name][0]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(value), "unit": units[name][0]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
