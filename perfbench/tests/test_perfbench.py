"""Tests of the benchmark itself, on the small warm-up sizes of each workload.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coreset_unlearn as cu
import tracer as tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _input_bytes(inputs) -> bytes:
    """Everything a workload hands the library, as bytes."""
    out = b""
    for value in vars(inputs).values():
        if isinstance(value, Path) and value.is_file():
            out += value.read_bytes()
        elif isinstance(value, np.ndarray):
            out += value.tobytes()
        elif isinstance(value, list):  # in-memory pools of samples
            out += b"".join(s.x.tobytes() + bytes([s.y % 256]) + s.sample_id.to_bytes(8, "little") for s in value)
        elif isinstance(value, (int, float)):
            out += repr(value).encode()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _input_bytes(wl.setup(3, dirs[0], wl.small))
    again = _input_bytes(wl.setup(3, dirs[1], wl.small))
    other = _input_bytes(wl.setup(4, dirs[2], wl.small))
    assert first == again
    assert first != other


def _pass(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(5, tmp_path, wl.small)
    result = wl.run_pass(inputs, wl.expect(inputs))
    assert result.failures() == []
    return result


def test_compare_checks_reject_tampering(tmp_path):
    result = _pass("compare-refit", tmp_path)
    out = result.outputs

    csvs = dict(out["csvs"])
    out["csvs"] = {**csvs, "sisa": csvs["sisa"].replace(b",sisa\n", b",sisa\n0,0.5,sisa\n", 1)}
    assert any("CSV" in f for f in result.failures())
    out["csvs"] = csvs

    bbq = out["reports"]["bbq"].methods["bbq"]
    bbq.free_deletions -= 1
    assert any("bbq applied" in f for f in result.failures())
    bbq.free_deletions += 1
    bbq.halted_at = 7
    assert any("bbq applied" in f for f in result.failures())
    bbq.halted_at = None

    retrain = out["reports"]["retrain"].methods["retrain"]
    k, acc = retrain.accuracy_curve[-1]
    retrain.accuracy_curve[-1] = (k, acc + 1e-3)
    assert any("direct solve" in f for f in result.failures())
    retrain.accuracy_curve[-1] = (k, acc)
    assert result.failures() == []


def test_serve_checks_reject_tampering(tmp_path):
    result = _pass("serve", tmp_path)
    model = result.outputs["model"]

    model.gram_state.weight[0] += 1e-3
    assert any("fresh fit" in f for f in result.failures())
    model.gram_state.weight[0] -= 1e-3
    assert result.failures() == []

    extra = cu.LabeledSample(10**9, np.zeros(model.dim), 1)
    model.coreset.append(extra)
    model.coreset_ids.add(extra.sample_id)
    assert any("stored ids" in f for f in result.failures())
    model.coreset.pop()
    model.coreset_ids.discard(extra.sample_id)

    result.outputs["last_preds"] = [-p for p in result.outputs["last_preds"]]
    assert any("predictions" in f for f in result.failures())


def test_serve_check_rejects_a_model_file_that_does_not_round_trip(tmp_path):
    result = _pass("serve", tmp_path)
    model = result.outputs["model"]
    other = cu.bbq_fit(model.coreset[1:], cap_k=model.params.cap_k, kappa=model.params.kappa,
                       horizon=model.params.horizon, dim=model.dim)
    cu.save_model(other, result.outputs["saved_path"])
    assert any("round-trip" in f for f in result.failures())


def test_general_checks_reject_tampering(tmp_path):
    result = _pass("general-class", tmp_path)
    model = result.outputs["model"]

    f_hat = model.f_hat
    model.f_hat = (f_hat + 1) % len(result.outputs["fclass"])
    assert result.failures()
    model.f_hat = f_hat

    kept = {s.sample_id for _, s in model.queried}
    outsider = next(s for s in result.outputs["queried_order"] if s.sample_id not in kept)
    model.queried.append((1, outsider))
    assert any("stored ids" in f for f in result.failures())


def test_capacity_checks_reject_tampering(tmp_path, monkeypatch):
    result = _pass("capacity-mc", tmp_path)
    curve = result.outputs["curve"]
    curve.empirical[1] += 0.5 / result.outputs["trials"]
    assert result.failures()
    curve.empirical[1] -= 0.5 / result.outputs["trials"]
    curve.bound[-1] = -1.0
    assert any("bound" in f for f in result.failures())

    assert workloads.check_repeats(["a", "a"]) == []
    assert workloads.check_repeats(["a", "b"])

    monkeypatch.setattr(cu.capacity, "predicted_deletion_drift", lambda *args: 1.0)
    wl = workloads.WORKLOADS["capacity-mc"]
    inputs = wl.setup(5, tmp_path, wl.small)
    assert any("drift identity" in f for f in wl.run_pass(inputs, None).failures())


def test_tracer_wraps_every_lookup_and_restores_it():
    from coreset_unlearn import capacity, harness

    original = cu.bbq_linear.bbq_fit
    tr = tracing.Tracer()
    uninstall = tr.install()
    try:
        assert harness.bbq_fit is not original and capacity.bbq_fit is not original
        assert cu.bbq_fit.__wrapped__ is original
        samples = cu.gen_dataset(cu.DatasetSpec(kind="realizable-linear", T=50, d=3, seed=1)).samples
        model = cu.bbq_fit(samples, cap_k=4.0)
    finally:
        uninstall()
    assert harness.bbq_fit is original and cu.bbq_fit is original and capacity.bbq_fit is original
    agg = tr.aggregate()
    assert agg["core_linalg.leverage.calls"] == 50
    assert agg["core_linalg.rank_one_update.calls"] == len(model.coreset)
    assert agg["bbq_linear.bbq_fit.calls"] == 1
    assert 0 < agg["bbq_linear.bbq_fit.self_s"] < agg["bbq_linear.bbq_fit.s"]
    assert tr.counts["bbq_linear.bbq_fit.points"] == 50


def test_metric_tables_match_benchmark_json():
    assert SPEC["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": e["bound"]}
        for (n, (u, b)), e in zip(worker.END_TO_END.items(), SPEC["end_to_end"])
    ]
    assert SPEC["per_layer"] == [{"name": n, "unit": u, "better": b} for n, (u, b) in worker.per_layer_metrics().items()]
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_printed_metric_is_declared(name, trace, monkeypatch, capsys):
    wl = workloads.WORKLOADS[name]
    monkeypatch.setattr(wl, "Sizes", lambda: wl.small)
    rc = worker.main(["--workload", name, "--seed", "2", "--seconds", "0.1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = [line.split()[0] for line in lines[:-1] if not line.startswith("#")]
    assert printed == list(declared)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
