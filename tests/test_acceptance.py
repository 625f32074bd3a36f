"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Heavy shared artifacts
(the 200-instance linear suite, the desk-scale benchmark) are built once per
module.
"""

import math
import time

import numpy as np
import pytest

from coreset_unlearn import (
    CapacityParams,
    DatasetSpec,
    DeletionDistribution,
    ExperimentConfig,
    FiniteFunctionClass,
    LabeledSample,
    bbq_fit,
    d2_score,
    expected_capacity_mc,
    expected_capacity_uniform,
    gen_dataset,
    projected_dimension,
    run_experiment,
    verify,
)
from coreset_unlearn.cli import cli_main
from coreset_unlearn.core_linalg import log_det_ratio

SEED = 20240

def verdict(ok: bool, name: str, detail: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""), flush=True)
    assert ok, name


@pytest.fixture(scope="module")
def linear_suite():
    """Criteria 1, 2 and 4 over one set of 200 seeded instances."""
    t0 = time.perf_counter()
    exact, replay, bounds = verify.check_linear_instances(SEED, 200)
    return {"elapsed": time.perf_counter() - t0, "exact": exact, "replay": replay, "bounds": bounds}


@pytest.fixture(scope="module")
def bench_report():
    cfg = ExperimentConfig(
        dataset=DatasetSpec(kind="margin", T=20_000, d=20, seed=0, gamma=0.1),
        methods=("bbq", "sisa", "retrain"),
        kappa=0.5,
        cap_k=32.0,
        shards=16,
        deletion_kind="by-label",
        deletion_target_label=-1,
        deletion_fraction=0.4,
        cadence=250,
        seed=0,
        gate_policy="halt",
    )
    return run_experiment(cfg)


def test_criterion_01_exact_unlearning_oracle_equivalence(linear_suite):
    _, ok, detail = linear_suite["exact"]
    elapsed = linear_suite["elapsed"]
    verdict(
        ok and elapsed < 60.0,
        "criterion 1: deletion state equals fresh fit on surviving core set (200 instances)",
        f"{detail}, elapsed={elapsed:.1f}s",
    )


def test_criterion_02_replay_monotonicity(linear_suite):
    _, ok, detail = linear_suite["replay"]
    verdict(ok, "criterion 2: replay re-queries exactly the surviving core set (200 instances)", detail)


def test_criterion_03_inverse_maintenance():
    _, ok, detail = verify.check_sherman_morrison(SEED + 3, 100)
    counted = detail.startswith("10000 operations")
    verdict(ok and counted, "criterion 3: rank-one inverse maintenance vs dense re-inversion (1e4 ops)", detail)


def test_criterion_04_leverage_bounds(linear_suite):
    _, ok, detail = linear_suite["bounds"]
    verdict(ok, "criterion 4: stored-point and post-deletion unqueried leverage bounds", detail)


def test_criterion_05_drift_identity():
    _, ok, detail = verify.check_drift_identity(SEED + 5, 40)
    probes = int(detail.split()[0])  # the detail opens with the probe count
    verdict(ok and probes >= 1000, "criterion 5: rank-one deletion drift identity on 1e3 probes", detail)


def test_criterion_06_query_complexity():
    frozen_trend_cap = 0.25  # observed 0.17 at T=1e3 falling to 0.10 at T=1e5
    all_bounded = True
    ratios = []
    for T in (10**3, 10**4, 10**5):
        for seed in (0, 1, 2):
            ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=T, d=10, seed=seed))
            m = bbq_fit(ds.samples, cap_k=1.0, kappa=0.5)
            n_t = len(m.coreset)
            if n_t > (T**0.5) * log_det_ratio(m.gram_state):
                all_bounded = False
            ratios.append(n_t / (10 * T**0.5 * math.log(T)))
    ok = all_bounded and max(ratios) < frozen_trend_cap
    verdict(
        ok,
        "criterion 6: query count within the log-det budget and the frozen trend constant",
        f"max trend ratio={max(ratios):.3f} < {frozen_trend_cap}",
    )


def test_criterion_07_expected_capacity_monte_carlo():
    t0 = time.perf_counter()
    params = CapacityParams(T=2000, d=10, kappa=0.5, delta=0.05, eps_bar=0.5, K=10)
    k_total = expected_capacity_uniform(params, c=0.2)
    ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=2000, d=10, seed=SEED + 7))
    curve = expected_capacity_mc(
        ds.samples,
        DeletionDistribution(kind="uniform"),
        K=10,
        trials=200,
        seed=SEED + 7,
        cap_k=10.0,
        kappa=0.5,
        k_total_grid=[max(k_total, 1)],
    )
    elapsed = time.perf_counter() - t0
    threshold = 0.2 + 3 * math.sqrt(0.2 * 0.8 / 200)
    empirical = float(curve.empirical[0])
    ok = empirical <= threshold and elapsed < 300.0
    verdict(
        ok,
        "criterion 7: uniform-deletion exhaustion probability within the budgeted level",
        f"K_total={k_total}, empirical={empirical:.3f} <= {threshold:.3f}, elapsed={elapsed:.0f}s",
    )


def test_criterion_08_desk_scale_benchmark(bench_report):
    bbq = bench_report.methods["bbq"]
    sisa = bench_report.methods["sisa"]
    retrain = bench_report.methods["retrain"]
    storage_ok = bbq.stored_fraction < 0.20 and sisa.stored_fraction == 1.0 and retrain.stored_fraction == 1.0
    timing_ok = bbq.deletion_time <= 0.5 * retrain.deletion_time
    bbq_final = bbq.accuracy_curve[-1][1]
    accuracy_ok = (
        bbq_final >= retrain.accuracy_curve[-1][1] - 0.02
        and bbq_final >= sisa.accuracy_curve[-1][1]
    )
    ok = storage_ok and timing_ok and accuracy_ok
    verdict(
        ok,
        "criterion 8: desk-scale benchmark storage, deletion time, and accuracy ordering",
        f"stored={bbq.stored_fraction:.3f}, time={bbq.deletion_time:.3f}s vs "
        f"retrain {retrain.deletion_time:.3f}s, acc bbq={bbq_final:.4f} "
        f"sisa={sisa.accuracy_curve[-1][1]:.4f} retrain={retrain.accuracy_curve[-1][1]:.4f}",
    )


def test_criterion_09_general_class_deletion():
    (_, exact_ok, exact), (_, erm_ok, erm) = verify.check_general_instances(SEED + 9, 100)
    counted = exact.startswith("100 instances")
    verdict(
        exact_ok and erm_ok and counted,
        "criterion 9: finite-class deletion equals fresh fit on survivors (100 instances)",
        f"{exact}; {erm}",
    )


def test_criterion_10_projected_dimension_closed_forms():
    two = FiniteFunctionClass([lambda s: 0.0, lambda s: 1.0])
    points = [LabeledSample(i, np.zeros(2), 1) for i in range(8)]
    harmonic_ok = True
    for n in range(1, 9):
        result = projected_dimension(two, points[:n])
        want = sum(1.0 / t for t in range(1, n + 1))
        if not (result.exact and abs(result.value - want) < 1e-12):
            harmonic_ok = False
    d2_empty = d2_score(points[0], [], two)
    d2_one = d2_score(points[0], [points[1]], two)
    closed_ok = d2_empty == 1.0 and d2_one == 0.5
    ok = harmonic_ok and closed_ok
    verdict(
        ok,
        "criterion 10: projected dimension matches harmonic numbers; d2 closed forms exact",
        f"d2(empty)={d2_empty}, d2(one)={d2_one}",
    )


def test_criterion_11_bench_determinism(tmp_path):
    args = [
        "bench", "--t", "1500", "--d", "8", "--gamma", "0.1", "--fraction", "0.3",
        "--cadence", "100", "--cap-k", "4", "--shards", "4", "--seed", "6",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "run2")]) == 0
    identical = all(
        (tmp_path / f"run1_{m}.csv").read_bytes() == (tmp_path / f"run2_{m}.csv").read_bytes()
        for m in ("bbq", "sisa", "retrain")
    )
    verdict(
        identical,
        "criterion 11: repeated bench runs emit byte-identical accuracy CSVs",
    )
