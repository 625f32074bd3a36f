"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Heavy shared artifacts
(the 200-instance linear suite, the desk-scale benchmark) are built once per
module.
"""

import math
import time

import numpy as np
import pytest

from instances import (
    random_deletion_request,
    random_general_instance,
    random_linear_instance,
)
from coreset_unlearn import (
    CapacityParams,
    DatasetSpec,
    DeletionDistribution,
    ExperimentConfig,
    FiniteFunctionClass,
    LabeledSample,
    bbq_fit,
    d2_score,
    deletion_update,
    erm_fit,
    expected_capacity_mc,
    expected_capacity_uniform,
    gen_dataset,
    general_bbq_fit,
    general_deletion_update,
    general_state_of_system,
    projected_dimension,
    replay_on_coreset,
    run_experiment,
    state_of_system,
    system_states_equal,
)
from coreset_unlearn.capacity import predicted_deletion_drift
from coreset_unlearn.cli import cli_main
from coreset_unlearn.core_linalg import (
    gram_init,
    leverage,
    log_det_ratio,
    rank_one_downdate,
    rank_one_update,
)

SEED = 20240

def verdict(ok: bool, name: str, detail: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""), flush=True)
    assert ok, name


@pytest.fixture(scope="module")
def linear_suite():
    """200 seeded instances exercising deletion, replay, and leverage bounds."""
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    equality_failures = monotonicity_failures = 0
    stored_bound_failures = unqueried_bound_failures = 0
    for _ in range(200):
        ds, model = random_linear_instance(rng, t_max=2000, d_max=20)
        u = random_deletion_request(rng, ds, model)

        replay = replay_on_coreset(model, u)
        if replay.coreset_ids != model.coreset_ids - u:
            monotonicity_failures += 1

        lam = model.params.lam
        for s in model.coreset:
            if leverage(model.gram_state, s.x) > 1.0 / (lam + 1.0) + 1e-12:
                stored_bound_failures += 1
                break

        fresh = bbq_fit(
            [s for s in model.coreset if s.sample_id not in u],
            cap_k=model.params.cap_k,
            kappa=model.params.kappa,
            horizon=model.params.horizon,
            dim=model.dim,
        )
        queried = set(model.coreset_ids)
        deletion_update(model, u)
        if not system_states_equal(state_of_system(model), state_of_system(fresh), tol=1e-8):
            equality_failures += 1

        limit = math.e * model.params.horizon ** (-model.params.kappa) + 1e-12
        for s in ds.samples:
            if s.sample_id in queried:
                continue
            if leverage(model.gram_state, s.x) > limit:
                unqueried_bound_failures += 1
                break
    return {
        "elapsed": time.perf_counter() - t0,
        "equality_failures": equality_failures,
        "monotonicity_failures": monotonicity_failures,
        "stored_bound_failures": stored_bound_failures,
        "unqueried_bound_failures": unqueried_bound_failures,
    }


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
    ok = linear_suite["equality_failures"] == 0 and linear_suite["elapsed"] < 60.0
    verdict(
        ok,
        "criterion 1: deletion state equals fresh fit on surviving core set (200 instances)",
        f"failures={linear_suite['equality_failures']}, elapsed={linear_suite['elapsed']:.1f}s",
    )


def test_criterion_02_replay_monotonicity(linear_suite):
    ok = linear_suite["monotonicity_failures"] == 0
    verdict(
        ok,
        "criterion 2: replay re-queries exactly the surviving core set (200 instances)",
        f"failures={linear_suite['monotonicity_failures']}",
    )


def test_criterion_03_inverse_maintenance():
    rng = np.random.default_rng(SEED + 3)
    worst_dense = worst_roundtrip = 0.0
    ops = 0
    for _ in range(100):
        d = int(rng.integers(1, 9))
        lam = float(rng.uniform(1.0, 4.0))
        state = gram_init(d, lam)
        live = []
        for _ in range(100):
            if live and rng.random() < 0.45:
                x, y = live.pop(int(rng.integers(len(live))))
                rank_one_downdate(state, x, y)
            else:
                x = rng.standard_normal(d)
                x *= rng.uniform(0.05, 1.0) / np.linalg.norm(x)
                y = int(rng.choice([-1, 1]))
                rank_one_update(state, x, y)
                live.append((x, y))
            ops += 1
            dense = lam * np.eye(d)
            for x, _ in live:
                dense += np.outer(x, x)
            worst_dense = max(worst_dense, float(np.max(np.abs(state.gram_inv - np.linalg.inv(dense)))))
        if live:
            before = state.copy()
            x, y = live[0]
            rank_one_update(state, x, y)
            rank_one_downdate(state, x, y)
            for got, want in (
                (state.gram, before.gram),
                (state.gram_inv, before.gram_inv),
                (state.b_vec, before.b_vec),
                (state.weight, before.weight),
            ):
                worst_roundtrip = max(worst_roundtrip, float(np.max(np.abs(got - want), initial=0.0)))
    ok = ops == 10_000 and worst_dense < 1e-8 and worst_roundtrip < 1e-10
    verdict(
        ok,
        "criterion 3: rank-one inverse maintenance vs dense re-inversion (1e4 ops)",
        f"max dense err={worst_dense:.2e}, max roundtrip err={worst_roundtrip:.2e}",
    )


def test_criterion_04_leverage_bounds(linear_suite):
    ok = (
        linear_suite["stored_bound_failures"] == 0
        and linear_suite["unqueried_bound_failures"] == 0
    )
    verdict(
        ok,
        "criterion 4: stored-point and post-deletion unqueried leverage bounds",
        f"stored failures={linear_suite['stored_bound_failures']}, "
        f"unqueried failures={linear_suite['unqueried_bound_failures']}",
    )


def test_criterion_05_drift_identity():
    rng = np.random.default_rng(SEED + 5)
    probes_checked = 0
    worst = 0.0
    while probes_checked < 1000:
        ds, model = random_linear_instance(rng, t_max=800)
        if not model.coreset:
            continue
        victims = list(model.coreset)
        rng.shuffle(victims)
        for victim in victims[: max(int(model.params.cap_k), 1)]:
            probes = [ds.samples[int(i)].x for i in rng.integers(0, len(ds.samples), size=25)]
            predictions = [
                predicted_deletion_drift(model.gram_state, victim.x, victim.y, p) for p in probes
            ]
            before = [float(model.weight @ p) for p in probes]
            deletion_update(model, {victim.sample_id})
            for p, b, pred in zip(probes, before, predictions):
                worst = max(worst, abs((float(model.weight @ p) - b) - pred))
                probes_checked += 1
    ok = worst < 1e-8
    verdict(
        ok,
        "criterion 5: rank-one deletion drift identity on 1e3 probes",
        f"probes={probes_checked}, max err={worst:.2e}",
    )


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
    rng = np.random.default_rng(SEED + 9)
    failures = 0
    erm_mismatches = 0
    instances = 0
    while instances < 100:
        pool, fclass, _ = random_general_instance(rng, pool_max=200, class_max=32)
        model = general_bbq_fit(pool, fclass)
        qids = sorted({s.sample_id for _, s in model.queried})
        if not qids:
            continue
        instances += 1

        losses = []
        for j in range(len(fclass)):
            losses.append(sum(((1 + s.y) / 2 - fclass.evaluate(j, s)) ** 2 for s in pool))
        if erm_fit(fclass, pool) != int(np.argmin(losses)):
            erm_mismatches += 1

        k = int(rng.integers(1, min(len(qids), 8) + 1))
        u = set(rng.choice(qids, size=k, replace=False).tolist())
        u |= set(rng.choice([s.sample_id for s in pool], size=min(5, len(pool)), replace=False).tolist())
        survivors = [s for _, s in model.queried if s.sample_id not in u]
        general_deletion_update(model, u, fclass)
        got = general_state_of_system(model)
        if not survivors:
            if got.stored_ids != frozenset():
                failures += 1
            continue
        fresh = general_bbq_fit(
            survivors, fclass, rate_bound=model.config.rate_bound, exhaust_pool=True
        )
        want = general_state_of_system(fresh)
        if got.stored_ids != want.stored_ids or got.f_hat != want.f_hat:
            failures += 1
    ok = failures == 0 and erm_mismatches == 0
    verdict(
        ok,
        "criterion 9: finite-class deletion equals fresh fit on survivors (100 instances)",
        f"failures={failures}, erm mismatches={erm_mismatches}",
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
