import dataclasses
import hashlib
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import assert_state_from_coreset
from coreset_unlearn import (
    CapacityParams,
    DatasetSpec,
    DeletionDistribution,
    LabeledSample,
    MetricSet,
    bbq_fit,
    capacity_gate,
    coreset_capacity,
    deletion_update,
    drift_bound,
    expected_capacity_mc,
    expected_capacity_uniform,
    expected_deletion_time,
    gen_dataset,
)
from coreset_unlearn import capacity
from coreset_unlearn.bbq_linear import bbq_fit_orders
from coreset_unlearn.capacity import (
    ACCEPT,
    BUDGET_EXHAUSTED,
    DEFAULT_PROBE_SIZE,
    capacity_report_json,
    margin_estimate,
    second_moment,
)
from coreset_unlearn.core_linalg import gram_init, rank_one_update, refresh_inverse
from coreset_unlearn.datastreams import Rows, deletion_stream, deletion_weights
from coreset_unlearn.verify import random_linear_instance


def per_row_form(rows, dist, mean_inverse):
    """The expected ``x^T M x`` under ``dist``, one row at a time: the reference for ``vdot(M, second_moment(...))``."""
    X = rows.X
    if dist.kind == "uniform":
        return float(np.mean(np.einsum("ij,jk,ik->i", X, mean_inverse, X)))
    if dist.kind == "by-label":
        sub = X[rows.y == dist.target_label]
        return float(np.mean(np.einsum("ij,jk,ik->i", sub, mean_inverse, sub)))
    return float(np.einsum("i,ij,jk,ik->", deletion_weights(rows.ids, dist), X, mean_inverse, X))


def exact_forms(rows, dist, mean_inverses) -> list[Fraction]:
    """The expected ``x^T M x`` under ``dist`` for each ``M``, exactly: every double is an integer times ``2**-1074``."""

    def ints(a):
        scaled = [num * (2**1074 // den) for num, den in map(float.as_integer_ratio, np.ravel(a).tolist())]
        return np.array(scaled, dtype=object).reshape(np.shape(a))

    X = ints(rows.X[rows.y == dist.target_label] if dist.kind == "by-label" else rows.X)
    if dist.kind == "weighted":
        c, scale = ints(deletion_weights(rows.ids, dist)), 2**1074
    else:
        c, scale = np.ones(len(X), dtype=object), len(X)
    moment = (X * c[:, None]).T @ X
    return [Fraction(int((ints(m) * moment).sum()), scale * 2 ** (3 * 1074)) for m in mean_inverses]


class TestParams:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(T=0), dict(d=0), dict(kappa=1.5), dict(kappa=-0.1),
            dict(delta=0.0), dict(delta=1.0), dict(eps_bar=-0.1), dict(K=0),
            dict(eps_bar=math.nan), dict(eps_bar=math.inf), dict(K=math.nan), dict(K=math.inf),
        ],
    )
    def test_validation(self, kw):
        base = dict(T=1000, d=5, kappa=0.5, delta=0.05, eps_bar=0.3, K=4)
        with pytest.raises(ValueError):
            CapacityParams(**(base | kw))

    @pytest.mark.parametrize("name, value", [("T", 2.5), ("d", 5.0)])
    def test_integers_are_refused_where_they_enter(self, name, value):
        # T=2.5 was accepted
        base = dict(T=1000, d=5, kappa=0.5, delta=0.05, eps_bar=0.3, K=4)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
            CapacityParams(**(base | {name: value}))
        assert type(getattr(CapacityParams(**(base | {name: np.int64(base[name])})), name)) is int


class TestCoresetCapacity:
    def test_zero_margin_gives_zero(self):
        p = CapacityParams(T=10**6, d=10, kappa=0.5, delta=0.01, eps_bar=0.0, K=10)
        assert coreset_capacity(p) == 0

    def test_doubling_margin_quadruples_prefloor(self):
        p1 = CapacityParams(T=10**6, d=10, kappa=1.0, delta=0.01, eps_bar=0.5, K=10)
        p2 = CapacityParams(T=10**6, d=10, kappa=1.0, delta=0.01, eps_bar=1.0, K=10)
        k1, k2 = coreset_capacity(p1), coreset_capacity(p2)
        # floor slack: (K2 + 1) - 4 * (K1 + 1) lies in [0, 3]
        assert 0 <= (k2 + 1) - 4 * (k1 + 1) <= 3

    def test_frozen_regression_values(self):
        # direct formula evaluation, cross-checked by hand:
        # 0.25 * 1000 / (16e * 10 * ln(1e6) * ln(100)) = 0.00903 -> 0
        p = CapacityParams(T=10**6, d=10, kappa=0.5, delta=0.01, eps_bar=0.5, K=10)
        assert coreset_capacity(p) == 0
        # kappa = 1: 0.25 * 1e6 / 27671.14 = 9.035 -> floor(8.035) = 8
        p = CapacityParams(T=10**6, d=10, kappa=1.0, delta=0.01, eps_bar=0.5, K=10)
        assert coreset_capacity(p) == 8

    def test_monotonicity(self):
        base = dict(T=10**6, d=10, kappa=1.0, delta=0.01, eps_bar=0.5, K=10)
        k0 = coreset_capacity(CapacityParams(**base))
        assert coreset_capacity(CapacityParams(**(base | dict(eps_bar=0.8)))) >= k0
        assert coreset_capacity(CapacityParams(**(base | dict(d=20)))) <= k0
        assert coreset_capacity(CapacityParams(**(base | dict(delta=0.001)))) <= k0


class TestDriftBound:
    def test_k0_vs_k3_ratio(self):
        p = CapacityParams(T=10**4, d=5, kappa=0.5, delta=0.05, eps_bar=0.3, K=5)
        assert drift_bound(0, p) / drift_bound(3, p) == pytest.approx(0.5)

    def test_exponent_arithmetic(self):
        p_half = CapacityParams(T=10**4, d=5, kappa=0.5, delta=0.05, eps_bar=0.3, K=5)
        p_one = CapacityParams(T=10**4, d=5, kappa=1.0, delta=0.05, eps_bar=0.3, K=5)
        assert drift_bound(2, p_one) / drift_bound(2, p_half) == pytest.approx(0.1)

    def test_monotone_in_k(self):
        p = CapacityParams(T=10**4, d=5, kappa=0.5, delta=0.05, eps_bar=0.3, K=5)
        values = [drift_bound(k, p) for k in range(6)]
        assert all(a < b for a, b in zip(values, values[1:]))
        with pytest.raises(ValueError):
            drift_bound(-1, p)

    def test_observed_drift_against_algebraic_envelope(self):
        # the probabilistic constant is unverifiable; check the direction by
        # replacing it with the measured weight displacement
        rng = np.random.default_rng(31)
        flagged = 0
        for _ in range(20):
            ds, m = random_linear_instance(rng, t_max=600)
            if not m.coreset:
                continue
            k = min(int(m.params.cap_k), len(m.coreset))
            w_before = m.weight.copy()
            deletion_update(m, {s.sample_id for s in m.coreset[:k]})
            probes = np.asarray([s.x for s in ds.samples[:100]])
            observed = float(np.max(np.abs(probes @ (m.weight - w_before))))
            gram = m.gram_state.gram
            disp = float((m.weight - w_before) @ gram @ (m.weight - w_before))
            envelope = 2.0 * math.sqrt(math.e * (k + 1)) * m.params.horizon ** (-m.params.kappa / 2) * math.sqrt(disp) if disp > 0 else 0.0
            if observed > envelope + 1e-9:
                flagged += 1
        assert flagged <= 4  # reported, not asserted hard: tolerate a few flags


class TestExpectedCapacity:
    def test_vanishing_failure_probability(self):
        p = CapacityParams(T=2000, d=10, kappa=0.5, delta=0.05, eps_bar=0.5, K=10)
        assert expected_capacity_uniform(p, c=1e-9) == 0
        with pytest.raises(ValueError):
            expected_capacity_uniform(p, c=0.0)

    def test_scaling_in_k_and_t(self):
        base = dict(d=1, kappa=0.5, delta=0.05, eps_bar=0.5)
        p1 = CapacityParams(T=10**4, K=4, **base)
        p2 = CapacityParams(T=10**4, K=8, **base)
        k1, k2 = expected_capacity_uniform(p1, 0.5), expected_capacity_uniform(p2, 0.5)
        assert abs(k2 - 2 * k1) <= 1  # linear in K up to flooring
        p4 = CapacityParams(T=4 * 10**4, K=4, **base)
        k4 = expected_capacity_uniform(p4, 0.5)
        # T^(1-kappa) doubles when T quadruples (log factor drifts slightly)
        assert 1.6 <= k4 / max(k1, 1) <= 2.0

    def test_expected_deletion_time(self):
        assert expected_deletion_time(5, 5, 0.25) == pytest.approx(0.25)
        assert expected_deletion_time(0, 10, 0.25) == 0.0
        with pytest.raises(ValueError):
            expected_deletion_time(1, 0, 0.25)
        # a K outside [0, k_total] gave -0.5 and 2.5x the cost; a bad core_cost a negative or NaN time
        for K in (-1, 5, math.nan):
            with pytest.raises(ValueError, match=r"^K must lie in \[0, k_total\] = \[0, 2\], got "):
                expected_deletion_time(K, 2, 0.25)
        for core_cost in (-0.25, math.nan, math.inf):
            with pytest.raises(ValueError, match="^core_cost must be finite and >= 0, got "):
                expected_deletion_time(1, 2, core_cost)
        assert expected_deletion_time(2, 2, 0.0) == 0.0


def margin_fit(seed=41, T=3000, d=8):
    ds = gen_dataset(DatasetSpec(kind="margin", T=T, d=d, seed=seed, gamma=0.1))
    m = bbq_fit(ds.samples, cap_k=4.0, kappa=0.5)
    probe = np.asarray([s.x for s in ds.samples if s.sample_id not in m.coreset_ids][:512])
    return ds, m, probe


class TestGate:
    def test_state_fields(self):
        # the gate's state since the last fit or rebase, drift reference included
        assert [f.name for f in dataclasses.fields(MetricSet)] == ["reference", "coreset_deletions", "eps_hat"]

    def test_first_deletion_always_accepted(self):
        ds, m, probe = margin_fit()
        assert capacity_gate(m, MetricSet(m.weight.copy()), probe) == ACCEPT

    def test_counter_exhaustion(self):
        ds, m, probe = margin_fit()
        history = MetricSet(m.weight.copy(), coreset_deletions=10**6)  # past any budget
        assert capacity_gate(m, history, probe) == BUDGET_EXHAUSTED

    def test_drift_exhaustion(self):
        ds, m, probe = margin_fit()
        history = MetricSet(m.weight.copy())
        m.gram_state.weight = history.reference + 10.0  # force massive drift
        assert capacity_gate(m, history, probe) == BUDGET_EXHAUSTED

    def test_margin_estimate_positive_on_margin_data(self):
        ds, m, probe = margin_fit()
        assert margin_estimate(m.weight, probe) > 0.0
        with pytest.raises(ValueError):
            margin_estimate(m.weight, [])

    def test_margin_estimate_reads_the_probe_size(self):
        ds, m, probe = margin_fit()
        wide = np.vstack([probe, np.zeros((1, m.dim))])  # a zero row past the probe size has zero margin
        assert len(probe) == DEFAULT_PROBE_SIZE
        assert margin_estimate(m.weight, wide) == margin_estimate(m.weight, probe) > 0.0

    def test_sign_agreement_while_gate_accepts(self):
        # whenever the gate still accepts, the live model agrees with the
        # fit-time model on every probe sign: accepted drift stays below half
        # the estimated margin, and every probe carries at least that margin
        ds, m, probe = margin_fit()
        history = MetricSet(m.weight.copy())
        reference = np.sign(probe @ history.reference)
        accepted = 0
        for s in list(m.coreset):
            if capacity_gate(m, history, probe) == BUDGET_EXHAUSTED:
                break
            assert np.array_equal(np.sign(probe @ m.weight), reference)
            deletion_update(m, {s.sample_id})
            history.coreset_deletions += 1
            accepted += 1
        assert accepted >= 1

    def test_one_margin_estimate_per_gate_state(self, monkeypatch):
        # walk the core set under the refit policy: a gate state keeps its
        # first margin estimate and decides like a fresh state on each call
        ds, m, probe = margin_fit(T=2000)
        calls = {"kept": 0, "fresh": 0}
        side = "fresh"

        def counting_estimate(*args, **kwargs):
            calls[side] += 1
            return margin_estimate(*args, **kwargs)

        monkeypatch.setattr(capacity, "margin_estimate", counting_estimate)
        history = MetricSet(m.weight.copy())
        states, decisions = 1, []
        for s in list(m.coreset):
            side = "fresh"
            fresh = capacity_gate(m, MetricSet(history.reference, history.coreset_deletions), probe)
            side = "kept"
            kept = capacity_gate(m, history, probe)
            assert kept == fresh
            decisions.append(kept)
            deletion_update(m, {s.sample_id})
            if kept == BUDGET_EXHAUSTED:
                refresh_inverse(m.gram_state)
                history = MetricSet(m.weight.copy())
                states += 1
            else:
                history.coreset_deletions += 1
        assert decisions.count(BUDGET_EXHAUSTED) >= 2 and ACCEPT in decisions
        assert calls["fresh"] == len(decisions)
        assert calls["kept"] == states - (decisions[-1] == BUDGET_EXHAUSTED)  # the last state may see no call


class TestMonteCarlo:
    def test_mass_on_never_queried_points_is_free(self):
        # zero vectors have zero leverage and are never queried under any
        # permutation, so concentrating the deletion law there never exhausts
        rng = np.random.default_rng(51)
        xs = rng.standard_normal((80, 4))
        xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
        samples = [LabeledSample(i, xs[i], int(rng.choice([-1, 1]))) for i in range(80)]
        zeros = [LabeledSample(80 + i, np.zeros(4), 1) for i in range(20)]
        dataset = samples + zeros
        weights = {s.sample_id: (1.0 / 20 if s.sample_id >= 80 else 0.0) for s in dataset}
        curve = expected_capacity_mc(
            dataset,
            DeletionDistribution(kind="weighted", weights=weights),
            K=1, trials=20, seed=5, cap_k=2.0, kappa=0.5, k_total_grid=[1, 5, 10, 20],
        )
        assert np.all(curve.empirical == 0.0)

    def test_budget_above_coreset_size_never_exceeded(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=120, d=4, seed=6))
        curve = expected_capacity_mc(
            ds.samples, DeletionDistribution(kind="uniform"),
            K=len(ds.samples), trials=10, seed=7, cap_k=1.0, kappa=0.5,
            k_total_grid=[1, 60, 120],
        )
        assert np.all(curve.empirical == 0.0)

    @pytest.mark.parametrize("miss", [1e-6, math.nan], ids=["off", "nan"])
    def test_a_drift_prediction_that_misses_raises(self, monkeypatch, miss):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=300, d=4, seed=10))
        exact = capacity.predicted_deletion_drift
        monkeypatch.setattr(capacity, "predicted_deletion_drift", lambda *args: exact(*args) + miss)
        with pytest.raises(AssertionError, match="deletion drift identity violated"):
            expected_capacity_mc(ds, DeletionDistribution(kind="uniform"), K=2, trials=3, seed=1, cap_k=4.0)
        monkeypatch.setattr(capacity, "predicted_deletion_drift", exact)
        expected_capacity_mc(ds, DeletionDistribution(kind="uniform"), K=2, trials=3, seed=1, cap_k=4.0)

    def test_empirical_below_bound_uniform(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=400, d=6, seed=8))
        curve = expected_capacity_mc(
            ds.samples, DeletionDistribution(kind="uniform"),
            K=5, trials=40, seed=9, cap_k=2.0, kappa=0.5, k_total_grid=[1, 20, 80, 200],
        )
        assert np.all(curve.empirical <= curve.bound + 1e-12)

    def test_report_json_schema(self, tmp_path):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=100, d=4, seed=10))
        curve = expected_capacity_mc(
            ds.samples, DeletionDistribution(kind="uniform"),
            K=3, trials=5, seed=11, cap_k=1.0, kappa=0.5, k_total_grid=[1, 10, 50],
        )
        p = CapacityParams(T=100, d=4, kappa=0.5, delta=0.05, eps_bar=0.2, K=1)
        path = tmp_path / "cap.json"
        capacity_report_json(curve, path, p)
        doc = json.loads(path.read_text())
        assert doc["report_version"] == 1
        assert doc["K_max"] == coreset_capacity(p)
        assert len(doc["curve"]) == 3
        assert {"k_total", "empirical", "bound"} <= set(doc["curve"][0])
        assert doc["params"]["T"] == 100

    def test_recorded_curves(self):
        # recorded while the inverse average still walked the per-point query
        # log; repr of a float list is exact, and the form mean is kept in hex
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=300, d=5, seed=20))
        parts = []
        for dist in (DeletionDistribution(kind="uniform"), DeletionDistribution(kind="by-label", target_label=-1)):
            c = expected_capacity_mc(ds.samples, dist, K=4, trials=6, seed=21, cap_k=2.0, kappa=0.5)
            parts.append(repr((c.k_total.tolist(), c.empirical.tolist(), c.bound.tolist(), c.quadratic_form_mean.hex())))
        got = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        assert got == "feb376fc0b0e78bd98321e1e8d6bf37888770a1925ec3cb8c316a7f176114964"

    def test_recorded_multi_block_curves(self, monkeypatch):
        # T=2000 spans four screen blocks, so later blocks screen against an
        # inverse that earlier queries have already shrunk.  The decisions
        # (k_total, empirical) keep the hash recorded while each trial's form
        # was a per-row mean; the bound side, which the second-moment form
        # moved by an ulp or two, has its own hash.  Each trial's form is
        # within 4 ulp of the exact value; the per-row weighted einsum was up
        # to 9 ulp from it on these trials, so it is no reference at that scale
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=2000, d=10, seed=24))
        raw = {int(i): float(i % 7 + 1) for i in ds.ids}
        mass = sum(raw.values())
        dists = (
            DeletionDistribution(kind="uniform"),
            DeletionDistribution(kind="by-label", target_label=-1),
            DeletionDistribution(kind="weighted", weights={i: w / mass for i, w in raw.items()}),
        )
        mean_inverses = []

        def recording_fit(*args, **kwargs):
            models, means = bbq_fit_orders(*args, **kwargs)
            mean_inverses.extend(means)
            return models, means

        monkeypatch.setattr(capacity, "bbq_fit_orders", recording_fit)
        decisions, sides = [], []
        for dist in dists:
            mean_inverses.clear()
            c = expected_capacity_mc(ds, dist, K=10, trials=4, seed=25, cap_k=10.0, kappa=0.5)
            decisions.append(repr((c.k_total.tolist(), c.empirical.tolist())))
            sides.append(repr((c.bound.tolist(), c.quadratic_form_mean.hex())))
            forms = [np.vdot(m, second_moment(ds, dist)) for m in mean_inverses]
            assert len(forms) == 4 and np.mean(forms) == c.quadratic_form_mean
            for form, exact in zip(forms, exact_forms(ds, dist, mean_inverses)):
                assert abs(Fraction(form) - exact) <= 4 * Fraction(np.spacing(float(exact))), (dist.kind, form.hex())
        got = [hashlib.sha256("\n".join(parts).encode()).hexdigest() for parts in (decisions, sides)]
        assert got == [
            "09f62ff949c0b4672808fa5c9f7908f1c98ed6db6ec9cd8f84a85eb23e7421c8",
            "dc0fc78cd00fc85cb88e9ff540e7a26f56591e8de3db36a29ba376cebca02e47",
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 300),
        d=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        zero=st.booleans(),
        kind=st.sampled_from(["uniform", "by-label", "weighted"]),
    )
    def test_second_moment_form_equals_the_per_row_mean(self, n, d, seed, zero, kind):
        rng = np.random.default_rng(seed)
        X = np.zeros((n, d)) if zero else rng.standard_normal((n, d))
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        rows = Rows(np.arange(n), X, rng.choice(np.array([-1, 1], dtype=np.int8), n))
        A = rng.standard_normal((d, d))
        M = A @ A.T / d + 0.1 * np.eye(d)
        w = rng.random(n) + 0.01
        dist = DeletionDistribution(
            kind=kind,
            target_label=int(rows.y[0]),
            weights=dict(zip(range(n), (w / w.sum()).tolist())) if kind == "weighted" else None,
        )
        per_row = per_row_form(rows, dist, M)
        assert abs(np.vdot(M, second_moment(rows, dist)) - per_row) <= 1e-12 * abs(per_row) + 1e-300

    @pytest.mark.parametrize("dist", [DeletionDistribution(), DeletionDistribution(kind="by-label", target_label=1)])
    def test_rows_and_sample_list_give_the_same_curve(self, dist):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=700, d=6, seed=22))
        curves = [
            expected_capacity_mc(data, dist, K=3, trials=5, seed=23, cap_k=2.0, kappa=0.5, k_total_grid=[1, 50, 200])
            for data in (ds, ds.samples)
        ]
        for name in ("k_total", "empirical", "bound"):
            assert getattr(curves[0], name).tobytes() == getattr(curves[1], name).tobytes()
        assert curves[0].quadratic_form_mean.hex() == curves[1].quadratic_form_mean.hex()

    @pytest.mark.parametrize("T,d", [(200, 1), (300, 3), (500, 10)])
    def test_mean_inverse_equals_full_state_replay(self, T, d):
        # the lockstep fit's mean, from its inverse-only steps, equals a replay that steps the full state
        # through rank_one_update; the fitted state is the one a load derives from the core set
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=T, d=d, seed=30 + d))
        perm = np.random.default_rng(d).permutation(T)
        model = bbq_fit([ds.samples[i] for i in perm], cap_k=2.0, kappa=0.5)
        positions = np.flatnonzero(np.isin(ds.ids[perm], list(model.coreset_ids)))
        state = gram_init(d, model.params.lam)
        total = np.zeros((d, d))
        runs = np.diff(positions, prepend=-1, append=T - 1).tolist()
        for run, s in zip(runs, model.coreset):
            total += run * state.gram_inv
            rank_one_update(state, s.x, s.y)
        if runs[-1]:
            total += runs[-1] * state.gram_inv
        assert_state_from_coreset(model)
        _, means = bbq_fit_orders(ds, perm[None], cap_k=2.0, kappa=0.5)
        assert np.array_equal(means[0], total / T)

    @pytest.mark.parametrize("edit", ["drop the last stored row", "drop the first stored row"])
    def test_a_trial_fit_that_differs_from_its_single_fit_raises(self, monkeypatch, edit):
        # trial 0 is fitted again alone, and its lockstep model must equal that fit in every stored bit
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=600, d=4, seed=26))
        fits = []

        def dropping_fit(*args, **kwargs):
            model = bbq_fit(*args, **kwargs)
            stored = list(model.coreset.ids())
            model.coreset.take(stored[-1] if edit == "drop the last stored row" else stored[0])
            fits.append(model)
            return model

        expected_capacity_mc(ds, DeletionDistribution(), K=2, trials=3, seed=27, cap_k=2.0)
        monkeypatch.setattr(capacity, "bbq_fit", dropping_fit)
        with pytest.raises(AssertionError, match="lockstep fit of trial 0 differs from its single fit"):
            expected_capacity_mc(ds, DeletionDistribution(), K=2, trials=3, seed=27, cap_k=2.0)
        assert len(fits) == 1

    def test_trials_past_a_group_give_the_ungrouped_curve(self, monkeypatch):
        # the trials are fitted FIT_GROUP at a time: groups of 3 over 7 trials give the curve of one group of 7
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=700, d=5, seed=28))
        args = (ds, DeletionDistribution())
        kwargs = {"K": 12, "trials": 7, "seed": 29, "cap_k": 2.0, "k_total_grid": [50, 100, 350]}
        whole = expected_capacity_mc(*args, **kwargs)
        groups, singles = [], []

        def recording_fit(rows, orders, *args, **kwargs):
            groups.append(len(orders))
            return bbq_fit_orders(rows, orders, *args, **kwargs)

        monkeypatch.setattr(capacity, "FIT_GROUP", 3)
        monkeypatch.setattr(capacity, "bbq_fit_orders", recording_fit)
        monkeypatch.setattr(capacity, "bbq_fit", lambda *a, **k: singles.append(a) or bbq_fit(*a, **k))
        grouped = expected_capacity_mc(*args, **kwargs)
        assert groups == [3, 3, 1] and len(singles) == 1
        assert 0 < whole.empirical[0] < 1  # trials that differ, so a misdrawn trial would show
        for name in ("k_total", "empirical", "bound"):
            assert getattr(grouped, name).tobytes() == getattr(whole, name).tobytes()
        assert grouped.quadratic_form_mean.hex() == whole.quadratic_form_mean.hex()

    def test_rejects_bad_arguments(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=50, d=3, seed=12))
        with pytest.raises(ValueError):
            expected_capacity_mc(ds.samples, DeletionDistribution(), K=1, trials=0, seed=0)
        with pytest.raises(ValueError):
            expected_capacity_mc(
                ds.samples, DeletionDistribution(), K=1, trials=1, seed=0, k_total_grid=[0]
            )
        for name, value in (("trials", 2.5), ("seed", 1.5)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
                expected_capacity_mc(ds.samples, DeletionDistribution(), **{"K": 1, "trials": 1, "seed": 0, name: value})

    @pytest.mark.parametrize(
        "grid,message",
        [
            ([], "^k_total grid must not be empty$"),
            ([1, 1, 5], "^k_total grid must not repeat a value$"),
            ([2.7], "^each k_total grid value must be an integer, got 2.7$"),
        ],
        ids=["empty", "repeated", "fractional"],
    )
    def test_rejects_a_bad_grid(self, grid, message):
        # an empty grid raised IndexError, a repeat gave a duplicated curve point, and 2.7 ran as 2
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=50, d=3, seed=12))
        with pytest.raises(ValueError, match=message):
            expected_capacity_mc(ds, DeletionDistribution(), K=1, trials=1, seed=0, k_total_grid=grid)

    def test_rejects_a_fractional_budget(self):
        # K = 2.5 ran, though CapacityCurve.K is an int
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=50, d=3, seed=12))
        with pytest.raises(ValueError, match="^K must be an integer, got 2.5$"):
            expected_capacity_mc(ds, DeletionDistribution(), K=2.5, trials=1, seed=0)
        assert expected_capacity_mc(ds, DeletionDistribution(), K=np.int64(2), trials=1, seed=0).K == 2

    def test_rejects_a_negative_seed(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=50, d=3, seed=12))
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            expected_capacity_mc(ds.samples, DeletionDistribution(), K=1, trials=2, seed=-1)

    def test_rejects_weights_missing_an_id_by_name(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=50, d=3, seed=12))
        dist = DeletionDistribution(kind="weighted", weights={0: 1.0})
        with pytest.raises(ValueError, match="weights missing for 49 sample ids"):
            expected_capacity_mc(ds.samples, dist, K=1, trials=2, seed=0)

    @pytest.mark.parametrize("K", [0, -2])
    def test_rejects_a_budget_below_one(self, K):
        # K = 0 would divide by zero in the bound; K = -2 would give negative bounds and every probability 1
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=50, d=3, seed=12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="K must be >= 1"):
                expected_capacity_mc(ds.samples, DeletionDistribution(), K=K, trials=2, seed=0)

    @pytest.mark.parametrize("case", ["minority label", "label with no rows", "few weighted rows"])
    def test_refuses_more_draws_than_eligible_before_any_fit(self, monkeypatch, case):
        # the default grid reaches T // 2 = 150; the minority label ran a whole trial's fit before
        # deletion_stream refused, and a label with no rows divided 0 by 0 in second_moment first
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=300, d=5, seed=20))
        dist, message = DeletionDistribution(kind="by-label", target_label=1), "only 134 eligible"
        if case == "label with no rows":
            ds, message = ds.take(np.flatnonzero(ds.y == -1)), "only 0 eligible"
        elif case == "few weighted rows":
            dist = DeletionDistribution(kind="weighted", weights={i: 0.5 if i < 2 else 0.0 for i in range(300)})
            message = "only 2 have weight"
        grid_max = len(ds) // 2
        fits = []
        for name in ("bbq_fit", "bbq_fit_orders"):
            monkeypatch.setattr(capacity, name, lambda *a, name=name, **k: fits.append(name))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^requested {grid_max} deletions, {message}$"):
                expected_capacity_mc(ds, dist, K=1, trials=2, seed=0)
            with pytest.raises(ValueError, match=f"^requested {grid_max} deletions, {message}$"):
                deletion_stream(ds, dist, grid_max, seed=0)  # the same rule and the same words
        assert fits == []

    def test_free_deletion_fraction_matches_query_fraction(self):
        # uniform deletion of the whole dataset makes the split exact: free
        # deletions are precisely the never-queried points

        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=600, d=6, seed=13))
        m = bbq_fit(ds.samples, cap_k=2.0, kappa=0.5)
        n_queried = len(m.coreset)
        stream = deletion_stream(ds.samples, DeletionDistribution(kind="uniform"), 600, seed=14)
        deletion_update(m, stream)
        assert m.free_deletions == 600 - n_queried
        assert m.coreset_deletions == n_queried

        # on a random prefix the fraction concentrates around 1 - N_T/T
        m2 = bbq_fit(ds.samples, cap_k=2.0, kappa=0.5)
        prefix = deletion_stream(ds.samples, DeletionDistribution(kind="uniform"), 200, seed=15)
        deletion_update(m2, prefix)
        expected = 1.0 - n_queried / 600
        sigma = math.sqrt(expected * (1 - expected) / 200)
        assert abs(m2.free_deletions / 200 - expected) < 5 * sigma

    def test_total_budget_grows_with_stream_length(self):
        # at a fixed failure level, the tolerated number of uniform deletions
        # grows with T: read the largest grid point still under the level
        level = 0.5
        grid = [10, 20, 40, 80, 160, 320]
        tolerated = []
        for T, seed in ((400, 16), (800, 17), (1600, 18)):
            ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=T, d=6, seed=seed))
            curve = expected_capacity_mc(
                ds.samples, DeletionDistribution(kind="uniform"),
                K=8, trials=30, seed=seed, cap_k=2.0, kappa=0.5,
                k_total_grid=[k for k in grid if k <= T],
            )
            under = [int(k) for k, e in zip(curve.k_total, curve.empirical) if e <= level]
            tolerated.append(max(under) if under else 0)
        assert tolerated[0] <= tolerated[1] <= tolerated[2]
        assert tolerated[2] > tolerated[0]

    def test_expected_deletion_time_matches_measured_stream(self):
        # replay a uniform stream, measure the per-deletion mean, and compare
        # against the formula instantiated with the measured core-set cost
        import time


        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=1500, d=10, seed=44))
        m = bbq_fit(ds.samples, cap_k=1.0, kappa=0.7)
        stream = deletion_stream(ds.samples, DeletionDistribution(kind="uniform"), 600, seed=45)
        hits = 0
        hit_time = total = 0.0
        for sid in stream:
            is_hit = sid in m.coreset_ids
            t0 = time.perf_counter()
            deletion_update(m, [sid])
            dt = time.perf_counter() - t0
            total += dt
            if is_hit:
                hits += 1
                hit_time += dt
        assert hits > 0
        core_cost = hit_time / hits
        mean = total / len(stream)
        assert mean <= 2.0 * expected_deletion_time(hits, len(stream), core_cost)
