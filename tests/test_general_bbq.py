import dataclasses
import hashlib
import itertools
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import ints_reachable
from coreset_unlearn import (
    DatasetSpec,
    FiniteFunctionClass,
    LabeledSample,
    d2_score,
    erm_fit,
    gen_dataset,
    general_bbq_fit,
    general_bbq_trace,
    general_deletion_update,
    general_state_of_system,
    load_function_class,
    projected_dimension,
)
from coreset_unlearn import general_bbq
from coreset_unlearn.general_bbq import (
    DEFAULT_MAX_CLASS_SIZE, DEFAULT_STAGE_CAP, EXHAUST_STAGE_CAP, ProjectedDimension, default_rate_bound,
)
from coreset_unlearn.verify import random_function_class, random_general_instance, unit_vectors

TWO_CONSTANT = FiniteFunctionClass([lambda s: 0.0, lambda s: 1.0], names=["zero", "one"])


def points(n, d=2):
    return [LabeledSample(i, np.zeros(d), 1) for i in range(n)]


def rules_class(functions):
    """A class loaded from the declarative JSON format."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "class.json"
        path.write_text(json.dumps({"format": "finite-function-class", "version": 1, "functions": functions}))
        return load_function_class(path)


def per_sample_values(fclass, samples):
    """The one-call-per-sample evaluation table ``value_matrix`` must reproduce."""
    return np.array(
        [[fclass.evaluate(j, s) for s in samples] for j in range(len(fclass))], dtype=np.float64
    ).reshape(len(fclass), len(samples))


def outcome(table):
    """Bytes of the table, or the ValueError text it raised."""
    try:
        return table().tobytes()
    except ValueError as exc:
        return str(exc)


def dimension_with_exact_cap(cap, fclass, samples):
    """``projected_dimension`` with ``DEFAULT_DIM_EXACT_CAP`` set to ``cap`` for this call only."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(general_bbq, "DEFAULT_DIM_EXACT_CAP", cap)
        return projected_dimension(fclass, samples)


def replay_value(kernel, order):
    """Sum of the scores of ``order``'s points, each taken against the ones before it."""
    kernel.reset()
    total = 0.0
    for i in order:
        total += kernel.score(i)
        kernel.take(i)
    return total


def d2_oracle(x, prefix, fclass):
    """Independent double-loop reimplementation of the uncertainty score."""
    best = 0.0
    for f in range(len(fclass)):
        for g in range(len(fclass)):
            num = (fclass.evaluate(f, x) - fclass.evaluate(g, x)) ** 2
            den = 1.0
            for p in prefix:
                den += (fclass.evaluate(f, p) - fclass.evaluate(g, p)) ** 2
            best = max(best, num / den)
    return best


class TestD2Score:
    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            fclass = random_function_class(rng, 8, 3)
            xs = unit_vectors(rng, 6, 3)
            samples = [LabeledSample(i, xs[i], 1) for i in range(6)]
            got = d2_score(samples[0], samples[1:], fclass)
            assert got == pytest.approx(d2_oracle(samples[0], samples[1:], fclass))


class TestProjectedDimension:
    def test_singleton_class_is_zero(self):
        fclass = FiniteFunctionClass([lambda s: 0.7])
        result = projected_dimension(fclass, points(5))
        assert result.value == 0.0

    def test_heuristic_lower_bounds_exact(self):
        rng = np.random.default_rng(62)
        gaps = []
        for _ in range(8):
            fclass = random_function_class(rng, 6, 2)
            xs = unit_vectors(rng, 6, 2)
            samples = [LabeledSample(i, xs[i], 1) for i in range(6)]
            exact = projected_dimension(fclass, samples)
            heur = dimension_with_exact_cap(0, fclass, samples)
            assert exact.exact and not heur.exact
            assert heur.value <= exact.value + 1e-12
            gaps.append(exact.value - heur.value)
        assert max(gaps) <= 0.35  # frozen from the greedy restarts at this seed

    def test_empty_pool(self):
        assert projected_dimension(TWO_CONSTANT, []).value == 0.0

    def test_exact_value_equals_the_replay_of_every_ordering(self):
        # the reference replays each ordering from an empty prefix; duplicated
        # rows make orderings tie, so the bits of each sum count
        rng = np.random.default_rng(63)
        for _ in range(24):
            n = int(rng.integers(1, 8))
            fclass = random_function_class(rng, int(rng.integers(2, 9)), 2)
            distinct = unit_vectors(rng, int(rng.integers(1, n + 1)), 2)
            xs = distinct[rng.integers(0, len(distinct), n)]
            samples = [LabeledSample(i, xs[i], 1) for i in range(n)]
            kernel = general_bbq._PairScores(fclass.value_matrix(samples))
            want = max(replay_value(kernel, order) for order in itertools.permutations(range(n)))
            got = projected_dimension(fclass, samples)
            assert got.exact and got.value.hex() == want.hex()


class TestErm:
    def test_singleton(self):
        fclass = FiniteFunctionClass([lambda s: 0.3])
        assert erm_fit(fclass, points(4)) == 0

    def test_empty_sample_tie_breaks_to_zero(self):
        assert erm_fit(TWO_CONSTANT, []) == 0

    def test_planted_function_recovered(self):
        rng = np.random.default_rng(64)
        recovered = 0
        trials = 20
        for _ in range(trials):
            fclass = random_function_class(rng, 8, 3)
            planted = int(rng.integers(len(fclass)))
            xs = unit_vectors(rng, 200, 3)
            samples = []
            for i in range(200):
                s = LabeledSample(i, xs[i], 1)
                s.y = 1 if rng.random() < fclass.evaluate(planted, s) else -1
                samples.append(s)
            got = erm_fit(fclass, samples)
            # near-equivalent functions can win the argmin; accept those too
            same = np.allclose(
                [fclass.evaluate(got, s) for s in samples],
                [fclass.evaluate(planted, s) for s in samples],
                atol=0.2,
            )
            recovered += bool(got == planted or same)
        assert recovered >= int(0.95 * trials)


class TestGeneralFit:
    def test_single_function_class_never_queries(self):
        fclass = FiniteFunctionClass([lambda s: 0.9])
        m, stage_log = general_bbq_trace(points(10), fclass, rate_bound=4.0)
        assert m.queried == []
        assert m.f_hat == 0
        assert len(stage_log) == 1

    def test_two_constant_realizable_trace(self):
        # frozen stage trace: eps_1^2 = 0.25/4, scores 1, 1/2, ..., 1/15, the
        # 16th candidate sits exactly on the boundary and is not queried
        m, stage_log = general_bbq_trace(points(20), TWO_CONSTANT, rate_bound=4.0)
        assert len(stage_log) == 1
        rec = stage_log[0]
        assert rec.queried_ids == tuple(range(15))
        assert rec.queried_scores[:3] == pytest.approx((1.0, 0.5, 1.0 / 3.0))
        assert rec.exit_score == pytest.approx(1.0 / 16.0)
        assert rec.confident_ids == ()
        assert m.f_hat == 1  # all labels +1, so the constant-one function wins

    def test_query_condition_log_consistency(self):
        rng = np.random.default_rng(65)
        for _ in range(10):
            pool, fclass, _ = random_general_instance(rng, pool_max=80, class_max=12)
            _, stage_log = general_bbq_trace(pool, fclass)
            for rec in stage_log:
                eps2 = rec.eps**2
                assert all(score > eps2 for score in rec.queried_scores)
                assert rec.exit_score <= eps2 + 1e-15

    def test_query_count_bound(self):
        # deterministic label-complexity bound via the exact projected dimension
        rng = np.random.default_rng(66)
        for _ in range(10):
            pool, fclass, _ = random_general_instance(rng, pool_max=8, class_max=6, pool_min=4)
            rate = default_rate_bound(len(fclass), len(pool), 0.05)
            m, stage_log = general_bbq_trace(pool, fclass, rate_bound=rate)
            pdim = projected_dimension(fclass, pool)
            assert pdim.exact
            bound = 4.0 ** (len(stage_log) + 1) * rate * pdim.value
            assert len(m.queried) <= bound + 1e-9

    def test_labels_read_only_for_queried(self):
        class SpySample:
            def __init__(self, sample_id, x, y):
                self.sample_id = sample_id
                self.x = x
                self._y = y
                self.reads = 0

            @property
            def y(self):
                self.reads += 1
                return self._y

        rng = np.random.default_rng(67)
        fclass = random_function_class(rng, 6, 3)
        xs = unit_vectors(rng, 50, 3)
        pool = [SpySample(i, xs[i], int(rng.choice([-1, 1]))) for i in range(50)]
        m = general_bbq_fit(pool, fclass)
        queried = {s.sample_id for _, s in m.queried}
        for s in pool:
            if s.sample_id in queried:
                assert s.reads >= 1
            else:
                assert s.reads == 0

    def test_confident_set_margin_soundness(self):
        # probabilistic claim: count violations instead of asserting each
        rng = np.random.default_rng(68)
        checked = violations = 0
        for _ in range(20):
            pool, fclass, planted = random_general_instance(rng, pool_max=120, class_max=10)
            if planted is None:
                continue
            _, stage_log = general_bbq_trace(pool, fclass)
            by_id = {s.sample_id: s for s in pool}
            for rec in stage_log:
                margin = 2.0 * 2.0 ** (-rec.stage)
                for sid in rec.confident_ids:
                    s = by_id[sid]
                    f_star = fclass.evaluate(planted, s)
                    if abs(f_star - 0.5) <= margin:
                        continue
                    checked += 1
                    stage_pred = fclass.evaluate(rec.stage_erm, s) - 0.5
                    if np.sign(stage_pred) != np.sign(f_star - 0.5):
                        violations += 1
        assert checked == 0 or violations / checked <= 0.2

    def test_exhaustive_fit_computes_no_projected_dimension(self, monkeypatch):
        calls = []
        real = general_bbq.projected_dimension
        monkeypatch.setattr(general_bbq, "projected_dimension", lambda *a, **k: calls.append(1) or real(*a, **k))
        pool, fclass, _ = random_general_instance(np.random.default_rng(71), pool_max=60, class_max=8)
        residual = general_bbq_fit(pool, fclass)
        assert len(calls) == 1
        exhaustive = general_bbq_fit(pool, fclass, exhaust_pool=True)
        assert len(calls) == 1
        assert exhaustive.config == residual.config

    @pytest.mark.parametrize(
        "pool, kwargs, message",
        [
            ([], {}, "pool must be nonempty"),
            (points(3), {"rate_bound": -1.0}, "rate_bound"),
            (points(3), {"rate_bound": 0.0}, "rate_bound"),
            (points(3), {"rate_bound": math.nan}, "rate_bound"),
            (points(3), {"rate_bound": math.inf}, "rate_bound"),
            (points(3), {"delta": 0.0}, "delta"),
            (points(3), {"delta": -0.5}, "delta"),
            (points(3), {"delta": 1.0}, "delta"),
            (points(3), {"delta": math.nan, "rate_bound": 4.0}, "delta"),
            (points(3) + points(1), {}, "sample ids repeat"),
        ],
        ids=[
            "empty-pool", "negative-rate", "zero-rate", "nan-rate", "inf-rate", "zero-delta", "negative-delta",
            "unit-delta", "nan-delta", "repeated-id",
        ],
    )
    def test_rejects_bad_arguments_by_name(self, pool, kwargs, message):
        with pytest.raises(ValueError, match=message):
            general_bbq_fit(pool, TWO_CONSTANT, **kwargs)


class TestGeneralDeletion:
    def test_unqueried_request_is_noop(self):
        m = general_bbq_fit(points(20), TWO_CONSTANT, rate_bound=4.0)
        queried_before = list(m.queried)
        f_before = m.f_hat
        general_deletion_update(m, {17, 18, 19, 900}, TWO_CONSTANT)
        assert m.queried == queried_before and m.f_hat == f_before

    def test_delete_all_queried_falls_back_to_tie_break(self):
        m = general_bbq_fit(points(20), TWO_CONSTANT, rate_bound=4.0)
        general_deletion_update(m, set(range(20)), TWO_CONSTANT)
        assert m.queried == [] and m.f_hat == 0


ID_OFFSET = 1000  # above every stage number, class size and stage cap, so an int that is an id is one


class TestStoredState:
    """After any deletion stream the model holds what a fresh fit on the survivors holds."""

    def test_deletion_streams(self):
        rng = np.random.default_rng(73)
        for _ in range(12):
            pool, fclass, _ = random_general_instance(rng, pool_max=120, class_max=16)
            pool = [LabeledSample(s.sample_id + ID_OFFSET, s.x, s.y) for s in pool]
            pool_ids = {s.sample_id for s in pool}
            m = general_bbq_fit(pool, fclass)
            assert m.values.flags.c_contiguous  # the layout value_matrix gives, so the ERM sums alike
            assert m.values.tobytes() == fclass.value_matrix([s for _, s in m.queried]).tobytes()
            queried, never = sorted(m.queried_ids), sorted(pool_ids - m.queried_ids)
            requests = rng.choice(queried, size=int(rng.integers(0, len(queried) + 1)), replace=False).tolist()
            requests += rng.choice(never, size=min(len(never), 8), replace=False).tolist()
            requests = rng.permutation(requests).tolist()
            while requests:  # batches of 1-3 ids, queried and never-queried mixed
                k = int(rng.integers(1, 4))
                general_deletion_update(m, requests[:k], fclass)
                requests = requests[k:]

            stored = [s for _, s in m.queried]
            assert m.values.flags.c_contiguous
            assert m.values.tobytes() == fclass.value_matrix(stored).tobytes()
            assert m.values.shape == (len(fclass), len(stored))
            assert ints_reachable(m) & pool_ids == m.queried_ids
            if not stored:
                assert m.f_hat == 0
                continue
            fresh = general_bbq_fit(stored, fclass, rate_bound=m.config.rate_bound, exhaust_pool=True)
            assert fresh.queried_ids == m.queried_ids
            assert fresh.f_hat == m.f_hat == erm_fit(fclass, stored)

    def test_the_stage_log_is_only_in_the_trace(self):
        pool, fclass, _ = random_general_instance(np.random.default_rng(75), pool_max=80, class_max=12)
        pool = [LabeledSample(s.sample_id + ID_OFFSET, s.x, s.y) for s in pool]
        pool_ids = {s.sample_id for s in pool}
        m, stage_log = general_bbq_trace(pool, fclass)
        assert ints_reachable(stage_log) & pool_ids - m.queried_ids  # the log names never-queried points
        assert ints_reachable(m) & pool_ids == m.queried_ids
        assert [f.name for f in dataclasses.fields(m)] == ["queried", "values", "f_hat", "config"]
        assert [f.name for f in dataclasses.fields(m.config)] == ["delta", "rate_bound"]

    def test_models_compare_by_what_they_store(self):
        pool, fclass, _ = random_general_instance(np.random.default_rng(77), pool_max=60, class_max=8)
        m, again = general_bbq_fit(pool, fclass), general_bbq_fit(pool, fclass)
        assert m == again
        general_deletion_update(again, [again.queried[0][1].sample_id], fclass)
        assert m != again

    def test_deletions_evaluate_no_rule(self):
        pool, fclass, _ = random_general_instance(np.random.default_rng(74), pool_max=100, class_max=12)
        m = general_bbq_fit(pool, fclass)
        real, calls = fclass.value_matrix, []
        fclass.value_matrix = lambda samples: calls.append(len(samples)) or real(samples)
        queried = sorted(m.queried_ids)
        never = sorted({s.sample_id for s in pool} - m.queried_ids)
        for sid in queried[::2] + never[:5]:
            general_deletion_update(m, [sid], fclass)
        general_deletion_update(m, queried[1::4], fclass)
        assert calls == []
        assert m.values.tobytes() == real([s for _, s in m.queried]).tobytes()

    def test_a_class_of_another_size_is_rejected(self):
        pool, fclass, _ = random_general_instance(np.random.default_rng(76), pool_max=60, class_max=8)
        m = general_bbq_fit(pool, fclass)
        before = (list(m.queried), m.values.copy(), m.f_hat)
        for other in (fclass.functions[:-1], [*fclass.functions, fclass.functions[0]]):
            with pytest.raises(ValueError, match=f"function class has {len(other)} functions"):
                general_deletion_update(m, m.queried_ids, FiniteFunctionClass(other))
        assert m.queried == before[0] and m.values.tobytes() == before[1].tobytes() and m.f_hat == before[2]


def valid_document():
    return {
        "format": "finite-function-class", "version": 1,
        "functions": [
            {"name": "t", "type": "threshold", "feature": 1, "cut": 0.25, "below": 0.2, "above": 0.9},
            {"name": "v", "type": "table", "default": 0.5, "values": {"17": 0.8, "3": 0.1}},
        ],
    }


def load_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "class.json"
        path.write_text(text)
        return load_function_class(path)


def _set(*path_and_value):
    """An edit setting the value at a key path of the document; ``_set`` as the value deletes the key."""
    *path, key, value = path_and_value

    def edit(doc):
        holder = doc
        for step in path:
            holder = holder[step]
        if value is _set:
            del holder[key]
        else:
            holder[key] = value
        return doc

    return edit


BAD_FEATURE = "function 0: 'feature' must be a nonnegative integer, got "
NOT_FINITE = "must be a finite number, got "
MALFORMED = [
    ("no-functions", _set("functions", _set), "missing key 'functions'"),
    ("no-type", _set("functions", 0, "type", _set), "function 0: missing key 'type'"),
    ("no-feature", _set("functions", 0, "feature", _set), "function 0: missing key 'feature'"),
    ("no-below", _set("functions", 0, "below", _set), "function 0: missing key 'below'"),
    ("list-feature", _set("functions", 0, "feature", [1]), BAD_FEATURE + "[1]"),
    ("negative-feature", _set("functions", 0, "feature", -1), BAD_FEATURE + "-1"),
    ("float-feature", _set("functions", 0, "feature", 1.5), BAD_FEATURE + "1.5"),
    ("bool-feature", _set("functions", 0, "feature", True), BAD_FEATURE + "True"),
    ("string-functions", _set("functions", "abc"), "'functions' must be a list, got 'abc'"),
    ("list-values", _set("functions", 1, "values", [0.5]), "function 1: 'values' must be an object, got [0.5]"),
    ("string-value", _set("functions", 1, "values", "17", "x"), f"function 1: '17' {NOT_FINITE}'x'"),
    ("bad-key", _set("functions", 1, "values", {"a7": 0.5}), "function 1: 'values' key 'a7' is not a sample id"),
    ("null-default", _set("functions", 1, "default", None), f"function 1: 'default' {NOT_FINITE}None"),
    ("string-cut", _set("functions", 0, "cut", "nan"), f"function 0: 'cut' {NOT_FINITE}'nan'"),
    ("nan-cut", _set("functions", 0, "cut", math.nan), f"function 0: 'cut' {NOT_FINITE}nan"),
    ("inf-above", _set("functions", 0, "above", -math.inf), f"function 0: 'above' {NOT_FINITE}-inf"),
    ("inf-value", _set("functions", 1, "values", "3", math.inf), f"function 1: '3' {NOT_FINITE}inf"),
    ("huge-int-cut", _set("functions", 0, "cut", 10**400), f"function 0: 'cut' {NOT_FINITE}1000"),
    ("int-name", _set("functions", 0, "name", 5), "function 0: 'name' must be a string, got 5"),
    ("string-entry", _set("functions", 1, "nope"), "function 1: must be an object, got 'nope'"),
    ("unknown-type", _set("functions", 1, "type", "mystery"), "function 1: unknown function type 'mystery'"),
    ("list-document", lambda doc: [doc], "not a version-1 finite-function-class file"),
]


def _paths(node, path=()):
    """Every (container path, key) position of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path, key
        yield from _paths(child, (*path, key))


json_value = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-1, 2), max_size=2), st.dictionaries(st.text(max_size=2), st.floats(0, 1), max_size=2),
)


@st.composite
def mutated_documents(draw):
    """A valid document with keys dropped, values swapped for other types, and its text truncated."""
    doc = valid_document()
    doc["functions"] += draw(st.lists(st.sampled_from(valid_document()["functions"]), max_size=2))
    doc = json.loads(json.dumps(doc))  # no shared entries
    for _ in range(draw(st.integers(1, 3))):
        positions = list(_paths(doc))
        if not positions:
            break
        path, key = draw(st.sampled_from(positions))
        holder = doc
        for step in path:
            holder = holder[step]
        if draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(json_value)
    text = json.dumps(doc)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestFunctionClassIO:
    def test_threshold_fixture_loads_and_evaluates(self, fixtures_dir):
        fclass = load_function_class(fixtures_dir / "threshold_rules.json")
        assert len(fclass) == 6
        s = LabeledSample(0, np.array([0.5, -0.5]), 1)
        assert fclass.evaluate(0, s) == pytest.approx(0.8)  # above cut -0.2
        assert fclass.evaluate(3, s) == pytest.approx(0.15)  # below cut 0.0

    def test_tabulated_fixture_loads_and_evaluates(self, fixtures_dir):
        fclass = load_function_class(fixtures_dir / "tabulated_values.json")
        assert len(fclass) == 4
        s0 = LabeledSample(0, np.zeros(2), 1)
        s99 = LabeledSample(99, np.zeros(2), 1)
        assert fclass.evaluate(0, s0) == pytest.approx(0.9)
        assert fclass.evaluate(0, s99) == pytest.approx(0.2)  # default

    def test_fixture_runs_through_fit(self, fixtures_dir):
        rng = np.random.default_rng(70)
        fclass = load_function_class(fixtures_dir / "threshold_rules.json")
        xs = unit_vectors(rng, 40, 2)
        pool = [LabeledSample(i, xs[i], int(rng.choice([-1, 1]))) for i in range(40)]
        m = general_bbq_fit(pool, fclass)
        assert 0 <= m.f_hat < len(fclass)

    def test_malformed_documents_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else", "version": 1, "functions": []}')
        with pytest.raises(ValueError, match="finite-function-class"):
            load_function_class(bad)
        bad.write_text(
            '{"format": "finite-function-class", "version": 1,'
            ' "functions": [{"name": "f", "type": "mystery"}]}'
        )
        with pytest.raises(ValueError, match="unknown function type"):
            load_function_class(bad)

    @pytest.mark.parametrize("case, edit, message", MALFORMED, ids=[case for case, _, _ in MALFORMED])
    def test_malformed_entries_raise_value_error_naming_the_entry(self, case, edit, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            load_text(json.dumps(edit(valid_document())))

    def test_out_of_range_values_rejected(self):
        fclass = FiniteFunctionClass([lambda s: 1.5])
        with pytest.raises(ValueError, match="outside"):
            fclass.evaluate(0, points(1)[0])

    def test_class_size_cap(self):
        assert len(FiniteFunctionClass([lambda s: 0.0] * DEFAULT_MAX_CLASS_SIZE)) == DEFAULT_MAX_CLASS_SIZE
        with pytest.raises(ValueError, match="cap"):
            FiniteFunctionClass([lambda s: 0.0] * (DEFAULT_MAX_CLASS_SIZE + 1))


@settings(max_examples=300, deadline=None)
@given(text=mutated_documents())
def test_loader_fuzz_loads_or_raises_value_error(text):
    try:
        fclass = load_text(text)
    except ValueError:
        return
    for f in fclass.functions:  # anything that loads is well formed
        if isinstance(f, general_bbq.ThresholdRule):
            assert type(f.feature) is int and f.feature >= 0
            assert all(math.isfinite(v) for v in (f.cut, f.below, f.above))
        else:
            assert all(math.isfinite(v) for v in (f.default, *f.values.values()))
            assert all(type(k) is int for k in f.values)
    assert all(isinstance(name, str) for name in fclass.names)


# [0, 1] plus the tolerance band that is clamped, its edges drawn on purpose
unit_value = st.one_of(
    st.floats(-1e-9, 1.0 + 1e-9), st.sampled_from([-1e-9, -1e-10, -0.0, 0.0, 1.0, 1.0 + 1e-10, 1.0 + 1e-9])
)
coordinate = st.floats(-0.5, 0.5)  # up to 4 coordinates keep ||x|| <= 1


@st.composite
def rules_and_samples(draw):
    """Random threshold/table rules and samples, some lying exactly on a cut."""
    d = draw(st.integers(1, 4))
    cuts = draw(st.lists(coordinate, min_size=1, max_size=5))
    on_or_off_cut = st.one_of(st.sampled_from(cuts), coordinate)
    n = draw(st.integers(1, 20))
    ids = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True))
    samples = [
        LabeledSample(i, np.array(draw(st.lists(on_or_off_cut, min_size=d, max_size=d))), 1) for i in ids
    ]
    functions = []
    for j in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            functions.append({
                "name": f"r{j}", "type": "threshold", "feature": draw(st.integers(0, d - 1)),
                "cut": draw(st.sampled_from(cuts)), "below": draw(unit_value), "above": draw(unit_value),
            })
        else:
            keys = draw(st.lists(st.integers(0, 30), max_size=6))
            functions.append({
                "name": f"r{j}", "type": "table", "default": draw(unit_value),
                "values": {str(k): draw(unit_value) for k in keys},
            })
    return functions, samples


class TestColumnRules:
    @settings(max_examples=100, deadline=None)
    @given(case=rules_and_samples())
    def test_column_path_matches_per_sample_path(self, case):
        functions, samples = case
        fclass = rules_class(functions)
        assert fclass.value_matrix(samples).tobytes() == per_sample_values(fclass, samples).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(case=rules_and_samples(), data=st.data())
    def test_out_of_range_values_fail_alike_on_both_paths(self, case, data):
        functions, samples = case
        bad = functions[data.draw(st.integers(0, len(functions) - 1))]
        bad["below" if bad["type"] == "threshold" else "default"] = data.draw(st.sampled_from([1.5, -0.25]))
        fclass = rules_class(functions)
        assert outcome(lambda: fclass.value_matrix(samples)) == outcome(lambda: per_sample_values(fclass, samples))
        mixed = list(zip(fclass.functions, fclass.names))  # and with callables among the rules
        for k in range(data.draw(st.integers(1, 3))):
            bad_id = data.draw(st.sampled_from([s.sample_id for s in samples]))
            value = data.draw(st.sampled_from([1.5, -0.25, 1.0 + 1e-10]))
            call = (lambda b, v: lambda s: v if s.sample_id == b else 0.5)(bad_id, value)
            mixed.insert(data.draw(st.integers(0, len(mixed))), (call, f"c{k}"))
        fclass = FiniteFunctionClass([f for f, _ in mixed], names=[name for _, name in mixed])
        assert outcome(lambda: fclass.value_matrix(samples)) == outcome(lambda: per_sample_values(fclass, samples))

    def test_out_of_range_rule_reports_the_same_error(self):
        fclass = rules_class([
            {"name": "fine", "type": "table", "default": 0.5},
            {"name": "bad", "type": "threshold", "feature": 0, "cut": 0.0, "below": 1.5, "above": 0.5},
        ])
        message = "function bad returned 1.5, outside [0, 1]"
        with pytest.raises(ValueError) as column:
            fclass.value_matrix(points(3))
        with pytest.raises(ValueError) as one_by_one:
            per_sample_values(fclass, points(3))
        assert str(column.value) == str(one_by_one.value) == message
        mixed = FiniteFunctionClass([*fclass.functions, lambda s: 0.5], names=[*fclass.names, "c"])
        with pytest.raises(ValueError, match=re.escape(message)):
            mixed.value_matrix(points(3))

    def test_feature_past_the_sample_dimension_rejected_by_name(self):
        fclass = rules_class([
            {"name": "fine", "type": "table", "default": 0.5},
            {"name": "wide", "type": "threshold", "feature": 7, "cut": 0.0, "below": 0.0, "above": 1.0},
        ])
        mixed = FiniteFunctionClass([*fclass.functions, lambda s: 0.5], names=[*fclass.names, "c"])
        pool = points(3, d=3)
        for where, call in [
            ("value_matrix", lambda: fclass.value_matrix(pool)),  # rules only
            ("value_matrix", lambda: mixed.value_matrix(pool)),  # rules and a callable
            ("evaluate", lambda: fclass.evaluate(1, pool[0])),
            ("value_matrix", lambda: general_bbq_fit(pool, fclass)),
        ]:
            with pytest.raises(ValueError, match=f"^{where}: function wide reads feature 7 of 3-feature samples$"):
                call()
        assert fclass.evaluate(1, LabeledSample(0, np.zeros(8), 1)) == 0.0  # in range at d = 8

    @settings(max_examples=50, deadline=None)
    @given(case=rules_and_samples())
    def test_a_callable_row_is_evaluated_per_sample_and_matches(self, case):
        functions, samples = case
        rules = rules_class(functions)
        calls = []
        mixed = FiniteFunctionClass([*rules.functions, lambda s: calls.append(s) or 0.25])
        got = mixed.value_matrix(samples)
        assert len(calls) == len(samples)  # the callable saw every sample once
        assert got.tobytes() == per_sample_values(mixed, samples).tobytes()
        assert got[:-1].tobytes() == rules.value_matrix(samples).tobytes()

    @pytest.mark.parametrize("callable_first", [True, False])
    def test_first_bad_value_in_row_major_order_wins_in_a_mixed_class(self, callable_first):
        # the first row goes bad at sample 2, the second already at sample 0,
        # so a column-major scan would report the second row
        def rule(bad_id):
            return rules_class([{"name": "r", "type": "table", "default": 0.5, "values": {str(bad_id): -0.25}}])

        def spike(bad_id):
            return lambda s: 1.5 if s.sample_id == bad_id else 0.5

        if callable_first:
            mixed = FiniteFunctionClass([spike(2), *rule(0).functions], names=["c", "r"])
            message = "function c returned 1.5, outside [0, 1]"
        else:
            mixed = FiniteFunctionClass([*rule(2).functions, spike(0)], names=["r", "c"])
            message = "function r returned -0.25, outside [0, 1]"
        samples = points(4)
        assert outcome(lambda: mixed.value_matrix(samples)) == outcome(lambda: per_sample_values(mixed, samples))
        assert outcome(lambda: mixed.value_matrix(samples)) == message


def fit_repr(trace, pool_dim=ProjectedDimension(None, None)):
    """``repr`` of a fit's stage log, ERM and config, as recorded when the config
    also held the stage cap, the projected dimension the residual exit read and
    the stage count.  ``pool_dim`` is that projected dimension; an exhaustive
    fit computes none and passes nothing."""
    model, stage_log = trace
    cap = EXHAUST_STAGE_CAP if pool_dim.value is None else DEFAULT_STAGE_CAP
    config = (
        f"GeneralConfig(delta={model.config.delta!r}, rate_bound={model.config.rate_bound!r}, stage_cap={cap!r}, "
        f"pool_dim={pool_dim.value!r}, pool_dim_exact={pool_dim.exact!r}, n_stages={len(stage_log)!r})"
    )
    return f"({stage_log!r}, {model.f_hat!r}, {config})"


def digest(parts):
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def threshold_class_json(seed, d, n_functions):
    rng = np.random.default_rng([seed, 0x6C])
    return [
        {
            "name": f"t{j}", "type": "threshold", "feature": int(rng.integers(0, d)),
            "cut": float(rng.uniform(-0.5, 0.5)),
            "below": float(rng.uniform(0.0, 1.0)), "above": float(rng.uniform(0.0, 1.0)),
        }
        for j in range(n_functions)
    ]


class TestRecordedOutputs:
    """Outputs recorded from the per-sample evaluator and the full F x F gap tensor.

    Each digest is SHA-256 over the newline-joined ``repr`` strings, so any
    change to a stage log, a score, an ERM pick or a projected dimension
    breaks it.
    """

    def test_criterion_nine_instances(self):
        rng = np.random.default_rng(909)
        parts = []
        for _ in range(20):
            pool, fclass, _ = random_general_instance(rng, pool_max=200, class_max=32)
            trace = general_bbq_trace(pool, fclass)
            parts.append(fit_repr(trace, projected_dimension(fclass, pool)))
            m = trace[0]
            qids = sorted({s.sample_id for _, s in m.queried})
            if not qids:
                continue
            k = int(rng.integers(1, min(len(qids), 8) + 1))
            u = set(rng.choice(qids, size=k, replace=False).tolist())
            u |= set(rng.choice([s.sample_id for s in pool], size=min(5, len(pool)), replace=False).tolist())
            survivors = [s for _, s in m.queried if s.sample_id not in u]
            general_deletion_update(m, u, fclass)
            parts.append(repr((m.f_hat, sorted(general_state_of_system(m).stored_ids))))
            if survivors:
                fresh = general_bbq_trace(survivors, fclass, rate_bound=m.config.rate_bound, exhaust_pool=True)
                parts.append(fit_repr(fresh))
        assert digest(parts) == "2102343c5e59196c6eaadbba663e8de53b0b9dc11c36455f3055d225aa582fd3"

    def test_threshold_class_pools(self):
        # the benchmark's general-class inputs at seeds 1-3: 32 rules on d=5, 200 points
        parts = []
        for seed in (1, 2, 3):
            fclass = rules_class(threshold_class_json(seed, 5, 32))
            pool = gen_dataset(DatasetSpec(kind="realizable-linear", T=200, d=5, seed=seed)).samples
            trace = general_bbq_trace(pool, fclass)
            parts.append(fit_repr(trace, projected_dimension(fclass, pool)))
            m = trace[0]
            survivors = [s for _, s in m.queried][::2]
            fresh = general_bbq_trace(survivors, fclass, rate_bound=m.config.rate_bound, exhaust_pool=True)
            parts.append(fit_repr(fresh))
        assert digest(parts) == "cf5f02a66791bbc73e919924d7c1af9002a1f97d115e4837cfa99f82f4a39828"

    def test_projected_dimensions(self):
        rng = np.random.default_rng(910)
        parts = []
        for _ in range(8):
            fclass = random_function_class(rng, int(rng.integers(2, 9)), 3)
            n = int(rng.integers(1, 8))
            xs = unit_vectors(rng, n, 3)
            samples = [LabeledSample(i, xs[i], 1) for i in range(n)]
            for cap in (0, 8):
                parts.append(repr(dimension_with_exact_cap(cap, fclass, samples)))
        for _ in range(4):
            pool, fclass, _ = random_general_instance(rng, pool_max=120, class_max=32)
            parts.append(repr(dimension_with_exact_cap(0, fclass, pool)))
        assert digest(parts) == "478ab89dfa21afe1b335dde7e0b3f1f811c2506d45efc0e7d2f4f3eb880343ef"


def tie_heavy_instances():
    """Pools and classes on which many scores tie exactly.

    Rows are drawn with repetition from a few distinct points, sample ids run
    in descending or shuffled order against pool order, and each class
    repeats rules and holds constants, so the greedy picks and the stage
    loop keep meeting ties that only the pool-index or id tie-break decides.
    """
    rng = np.random.default_rng(911)
    for case in range(6):
        n = int(rng.integers(30, 61))
        distinct = unit_vectors(rng, int(rng.integers(3, 9)), 2)
        xs = distinct[rng.integers(0, len(distinct), n)]
        ids = rng.choice(1000, size=n, replace=False)
        ids = np.sort(ids)[::-1] if case % 2 == 0 else ids
        rules = [
            {"type": "threshold", "feature": int(rng.integers(0, 2)), "cut": float(rng.uniform(-0.5, 0.5)),
             "below": float(rng.choice([0.0, 0.25, 1.0])), "above": float(rng.choice([0.5, 0.75, 1.0]))}
            for _ in range(int(rng.integers(2, 5)))
        ]
        rules += rules[: 1 + case % 2]  # repeated rules: their pairs never disagree
        rules += [{"type": "table", "default": v} for v in (0.5, 0.5, float(rng.choice([0.0, 1.0])))]
        pool = [LabeledSample(int(i), x, int(rng.choice([-1, 1]))) for i, x in zip(ids, xs)]
        yield pool, rules_class(rules)


def test_tie_breaks_are_recorded():
    """Recorded before the pair kernel packed live points to the front: ties
    go to the smallest pool index in the greedy restarts and to the smallest
    sample id in the stage loop, never to a point's position in the kernel."""
    parts = []
    for pool, fclass in tie_heavy_instances():
        parts.append(fit_repr(general_bbq_trace(pool, fclass), projected_dimension(fclass, pool)))
        parts.append(fit_repr(general_bbq_trace(pool, fclass, exhaust_pool=True)))
        parts.append(repr(dimension_with_exact_cap(0, fclass, pool)))
    assert digest(parts) == "afea280a2f87d10a5ca8bce56e93e882195860decb2ced87135dc9d082d8e2d0"
