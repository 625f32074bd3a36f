import dataclasses
import functools
import hashlib
import math
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import ints_reachable, random_samples
from coreset_unlearn import (
    DatasetSpec,
    LabeledSample,
    bbq_fit,
    deletion_update,
    gen_dataset,
    load_model,
    predict,
    replay_on_coreset,
    ridge_retrain,
    save_model,
    state_of_system,
    system_states_equal,
)
from coreset_unlearn.baselines import weight_accuracy
from coreset_unlearn.bbq_linear import (
    _HEADER,
    MAX_MODEL_DIM,
    MODEL_MAGIC,
    MODEL_VERSION,
    SCREEN_BLOCK,
    SCREEN_SLACK,
    BBQParams,
    CoreSet,
    ModelFormatError,
    ModelState,
    encode_model,
)
from coreset_unlearn import bbq_linear, core_linalg
from coreset_unlearn.datastreams import DeletionDistribution, Rows, as_rows, deletion_stream, row_dtype
from coreset_unlearn.core_linalg import DEFAULT_REFRESH_PERIOD, GramState, leverage
from coreset_unlearn.verify import random_deletion_request, random_linear_instance, unit_vectors


def ones_stream(n):
    return [LabeledSample(i, [1.0], 1) for i in range(n)]


FORMS = ("samples", "rows")


def in_form(stream, form):
    """``stream`` (rows or a sample list) as the fit input ``form`` names."""
    if form == "rows":
        return as_rows(stream)
    return stream.samples if isinstance(stream, Rows) else list(stream)


def seeded_model():
    """A fixed model with free and core-set deletions behind it."""
    ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=400, d=4, seed=51))
    m = bbq_fit(ds.samples, cap_k=2.0, kappa=0.5)
    deletion_update(m, deletion_stream(ds, DeletionDistribution(kind="uniform"), 120, seed=52))
    return m


class TestFit:
    def test_sixteen_ones_queries_first_three(self):
        # threshold 16^-0.5 = 0.25; leverages run 1, 1/2, 1/3, then 1/4 which
        # fails the strict inequality
        m = bbq_fit(ones_stream(16), cap_k=1.0, kappa=0.5)
        assert [s.sample_id for s in m.coreset] == [0, 1, 2]
        assert m.params.query_threshold == pytest.approx(0.25)

    @pytest.mark.parametrize("form", FORMS)
    def test_boundary_leverage_does_not_query(self, form):
        # the state after the first three queries gives the fourth point a
        # leverage of exactly the threshold, so it is not stored
        m = bbq_fit(in_form(ones_stream(16), form), cap_k=1.0, kappa=0.5)
        assert leverage(m.gram_state, [1.0]) == 0.25
        assert 3 not in m.coreset_ids

    def test_zero_vectors_never_queried(self):
        stream = [LabeledSample(i, [0.0, 0.0], 1) for i in range(10)]
        m = bbq_fit(stream, cap_k=1.0, kappa=0.5)
        assert list(m.coreset) == []
        np.testing.assert_array_equal(m.weight, np.zeros(2))

    def test_gram_matches_direct_recomputation(self):
        rng = np.random.default_rng(28)
        ds, m = random_linear_instance(rng, t_max=500)
        direct = m.params.lam * np.eye(m.dim)
        for s in m.coreset:
            direct += np.outer(s.x, s.x)
        assert np.max(np.abs(m.gram_state.gram - direct)) < 1e-8

    @pytest.mark.parametrize(
        "empty",
        [[], as_rows([]), Rows(np.empty(0, np.uint64), np.empty((0, 3)), np.empty(0, np.int8))],
        ids=["samples", "rows", "rows of width 3"],
    )
    def test_empty_stream_needs_explicit_shape(self, empty):
        with pytest.raises(ValueError, match="^cannot infer horizon from an empty stream$"):
            bbq_fit(empty)
        with pytest.raises(ValueError, match="^cannot infer dim from an empty stream$"):
            bbq_fit(empty, horizon=100)
        m = bbq_fit(empty, cap_k=2.0, kappa=0.5, horizon=100, dim=3)
        assert list(m.coreset) == [] and m.dim == 3 and len(m.query_log) == 0

    def test_rows_of_another_width_than_dim_rejected(self):
        ds = gen_dataset(DatasetSpec(kind="margin", T=600, d=5, seed=3, gamma=0.1))
        for dim in (3, 6):
            with pytest.raises(ValueError, match=f"^dim {dim} does not match the rows' width 5$"):
                bbq_fit(ds, cap_k=2.0, dim=dim)
        with pytest.raises(ValueError, match=r"^expected vector of shape \(3,\), got \(5,\)$"):
            bbq_fit(ds.samples, cap_k=2.0, dim=3)  # the list path names both values too

    def test_invalid_hyperparameters(self):
        for cap_k in (0.5, math.nan, math.inf):  # a NaN cap_k would save a model that no load accepts
            with pytest.raises(ValueError):
                bbq_fit(ones_stream(4), cap_k=cap_k)
        with pytest.raises(ValueError):
            bbq_fit(ones_stream(4), kappa=1.5)

    def test_label_independent_query_sequence(self):
        rng = np.random.default_rng(12)
        ds, m = random_linear_instance(rng, t_max=600)
        flipped = [LabeledSample(s.sample_id, s.x, -s.y) for s in ds.samples]
        m2 = bbq_fit(flipped, cap_k=m.params.cap_k, kappa=m.params.kappa)
        assert [s.sample_id for s in m.coreset] == [s.sample_id for s in m2.coreset]

    @pytest.mark.parametrize("form", FORMS)
    def test_repeated_sample_id_rejected(self, form):
        queried_twice = [LabeledSample(0, [0.5], 1), LabeledSample(0, [0.1], -1)]
        never_queried_twice = ones_stream(16) + [LabeledSample(10, [1.0], 1)]
        for stream in (queried_twice, never_queried_twice):
            with pytest.raises(ValueError, match="^sample ids repeat within the stream$"):
                bbq_fit(in_form(stream, form), cap_k=1.0, kappa=0.5)

    def test_unqueried_labels_never_read(self):
        class SpySample:
            def __init__(self, sample_id, x, y):
                self.sample_id = sample_id
                self.x = np.asarray(x, dtype=np.float64)
                self._y = y
                self.reads = 0

            @property
            def y(self):
                self.reads += 1
                return self._y

        rng = np.random.default_rng(13)
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=400, d=5, seed=3))
        stream = [SpySample(s.sample_id, s.x, s.y) for s in ds.samples]
        m = bbq_fit(stream, cap_k=2.0, kappa=0.5)
        queried = {s.sample_id for s in m.coreset}
        for s in stream:
            assert s.reads == (1 if s.sample_id in queried else 0)

    def test_model_fields(self):
        # the model, its core set, the query log and the counters: no weights
        # from before a deletion, which depend on the deleted points, and no
        # second copy of the core set's ids
        assert [f.name for f in dataclasses.fields(ModelState)] == [
            "gram_state", "coreset", "params", "query_log", "free_deletions", "coreset_deletions",
        ]

    def test_coreset_ids_are_read_from_the_core_set(self):
        m = bbq_fit(random_samples(np.random.default_rng(14), 50, 3), cap_k=1.0)
        ids = m.coreset_ids
        ids.add(10**9)
        assert 10**9 not in m.coreset_ids and m.coreset_ids == {s.sample_id for s in m.coreset}
        m.coreset.pop()
        assert m.coreset_ids == {s.sample_id for s in m.coreset}


def fit_digest(m) -> str:
    """SHA-256 of the core-set ids in fit order and the bytes of the Gram state and weights."""
    h = hashlib.sha256()
    h.update(np.array([s.sample_id for s in m.coreset], dtype="<u8").tobytes())
    g = m.gram_state
    for a in (g.gram, g.gram_inv, g.b_vec, g.weight):
        h.update(a.tobytes())
    return h.hexdigest()


class TestSamplerDecisions:
    """The sampler's decisions and the exact state they leave, pinned."""

    # name: (stream, cap_k, kappa, fit_digest of the fitted model)
    INSTANCES = {
        "realizable-linear": (
            lambda: gen_dataset(DatasetSpec(kind="realizable-linear", T=3000, d=10, seed=61)),
            2.0, 0.5, "cba63ccaef8d7b9ea386c4da882b043f3de7b9f3f26b205640151b082e4b715f",
        ),
        "margin": (
            lambda: gen_dataset(DatasetSpec(kind="margin", T=3000, d=20, gamma=0.1, seed=62)),
            32.0, 0.5, "530a12b8d7ec027d0f7a4ff293f0f524d9b2b79da4c00a23e99e5be00e681964",
        ),
        "ones at the threshold": (
            lambda: ones_stream(16),
            1.0, 0.5, "72bf6c7b518fb80ec343c13d2e6c8418002f206f7f036c8be37fac1f71e1b5c9",
        ),
    }

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("name", list(INSTANCES))
    def test_state_is_pinned(self, name, form):
        make, cap_k, kappa, sha = self.INSTANCES[name]
        stream = in_form(make(), form)
        m = bbq_fit(stream, cap_k=cap_k, kappa=kappa)
        assert fit_digest(m) == sha
        assert len(m.query_log) == len(stream)

    def test_loaded_model_has_an_empty_log(self, tmp_path):
        m = bbq_fit(ones_stream(16), cap_k=1.0, kappa=0.5)
        save_model(m, tmp_path / "m.saul")
        assert len(load_model(tmp_path / "m.saul").query_log) == 0


@st.composite
def screened_streams(draw):
    """Rows with fit settings: short and ragged last blocks, duplicated rows, a
    first block that the screen flags whole, and empty rows of a given shape."""
    n = draw(st.one_of(st.integers(0, 3 * SCREEN_BLOCK + 20), st.sampled_from([1, 511, 512, 513, 1024])))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    all_flagged = draw(st.booleans())
    if all_flagged:
        # unit rows against threshold 1/T: every bound at the start is 1/cap_k = 1
        cap_k, kappa = 1.0, 1.0
        X = rng.standard_normal((n, d))
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-300)
    else:
        cap_k = draw(st.sampled_from([1.0, 2.0, 8.0, 32.0]))
        kappa = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
        X = unit_vectors(rng, n, d)
    n_dirs = draw(st.one_of(st.none(), st.integers(1, 4)))
    if n_dirs is not None and n:
        X = X[rng.integers(0, min(n_dirs, n), size=n)]  # exact duplicates under distinct ids
    ids = rng.permutation(10 * n + 1)[:n].astype(np.uint64)
    y = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    shape = {}
    if not n or draw(st.booleans()):
        shape = {"horizon": n + draw(st.integers(1 if not n else 0, 2000)), "dim": d}
    return Rows(ids, np.ascontiguousarray(X), y), cap_k, kappa, shape, all_flagged


class TestRowsFit:
    """A fit on rows screens them in blocks and gives the sample-list fit's model, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(screened_streams())
    def test_equals_the_sample_list_fit(self, case):
        rows, cap_k, kappa, shape, all_flagged = case
        via_rows = bbq_fit(rows, cap_k=cap_k, kappa=kappa, **shape)
        via_samples = bbq_fit(rows.samples, cap_k=cap_k, kappa=kappa, **shape)
        if all_flagged and len(rows):
            first = rows.X[:SCREEN_BLOCK]
            cut = via_rows.params.query_threshold * (1.0 - SCREEN_SLACK)
            assert np.all(((first @ (np.eye(via_rows.dim) / cap_k)) * first).sum(1) > cut)
        assert [s.sample_id for s in via_rows.coreset] == [s.sample_id for s in via_samples.coreset]
        assert encode_model(via_rows) == encode_model(via_samples)
        for name in ("gram", "gram_inv", "b_vec", "weight"):
            assert getattr(via_rows.gram_state, name).tobytes() == getattr(via_samples.gram_state, name).tobytes()
        assert via_rows.query_log == via_samples.query_log == range(len(rows))

    @settings(max_examples=80, deadline=None)
    @given(screened_streams())
    def test_mean_inverse_equals_full_state_replay(self, case):
        rows, cap_k, kappa, _, _ = case  # the mean runs over the rows' own length
        n, d = rows.X.shape
        mean_inverse = np.full((d, d), np.nan)
        if not n:
            with pytest.raises(ValueError, match="nonempty rows"):
                bbq_fit(rows, cap_k, kappa, horizon=1, dim=d, mean_inverse=mean_inverse)
            return
        model = bbq_fit(rows, cap_k, kappa, mean_inverse=mean_inverse)
        assert encode_model(model) == encode_model(bbq_fit(rows, cap_k=cap_k, kappa=kappa))
        # the mean pre-step inverse by stepping the full state through rank_one_update
        positions = np.flatnonzero(np.isin(rows.ids, np.fromiter(model.coreset.ids(), dtype=np.uint64)))
        state = core_linalg.gram_init(d, cap_k)
        total = np.zeros((d, d))
        runs = np.diff(positions, prepend=-1, append=n - 1).tolist()
        for run, s in zip(runs, model.coreset):
            total += run * state.gram_inv
            core_linalg.rank_one_update(state, s.x, s.y)
        if runs[-1]:
            total += runs[-1] * state.gram_inv
        assert state.gram_inv.tobytes() == model.gram_state.gram_inv.tobytes()
        assert mean_inverse.tobytes() == (total / n).tobytes()
        if not model.coreset:  # every row saw the initial inverse
            assert mean_inverse.tobytes() == (n * (np.eye(d) / cap_k) / n).tobytes()

    def test_mean_inverse_is_a_checked_out_array(self):
        rows = gen_dataset(DatasetSpec(kind="realizable-linear", T=600, d=4, seed=5))
        out = np.full((4, 4), np.nan)
        model = bbq_fit(rows, 4.0, 0.5, mean_inverse=out)
        plain = bbq_fit(rows, 4.0, 0.5)
        assert encode_model(model) == encode_model(plain)
        for name in ("gram", "gram_inv", "b_vec", "weight"):
            assert getattr(model.gram_state, name).tobytes() == getattr(plain.gram_state, name).tobytes()
        assert np.isfinite(out).all()
        read_only = np.empty((4, 4))
        read_only.flags.writeable = False
        for stream, bad in ((rows.samples, out), (rows, out.tolist())):
            with pytest.raises(TypeError, match="needs Rows and an ndarray"):
                bbq_fit(stream, 4.0, 0.5, mean_inverse=bad)
        for bad in (np.empty((3, 3)), np.empty((4, 4), np.float32), np.empty((4, 4), np.int64), read_only):
            with pytest.raises(ValueError, match="writable float64"):
                bbq_fit(rows, 4.0, 0.5, mean_inverse=bad)
        with pytest.raises(ValueError, match="nonempty rows"):
            bbq_fit(rows.take(np.arange(0)), 4.0, 0.5, horizon=10, dim=4, mean_inverse=out)

    def test_certified_rows_cost_no_leverage_call(self, monkeypatch):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=2000, d=10, seed=71))
        calls = {"_exact_leverage": 0, "update_with_product": 0}  # per flagged row, per query

        def counted(name):
            fn = getattr(bbq_linear, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(bbq_linear, name, counted(name))
        m = bbq_fit(ds, cap_k=10.0, kappa=0.5)
        assert calls["update_with_product"] == len(m.coreset) > 0
        assert len(m.coreset) <= calls["_exact_leverage"] < len(ds) // 2
        assert "samples" not in vars(ds)  # no sample is built for a row the fit does not store
        assert all(s.x.base is None for s in m.coreset)  # each stored sample owns its row

    def test_rows_are_checked_as_samples_are(self):
        rows = as_rows(ones_stream(4))
        rows.y[2] = 0
        with pytest.raises(ValueError, match="^row 2: label must be -1 or \\+1, got 0$"):
            bbq_fit(rows, cap_k=1.0)
        rows.y[2], rows.X[3] = 1, 2.0
        with pytest.raises(ValueError, match="^row 3: "):
            bbq_fit(rows, cap_k=1.0)


class TestPredict:
    def test_tie_breaks_positive(self):
        m = bbq_fit(ones_stream(4), cap_k=1.0, kappa=0.0)  # threshold 1, nothing queried
        assert predict(m, [0.5]) == 1

    def test_scalar_signs(self):
        m = bbq_fit(ones_stream(16), cap_k=1.0, kappa=0.5)
        assert predict(m, [1.0]) == 1
        assert predict(m, [-1.0]) == -1

    def test_dimension_mismatch(self):
        m = bbq_fit(ones_stream(16), cap_k=1.0, kappa=0.5)
        with pytest.raises(ValueError):
            predict(m, [1.0, 0.0])

    def test_accuracy_close_to_full_ridge(self):
        train = gen_dataset(DatasetSpec(kind="realizable-linear", T=20_000, d=20, seed=21))
        test = gen_dataset(DatasetSpec(kind="realizable-linear", T=4_000, d=20, seed=22, u=tuple(train.u)))
        m = bbq_fit(train.samples, cap_k=32.0, kappa=0.5)
        full = ridge_retrain(train.samples, lam=1.0)
        acc_m = weight_accuracy(m.weight, test.samples)
        acc_full = weight_accuracy(full, test.samples)
        assert acc_m >= acc_full - 0.02


class TestDeletion:
    def test_outside_coreset_is_free(self):
        rng = np.random.default_rng(14)
        ds, m = random_linear_instance(rng, t_max=500)
        outside = [s.sample_id for s in ds.samples if s.sample_id not in m.coreset_ids][:5]
        gram_before = m.gram_state.gram.copy()
        w_before = m.weight.copy()
        deletion_update(m, outside)
        np.testing.assert_array_equal(m.gram_state.gram, gram_before)
        np.testing.assert_array_equal(m.weight, w_before)
        assert m.free_deletions == 5 and m.coreset_deletions == 0

    def test_delete_entire_coreset_resets(self):
        rng = np.random.default_rng(15)
        ds, m = random_linear_instance(rng, t_max=500)
        lam = m.params.lam
        deletion_update(m, set(m.coreset_ids))
        np.testing.assert_allclose(m.gram_state.gram, lam * np.eye(m.dim), atol=1e-8)
        np.testing.assert_allclose(m.weight, np.zeros(m.dim), atol=1e-8)
        assert list(m.coreset) == []

    def test_deletion_order_does_not_matter(self):
        rng = np.random.default_rng(17)
        ds, m = random_linear_instance(rng, t_max=600)
        core = sorted(m.coreset_ids)
        if len(core) < 4:
            pytest.skip("instance queried too little")
        u1, u2 = {core[0], core[2]}, {core[1], core[3]}
        a = deletion_update(replay_on_coreset(m, set()), u1)
        deletion_update(a, u2)
        b = deletion_update(replay_on_coreset(m, set()), u2)
        deletion_update(b, u1)
        assert system_states_equal(state_of_system(a), state_of_system(b))

    def test_unqueried_leverage_bounded_after_deletions(self):
        # with lam = K and fewer than K deletions, unqueried leverage stays
        # within e times the query threshold
        rng = np.random.default_rng(18)
        for _ in range(10):
            ds, m = random_linear_instance(rng, t_max=800)
            k = int(m.params.cap_k)
            victims = [s.sample_id for s in m.coreset[: max(k - 1, 0)]]
            if not victims:
                continue
            queried = set(m.coreset_ids)
            deletion_update(m, set(victims))
            limit = np.e * m.params.horizon ** (-m.params.kappa)
            for s in ds.samples:
                if s.sample_id in queried:
                    continue
                assert leverage(m.gram_state, s.x) <= limit + 1e-9


ID_OFFSET = 10**6  # above the horizon, the dimension and every counter, so an int that is an id is one


class TestStoredState:
    def test_model_holds_no_id_outside_its_core_set(self):
        rng = np.random.default_rng(44)
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=2000, d=6, seed=44))
        stream = [LabeledSample(s.sample_id + ID_OFFSET, s.x, s.y) for s in ds.samples]
        stream_ids = {s.sample_id for s in stream}
        m = bbq_fit(stream, cap_k=2.0, kappa=0.5)
        assert ints_reachable(m) & stream_ids == m.coreset_ids
        core, never = sorted(m.coreset_ids), sorted(stream_ids - m.coreset_ids)
        requests = rng.choice(core, size=len(core) // 2, replace=False).tolist()
        requests += rng.choice(never, size=50, replace=False).tolist()
        requests = rng.permutation(requests).tolist()
        while requests:  # batches of 1-3 ids, core-set and never-queried mixed
            k = int(rng.integers(1, 4))
            deletion_update(m, requests[:k])
            requests = requests[k:]
        assert m.coreset_deletions == len(core) // 2 and m.free_deletions == 50
        assert ints_reachable(m) & stream_ids == m.coreset_ids == {s.sample_id for s in m.coreset}


class TestCoreSet:
    def test_the_kept_surface(self):
        items = random_samples(np.random.default_rng(40), 6, 3)
        cs = CoreSet(items[:5])
        assert len(cs) == 5 and list(cs) == items[:5] and not CoreSet() and cs
        assert cs[1:4] == items[1:4] and cs[::-2] == items[4::-2] and cs[:0] == []
        for index in (0, -1, 5):
            with pytest.raises(TypeError, match="by_id"):
                cs[index]
        assert not hasattr(cs, "in_fit_order") and CoreSet.__eq__ is object.__eq__
        cs.append(items[5])
        assert len(cs) == 6 and cs[-1:] == [items[5]]
        assert cs.pop() is items[5] and list(cs) == items[:5]
        with pytest.raises(ValueError, match="already"):
            cs.append(items[0])
        assert cs.by_id(items[3].sample_id) is items[3]
        ids = cs.ids()
        assert list(ids) == [s.sample_id for s in items[:5]]
        assert cs.remove(items[1].sample_id) is items[1]
        assert list(cs) == [items[0]] + items[2:5]
        assert list(ids) == [s.sample_id for s in cs]  # a live view, not a copy
        assert items[0].sample_id in cs and items[1].sample_id not in cs and 10**9 not in cs

    def test_fit_order_kept_after_deletions(self):
        rng = np.random.default_rng(41)
        ds, m = random_linear_instance(rng, t_max=800)
        fitted = [s.sample_id for s in m.coreset]
        gone = set()
        for _ in range(3):
            u = random_deletion_request(rng, ds, m)
            deletion_update(m, u)
            gone |= u
            survivors = [sid for sid in fitted if sid not in gone]
            assert [s.sample_id for s in m.coreset] == survivors
            assert m.coreset_ids == set(survivors)
        for sid in m.coreset_ids & {fitted[-1], fitted[len(fitted) // 2]}:
            deletion_update(m, [sid])
            gone.add(sid)
        assert [s.sample_id for s in m.coreset] == [sid for sid in fitted if sid not in gone]

    def test_batch_equals_single_deletions_in_fit_order(self, monkeypatch):
        # a short refresh period puts inverse refreshes inside the batch, so
        # the order of the downdates shows in the bits
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=3000, d=6, seed=42))
        batch, single = (bbq_fit(ds.samples, cap_k=2.0, kappa=0.5) for _ in range(2))
        monkeypatch.setattr(core_linalg, "DEFAULT_REFRESH_PERIOD", 8)
        fit_order = [s.sample_id for s in batch.coreset]
        rng = np.random.default_rng(43)
        hits = set(rng.choice(fit_order, size=30, replace=False).tolist())
        outsiders = {s.sample_id for s in ds.samples[:200]} - batch.coreset_ids
        deletion_update(batch, hits | outsiders)
        for sid in fit_order:
            if sid in hits:
                deletion_update(single, [sid])
        deletion_update(single, outsiders)
        for name in ("gram", "gram_inv", "b_vec", "weight"):
            assert getattr(batch.gram_state, name).tobytes() == getattr(single.gram_state, name).tobytes()
        assert batch.gram_state.downdates_since_refresh == single.gram_state.downdates_since_refresh
        assert (batch.coreset_deletions, batch.free_deletions) == (single.coreset_deletions, single.free_deletions)
        assert list(batch.coreset) == list(single.coreset) and batch.coreset_ids == single.coreset_ids

    def test_single_deletions_never_iterate_the_core_set(self, monkeypatch):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=2000, d=5, seed=44))
        m = bbq_fit(ds.samples, cap_k=2.0, kappa=0.5)
        core = [s.sample_id for s in m.coreset]
        outsider = next(s.sample_id for s in ds.samples if s.sample_id not in m.coreset_ids)

        def no_scan(self, *args):
            raise AssertionError("deletion_update scanned the core set")

        class UnscannedIds:
            """The stored ids, open to one intersection and closed to a scan."""

            def __init__(self, keys):
                self.keys = keys

            def __and__(self, other):
                return self.keys & other

            __iter__ = no_scan

        ids = CoreSet.ids
        monkeypatch.setattr(CoreSet, "ids", lambda self: UnscannedIds(ids(self)))
        monkeypatch.setattr(CoreSet, "__iter__", no_scan)
        monkeypatch.setattr(CoreSet, "__getitem__", no_scan)
        for sid in (core[len(core) // 2], outsider, core[0], core[-1]):
            deletion_update(m, [sid])
        deletion_update(m, {core[1], outsider + 10**6})  # one hit and one free request
        assert (m.coreset_deletions, m.free_deletions) == (4, 2)
        monkeypatch.undo()
        assert [s.sample_id for s in m.coreset] == core[2 : len(core) // 2] + core[len(core) // 2 + 1 : -1]


class TestSamples:
    def test_public_constructor_validates(self):
        for x in ([1.0, 1.0], [np.nan, 0.0]):
            with pytest.raises(ValueError, match="exceeds 1"):
                LabeledSample(1, x, 1)
        with pytest.raises(ValueError, match="label"):
            LabeledSample(2, [0.5, 0.0], 0)
        s = LabeledSample(3, [0.5, 0.0], -1)
        assert s.x.dtype == np.float64 and not hasattr(s, "__dict__")

    @pytest.mark.parametrize("sid", [1.5, "7", None, -1, 2**64], ids=["float", "str", "none", "negative", "2**64"])
    def test_ids_the_row_format_cannot_hold_rejected(self, sid):
        with pytest.raises(ValueError, match=rf"^sample {sid!r}: id must be an integer in \[0, 2\*\*64\)$"):
            LabeledSample(sid, [0.5, 0.0], 1)

    def test_integer_ids_are_stored_as_int_and_round_trip(self, tmp_path):
        ids, xs = (np.uint64(2**64 - 1), np.int8(0), True), ([0.9, 0.0], [0.0, 0.9], [0.6, 0.6])
        samples = [LabeledSample(sid, x, 1) for sid, x in zip(ids, xs)]
        assert [(type(s.sample_id), s.sample_id) for s in samples] == [(int, 2**64 - 1), (int, 0), (int, 1)]
        model = bbq_fit(samples, cap_k=1.0, kappa=1.0)
        assert model.coreset_ids == {2**64 - 1, 0, 1}
        save_model(model, tmp_path / "m.saul")
        assert load_model(tmp_path / "m.saul").coreset_ids == model.coreset_ids

    def test_equality_compares_id_label_and_features(self):
        s = LabeledSample(3, [0.5, 0.0], -1)
        assert s == LabeledSample(3, [0.5, 0.0], -1)
        assert s != LabeledSample(3, [0.5, 0.1], -1)
        assert s != LabeledSample(4, [0.5, 0.0], -1)
        assert s != LabeledSample(3, [0.5, 0.0], 1)


class TestReplay:
    def test_monotone_requery_random(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            ds, m = random_linear_instance(rng, t_max=800)
            core = sorted(m.coreset_ids)
            if not core:
                continue
            k = int(rng.integers(1, min(len(core), 10) + 1))
            u = set(rng.choice(core, size=k, replace=False).tolist())
            replay = replay_on_coreset(m, u)
            assert replay.coreset_ids == m.coreset_ids - u

    def test_monotone_requery_near_duplicate_directions(self):
        # clustered directions: many near-identical x's stress the requery
        # property because deletions free up almost-queried leverage
        rng = np.random.default_rng(22)
        for trial in range(10):
            centers = rng.standard_normal((3, 6))
            centers /= np.linalg.norm(centers, axis=1, keepdims=True)
            xs = []
            for i in range(300):
                c = centers[int(rng.integers(3))]
                x = c + 0.01 * rng.standard_normal(6)
                xs.append(x / max(np.linalg.norm(x), 1.0))
            stream = [LabeledSample(i, x, int(rng.choice([-1, 1]))) for i, x in enumerate(xs)]
            m = bbq_fit(stream, cap_k=1.0, kappa=0.5)
            core = sorted(m.coreset_ids)
            if not core:
                continue
            u = set(rng.choice(core, size=min(4, len(core)), replace=False).tolist())
            replay = replay_on_coreset(m, u)
            assert replay.coreset_ids == m.coreset_ids - u


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(23)
        ds, m = random_linear_instance(rng, t_max=400)
        p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        save_model(m, p1)
        loaded = load_model(p1)
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(loaded.weight, m.weight)
        np.testing.assert_array_equal(loaded.gram_state.gram, m.gram_state.gram)
        assert [s.sample_id for s in loaded.coreset] == [s.sample_id for s in m.coreset]
        assert list(loaded.coreset) == list(m.coreset)

    # SHA-256 of save_model(seeded_model()) in format version 2.  Its records
    # region is byte-identical to the records region of the version-1 file,
    # whose SHA-256 is RECORDS_SHA256 (numpy 2.4, OpenBLAS, x86-64).
    SEEDED_MODEL_SHA256 = "d91581d2eb4ef22c881b5e0d65a5ecdcd5833683b1696398e0419159e5a612d7"
    RECORDS_SHA256 = "ced4e2ce10f44c4e68db841c72f3f7e3b71d34f333862cc1a2f5cbc7e43b912d"

    def test_seeded_model_bytes_and_roundtrip(self, tmp_path):
        m = seeded_model()
        assert (len(m.coreset), m.coreset_deletions, m.free_deletions) == (65, 27, 93)
        path = tmp_path / "m.saul"
        save_model(m, path)
        blob = path.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == self.SEEDED_MODEL_SHA256
        assert hashlib.sha256(blob[_HEADER.size :]).hexdigest() == self.RECORDS_SHA256
        assert (m.coreset_deletions, m.free_deletions) == (27, 93)  # a save keeps the counters in memory
        loaded = load_model(path)
        for name in ("gram", "gram_inv", "b_vec", "weight"):
            assert getattr(loaded.gram_state, name).tobytes() == getattr(m.gram_state, name).tobytes()
        assert loaded.params == m.params and loaded.coreset_ids == m.coreset_ids
        assert (loaded.coreset_deletions, loaded.free_deletions) == (0, 0)
        assert loaded.gram_state.downdates_since_refresh == m.gram_state.downdates_since_refresh == 0
        for a, b in zip(loaded.coreset, m.coreset, strict=True):
            assert type(a) is LabeledSample and (a.sample_id, a.y) == (b.sample_id, b.y)
            assert type(a.sample_id) is int and type(a.y) is int
            assert a.x.tobytes() == b.x.tobytes() and a.x.flags.owndata

    def test_saved_state_is_the_fresh_fit_state(self, tmp_path):
        m = seeded_model()
        incremental = m.gram_state.copy()
        save_model(m, tmp_path / "m.saul")
        fresh = replay_on_coreset(m, [])
        np.testing.assert_allclose(m.gram_state.gram, fresh.gram_state.gram, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.weight, fresh.weight, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.weight, incremental.weight, rtol=0, atol=1e-12)
        assert m.gram_state.downdates_since_refresh == 0

    @staticmethod
    def _tampered(tmp_path, edit):
        """Save the seeded model, let ``edit`` change its parts in place, write it back."""
        m = seeded_model()
        path = tmp_path / "m.saul"
        save_model(m, path)
        blob = path.read_bytes()
        head = list(_HEADER.unpack_from(blob, 0))
        records = np.frombuffer(blob, dtype=row_dtype(m.dim), offset=_HEADER.size).copy()
        edit({"head": head, "records": records})
        path.write_bytes(_HEADER.pack(*head) + records.tobytes())
        return path, m

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p: p["records"]["id"].__setitem__(1, p["records"]["id"][0]), "duplicate"),
            (lambda p: p["records"]["x"].__setitem__((3, 0), np.inf), "exceeds 1"),
            (lambda p: p["records"]["y"].__setitem__(3, 0), "label"),
            (lambda p: p["records"]["x"].__setitem__(3, [1.0, 1.0, 0.0, 0.0]), "exceeds 1"),
            (lambda p: p["head"].__setitem__(4, float("nan")), "non-finite kappa"),
            (lambda p: p["head"].__setitem__(5, 0.5), "invalid model parameters"),
        ],
        ids=["duplicate-id", "inf-record", "label-0", "norm-above-1", "nan-kappa", "cap_k-below-1"],
    )
    def test_inconsistent_payload_rejected(self, tmp_path, edit, match):
        with pytest.raises(ModelFormatError, match=match):
            load_model(self._tampered(tmp_path, edit)[0])

    def test_untampered_payload_loads(self, tmp_path):
        path, m = self._tampered(tmp_path, lambda p: None)
        loaded = load_model(path)
        assert [s.sample_id for s in loaded.coreset] == [s.sample_id for s in m.coreset]
        assert loaded.weight.tobytes() == m.weight.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 100)
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(24)
        ds, m = random_linear_instance(rng, t_max=300)
        path = tmp_path / "m.bin"
        save_model(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(ModelFormatError, match="bytes"):
            load_model(path)

    def test_unsupported_version_rejected(self, tmp_path):
        rng = np.random.default_rng(25)
        ds, m = random_linear_instance(rng, t_max=300)
        path = tmp_path / "m.bin"
        save_model(m, path)
        blob = bytearray(path.read_bytes())
        for version in (1, 9):  # 1: the format that stored the Gram state and deletion counters
            blob[5] = version
            path.write_bytes(bytes(blob))
            with pytest.raises(ModelFormatError, match=f"unsupported model version {version}"):
                load_model(path)

    @pytest.mark.parametrize("dim, n_coreset", [(2**31, 1), (16384, 0), (MAX_MODEL_DIM + 1, 0), (0, 0)])
    def test_out_of_bound_dim_rejected_before_allocation(self, tmp_path, dim, n_coreset):
        # a header alone: (16384, 0) is a consistent 42-byte file whose d x d
        # Gram state would take 2 GiB, and 2**31 is no valid numpy shape
        path = tmp_path / "m.bin"
        path.write_bytes(_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, dim, 10, 0.5, 2.0, n_coreset))
        with pytest.raises(ModelFormatError, match=f"dimension {dim} "):
            load_model(path)

    def test_save_rejects_out_of_bound_dim(self, tmp_path):
        # the Gram state is never read before the bound, so it need not be allocated
        g = GramState(dim=MAX_MODEL_DIM + 1, lam=2.0, gram=None, gram_inv=None, b_vec=None, weight=None)
        m = ModelState(g, CoreSet(), BBQParams(horizon=10, kappa=0.5, cap_k=2.0), [])
        with pytest.raises(ModelFormatError, match=f"dimension {MAX_MODEL_DIM + 1} "):
            save_model(m, tmp_path / "m.bin")
        assert not (tmp_path / "m.bin").exists()

    def test_failed_save_leaves_existing_file_intact(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(27)
        ds, m = random_linear_instance(rng, t_max=300)
        path = tmp_path / "m.bin"
        save_model(m, path)
        before = path.read_bytes()
        deletion_update(m, list(m.coreset_ids)[:1])

        def failing_replace(src, dst):
            raise OSError("simulated failure before the rename")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="simulated"):
            save_model(m, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.bin"]

    def test_deletions_survive_roundtrip(self, tmp_path):
        rng = np.random.default_rng(26)
        ds, m = random_linear_instance(rng, t_max=400)
        u = random_deletion_request(rng, ds, m)
        deletion_update(m, u)
        path = tmp_path / "m.bin"
        save_model(m, path)
        loaded = load_model(path)
        assert not loaded.coreset_ids & u
        assert (loaded.coreset_deletions, loaded.free_deletions) == (0, 0)
        assert loaded.gram_state.downdates_since_refresh == 0
        assert system_states_equal(state_of_system(loaded), state_of_system(m), tol=0.0)


# A small fitted stream whose core set is a large share of it, so that drawn
# requests hit the core set often; a refresh period of 3 puts inverse
# refreshes inside the longer deletion chains.
_STREAM = gen_dataset(DatasetSpec(kind="realizable-linear", T=150, d=5, seed=60))
_IDS = [s.sample_id for s in _STREAM.samples]


@settings(max_examples=60, deadline=None)
@given(
    requests=st.lists(
        st.lists(st.sampled_from(_IDS), min_size=1, max_size=6, unique=True), max_size=12
    ),
    refresh_period=st.sampled_from([3, DEFAULT_REFRESH_PERIOD]),
)
def test_saved_bytes_equal_a_fresh_fit_on_the_survivors(requests, refresh_period):
    """After any deletion stream the file says no more than a fresh fit on the survivors."""
    m = bbq_fit(_STREAM.samples, cap_k=1.0, kappa=0.5)
    with mock.patch.object(core_linalg, "DEFAULT_REFRESH_PERIOD", refresh_period):
        for ids in requests:
            deletion_update(m, ids)
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")
        save_model(m, a)
        save_model(replay_on_coreset(m, []), b)
        assert a.read_bytes() == b.read_bytes()
        loaded = load_model(a)
    for name in ("gram", "gram_inv", "b_vec", "weight"):
        assert getattr(loaded.gram_state, name).tobytes() == getattr(m.gram_state, name).tobytes()


def _load_bytes(blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "m.saul")
        path.write_bytes(blob)
        loaded = load_model(path)
        save_model(loaded, path)
        return path.read_bytes()


def _loads_or_rejects(blob: bytes) -> None:
    """The parser's contract: a typed rejection, or a model that saves back to the same bytes."""
    try:
        again = _load_bytes(blob)
    except ModelFormatError:
        return
    assert again == blob


class TestParserFuzz:
    @staticmethod
    @functools.cache
    def blob() -> bytes:
        with tempfile.TemporaryDirectory() as tmp:
            save_model(seeded_model(), Path(tmp, "m.saul"))
            return Path(tmp, "m.saul").read_bytes()

    def test_every_truncation_rejected(self):
        blob = self.blob()
        for n in range(len(blob)):
            with pytest.raises(ModelFormatError):
                _load_bytes(blob[:n])
        assert _load_bytes(blob) == blob
        with pytest.raises(ModelFormatError, match="bytes"):
            _load_bytes(blob + b"\x00")

    def test_every_header_bit_flip(self):
        blob = self.blob()
        for bit in range(8 * _HEADER.size):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            _loads_or_rejects(bytes(flipped))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_record_bit_flips(self, data):
        blob = bytearray(self.blob())
        for bit in data.draw(st.lists(st.integers(8 * _HEADER.size, 8 * len(blob) - 1), min_size=1, max_size=3)):
            blob[bit // 8] ^= 1 << (bit % 8)
        _loads_or_rejects(bytes(blob))

    @settings(max_examples=200, deadline=None)
    @given(
        version=st.just(MODEL_VERSION) | st.integers(0, 255),
        dim=st.integers(0, 2**32 - 1) | st.integers(0, 12),
        n_coreset=st.integers(0, 2**64 - 1) | st.integers(0, 100),
    )
    def test_lying_header_fields(self, version, dim, n_coreset):
        head = list(_HEADER.unpack_from(self.blob(), 0))
        head[1], head[2], head[6] = version, dim, n_coreset
        _loads_or_rejects(_HEADER.pack(*head) + self.blob()[_HEADER.size :])

    def test_huge_finite_record_rejected_without_a_warning(self):
        # the norm of a 1e200 coordinate overflows; the record must still fail
        # its norm check with the typed error, and numpy must not warn
        blob = bytearray(self.blob())
        dim = _HEADER.unpack_from(blob, 0)[2]
        records = np.frombuffer(blob, dtype=row_dtype(dim), offset=_HEADER.size).copy()
        records[3]["x"][0] = 1e200
        blob[_HEADER.size :] = records.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelFormatError, match="exceeds 1"):
                _load_bytes(bytes(blob))
