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

from instances import GRAM_FIELDS, assert_same_state_bits, assert_state_from_coreset, ints_reachable, random_samples
from coreset_unlearn import (
    DatasetSpec,
    ExperimentConfig,
    LabeledSample,
    bbq_fit,
    deletion_update,
    expected_capacity_mc,
    gen_dataset,
    load_model,
    predict,
    replay_on_coreset,
    ridge_retrain,
    run_experiment,
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
    bbq_fit_orders,
    encode_model,
)
from coreset_unlearn import bbq_linear, core_linalg, datastreams, verify
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

    @pytest.mark.parametrize("kappa,stores", [(0.0, False), (0.25, False), (0.4178, False), (0.4179, True), (0.5, True)])
    def test_a_threshold_at_the_largest_leverage_queries_nothing(self, kappa, stores):
        # the first point of a unit-norm stream has the largest leverage, 1/cap_k; the floor at T=4000,
        # cap_k 32 is kappa = ln 32 / ln 4000 = 0.41786
        params = BBQParams(horizon=4000, kappa=kappa, cap_k=32.0)
        assert params.largest_leverage == (1.0 + core_linalg.NORM_SLACK) ** 2 / 32.0
        assert (params.query_threshold >= params.largest_leverage) is not stores
        X = unit_vectors(np.random.default_rng(41), 4000, 5)
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        rows = Rows(ids=np.arange(4000, dtype=np.uint64), X=X, y=np.ones(4000, dtype=np.int8))
        assert (len(bbq_fit(rows, cap_k=32.0, kappa=kappa).coreset) > 0) is stores

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
        # a fractional horizon is refused: its model could not be saved, and a fit would run at int(horizon)
        with pytest.raises(ValueError, match="^horizon must be an integer, got 250.5$"):
            BBQParams(horizon=250.5, kappa=0.5, cap_k=2.0)
        with pytest.raises(ValueError, match="^horizon must be an integer, got 250.9$"):
            bbq_fit(ones_stream(4), horizon=250.9)
        assert type(BBQParams(horizon=np.int64(250), kappa=0.5, cap_k=2.0).horizon) is int

    def test_label_independent_query_sequence(self):
        rng = np.random.default_rng(12)
        ds, m = random_linear_instance(rng, t_max=600)
        flipped = [LabeledSample(s.sample_id, s.x, -s.y) for s in ds.samples]
        m2 = bbq_fit(flipped, cap_k=m.params.cap_k, kappa=m.params.kappa)
        assert [s.sample_id for s in m.coreset] == [s.sample_id for s in m2.coreset]

    @pytest.mark.parametrize("form", FORMS)
    def test_repeated_sample_id_rejected(self, form):
        # a sample list is refused by the fit; rows are refused when built, so no fit sees them; one message
        match = "^duplicate sample ids$"
        queried_twice = [LabeledSample(0, [0.5], 1), LabeledSample(0, [0.1], -1)]
        never_queried_twice = ones_stream(16) + [LabeledSample(10, [1.0], 1)]
        for stream in (queried_twice, never_queried_twice):
            with pytest.raises(ValueError, match=match):
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
            2.0, 0.5, "a69c2f9d3e3181422976de9d319f9782acfdc768e35475d23490ac5e234fb592",
        ),
        "margin": (
            lambda: gen_dataset(DatasetSpec(kind="margin", T=3000, d=20, gamma=0.1, seed=62)),
            32.0, 0.5, "98db57076d6aae9b6e87cf044c3908c09dded80a20fa4a28368fa79942395e9b",
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


def assert_same_fit(got, want):
    """``got`` is the fit ``want``: its stored ids in fit order, its file bytes and its state bits."""
    assert list(got.coreset.ids()) == list(want.coreset.ids())
    assert encode_model(got) == encode_model(want)
    assert_same_state_bits(got.gram_state, want.gram_state)
    assert got.params == want.params and got.query_log == want.query_log


def full_state_mean(rows, model) -> np.ndarray:
    """The mean over ``rows``, in their order, of the inverse each is tested against, with the full
    state stepped through ``rank_one_update`` at each of ``model``'s stored rows: a fit's mean, by replay."""
    n, d = rows.X.shape
    positions = np.flatnonzero(np.isin(rows.ids, np.fromiter(model.coreset.ids(), dtype=np.uint64)))
    state, total = core_linalg.gram_init(d, model.params.lam), np.zeros((d, d))
    runs = np.diff(positions, prepend=-1, append=n - 1).tolist()
    for run, s in zip(runs, model.coreset):
        total += run * state.gram_inv
        core_linalg.rank_one_update(state, s.x, s.y)
    if runs[-1]:
        total += runs[-1] * state.gram_inv
    return total / n


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


def spread_rows(rng, n, d, id_step=1, distinct=None):
    """``n`` rows of norm in [0.5, 1]; with ``distinct``, each a copy of one of the first ``distinct``."""
    X = unit_vectors(rng, n, d) * rng.uniform(0.5, 1.0, (n, 1))
    if distinct is not None:
        X = X[rng.integers(0, distinct, size=n)]
    return Rows(np.arange(n, dtype=np.uint64) * id_step, X, rng.choice(np.array([-1, 1], dtype=np.int8), size=n))


def shuffled(t, n, d, distinct=None):
    rng = np.random.default_rng(n + d)
    rows = spread_rows(rng, n, d, 3, distinct)
    return rows, np.stack([rng.permutation(n) for _ in range(t)])


def forward_and_back(n, d):
    return spread_rows(np.random.default_rng(d), n, d), np.stack([np.arange(n), np.arange(n)[::-1]])


def one_flags_a_whole_block_another_none():
    # unit rows against threshold 1/n: each bound at the start is 1/cap_k = 1, and a zero row's is 0
    n, d = 2 * SCREEN_BLOCK, 3
    rng = np.random.default_rng(73)
    X = np.zeros((n, d))
    X[:SCREEN_BLOCK] = rng.standard_normal((SCREEN_BLOCK, d))
    X[:SCREEN_BLOCK] /= np.linalg.norm(X[:SCREEN_BLOCK], axis=1, keepdims=True)
    orders = np.stack([np.arange(n), np.roll(np.arange(n), SCREEN_BLOCK), rng.permutation(n)])
    cut = 1.0 / n * (1.0 - SCREEN_SLACK)
    first = [(X[o[:SCREEN_BLOCK]] ** 2).sum(1) > cut for o in orders[:2]]  # the bounds against I / cap_k
    assert first[0].all() and not first[1].any()
    return Rows(np.arange(n, dtype=np.uint64), X, np.ones(n, dtype=np.int8)), orders


def queried_in_first_block(ordered, model) -> int:
    queried = np.flatnonzero(np.isin(ordered.ids, np.fromiter(model.coreset.ids(), dtype=np.uint64)))
    return int((queried < SCREEN_BLOCK).sum())


def each_stores_more_than_one(fits) -> bool:
    return all(len(model.coreset) > 1 for _, model in fits)


# name: (rows and orders, cap_k, kappa, a check on the (ordered rows, model) pairs)
LOCKSTEP_CASES = {
    "one ordering": (lambda: shuffled(1, 1300, 4), 2.0, 0.7, each_stores_more_than_one),
    "rows fewer than a block": (lambda: shuffled(5, 300, 3), 2.0, 0.7, each_stores_more_than_one),
    "rows not a multiple of a block": (lambda: shuffled(4, 1100, 6), 2.0, 0.7, each_stores_more_than_one),
    "d=1": (lambda: shuffled(6, 900, 1), 2.0, 0.7, each_stores_more_than_one),
    "repeated equal rows": (lambda: shuffled(3, 800, 3, distinct=4), 2.0, 0.7, each_stores_more_than_one),
    "one ordering flags a whole block and another none": (
        one_flags_a_whole_block_another_none, 1.0, 1.0,
        lambda fits: len(fits[0][1].coreset) == len(fits[1][1].coreset) > 3,
    ),
    # hundreds of queries within one block, each adding its mean term in fit order
    **{
        f"mean added in fit order, d={d}": (
            functools.partial(forward_and_back, n, d), 1.7, 1.0,
            lambda fits: all(queried_in_first_block(*fit) > 100 for fit in fits),
        )
        for d, n in ((1, 600), (2, 600), (200, 300))
    },
}


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

    def test_means_are_a_new_array(self):
        rows = gen_dataset(DatasetSpec(kind="realizable-linear", T=600, d=4, seed=5))
        orders = np.stack([np.arange(600), np.arange(600)[::-1]])
        models, means = bbq_fit_orders(rows, orders, 4.0, 0.5)
        for order, model in zip(orders, models):
            assert_same_fit(model, bbq_fit(rows.take(order), 4.0, 0.5))
        assert type(means) is np.ndarray and means.dtype == np.float64 and means.shape == (2, 4, 4)
        assert means.base is None and means.flags.writeable and np.isfinite(means).all()
        assert not any(np.shares_memory(means, getattr(m.gram_state, f)) for m in models for f in GRAM_FIELDS)
        with pytest.raises(TypeError, match="needs Rows"):
            bbq_fit_orders(rows.samples, orders, 4.0, 0.5)
        with pytest.raises(ValueError, match="nonempty rows"):
            bbq_fit_orders(rows.take(np.arange(0)), np.empty((2, 0), dtype=int), 4.0, 0.5)

    @pytest.mark.parametrize(
        "orders",
        [
            np.arange(600),  # one dimension
            np.arange(600.0)[None],  # not integers
            np.empty((0, 600), dtype=int),  # no ordering
            np.arange(599)[None],  # too short
            np.stack([np.arange(600), np.r_[0, 0, np.arange(2, 600)]]),  # a repeated row
            np.r_[np.arange(1, 600), 600][None],  # a row past the end
        ],
        ids=["1-D", "float", "empty", "short", "repeat", "past-the-end"],
    )
    def test_orders_must_be_permutations(self, orders):
        rows = gen_dataset(DatasetSpec(kind="realizable-linear", T=600, d=4, seed=5))
        with pytest.raises(ValueError, match="permutations of range"):
            bbq_fit_orders(rows, orders, 4.0, 0.5)

    @settings(max_examples=80, deadline=None)
    @given(screened_streams(), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_each_ordering_equals_its_rows_fit(self, case, t, seed):
        # the mean runs over the rows' own length, and its sums equal a replay that steps the full state
        rows, cap_k, kappa, _, _ = case
        n, d = rows.X.shape
        if not n:
            with pytest.raises(ValueError, match="nonempty rows"):
                bbq_fit_orders(rows, np.empty((t, 0), dtype=int), cap_k, kappa)
            return
        rng = np.random.default_rng(seed)
        orders = np.stack([rng.permutation(n) for _ in range(t)])
        models, means = bbq_fit_orders(rows, orders, cap_k, kappa)
        assert len(models) == t and means.shape == (t, d, d)
        for order, model, mean in zip(orders, models, means):
            ordered = rows.take(order)
            assert_same_fit(model, bbq_fit(ordered, cap_k, kappa))
            assert_state_from_coreset(model)
            assert mean.tobytes() == full_state_mean(ordered, model).tobytes()

    @pytest.mark.parametrize("name", list(LOCKSTEP_CASES))
    def test_lockstep_cases(self, name):
        build, cap_k, kappa, check = LOCKSTEP_CASES[name]
        rows, orders = build()
        models, means = bbq_fit_orders(rows, orders, cap_k, kappa)
        fits = [(rows.take(order), model) for order, model in zip(orders, models)]
        for (ordered, model), mean in zip(fits, means):
            assert_same_fit(model, bbq_fit(ordered.samples, cap_k, kappa))  # the per-point fit, unscreened
            assert mean.tobytes() == full_state_mean(ordered, model).tobytes()
        assert check(fits)

    def test_certified_rows_cost_no_leverage_call(self, monkeypatch):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=2000, d=10, seed=71))
        calls = {"_exact_leverage": 0, "_step_inverse": 0}  # per flagged row, per query

        def counted(name):
            fn = getattr(bbq_linear, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(bbq_linear, name, counted(name))
        m = bbq_fit(ds, cap_k=10.0, kappa=0.5)
        assert calls["_step_inverse"] == len(m.coreset) > 0
        assert len(m.coreset) <= calls["_exact_leverage"] < len(ds) // 2
        assert "samples" not in vars(ds)  # no sample is built for a row the fit does not store
        assert all(s.x.base is None for s in m.coreset)  # each stored sample owns its row

    @pytest.mark.parametrize("d", [10, 20, 200])
    def test_two_slots_take_turns(self, d, monkeypatch):
        # a query steps the inverse from one slot of a stack of two into the other, never into its own
        slots, step = [], bbq_linear._step_inverse

        def recorded(inv, v, lev, out):
            assert out.base is inv.base and not np.shares_memory(inv, out)
            slots.append((len(out.base), (out.ctypes.data - out.base.ctypes.data) // out.nbytes))
            step(inv, v, lev, out)

        monkeypatch.setattr(bbq_linear, "_step_inverse", recorded)
        model = bbq_fit(gen_dataset(DatasetSpec(kind="realizable-linear", T=1000, d=d, seed=72)), 2.0, 0.5)
        assert slots == [(2, (i + 1) % 2) for i in range(len(model.coreset))] and slots

    @pytest.mark.parametrize("fit", ["rows", "orders"])
    def test_fitted_state_owns_its_arrays(self, fit):
        # no array of the fit's stacks outlives the fit through the model
        rows = gen_dataset(DatasetSpec(kind="realizable-linear", T=2000, d=10, seed=71))
        if fit == "rows":
            model = bbq_fit(rows, 10.0, 0.5)
        else:
            model = bbq_fit_orders(rows, np.arange(2000)[None], 10.0, 0.5)[0][0]
        g = model.gram_state
        assert len(model.coreset) > 0
        assert all(a.base is None for a in (g.gram, g.gram_inv, g.b_vec, g.weight))

    def test_rows_are_checked_as_samples_are(self):
        ids, X, y = np.arange(4), np.ones((4, 1)), np.ones(4, dtype=np.int8)
        y[2] = 0
        with pytest.raises(ValueError, match="^row 2: label must be -1 or \\+1, got 0$"):
            bbq_fit(Rows(ids, X, y), cap_k=1.0)
        y[2], X[3] = 1, 2.0
        with pytest.raises(ValueError, match="^row 3: "):
            bbq_fit(Rows(ids, X, y), cap_k=1.0)


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


class Untouchable:
    """Stands in for a stored array that must not be read: any attribute, item, length or conversion raises."""

    def __getattribute__(self, name):
        raise AssertionError(f"read .{name} of stored state")

    def _refuse(self, *args):
        raise AssertionError("read stored state")

    __array__ = __len__ = __iter__ = __getitem__ = __setitem__ = __bool__ = __float__ = __index__ = _refuse


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

    def test_a_free_deletion_reads_no_stored_row_and_no_gram_field(self):
        # the north star's "a deletion outside the core set costs nothing": no stored array is touched
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=600, d=5, seed=16))
        m = bbq_fit(ds, cap_k=2.0, kappa=0.5)
        outside = [sid for sid in ds.ids.tolist() if sid not in m.coreset][:40]
        stored = list(m.coreset.ids())
        for name in ("_ids", "_X", "_y"):
            setattr(m.coreset, name, Untouchable())
        for name in GRAM_FIELDS:
            setattr(m.gram_state, name, Untouchable())
        assert deletion_update(m, outside) is m
        deletion_update(m, outside[:1])
        assert (m.free_deletions, m.coreset_deletions) == (41, 0) and list(m.coreset.ids()) == stored

    @pytest.mark.parametrize("h", [0, 1, 7])
    def test_h_hits_cost_h_downdates(self, h, monkeypatch):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=600, d=5, seed=16))
        m = bbq_fit(ds, cap_k=2.0, kappa=0.5)
        hits = list(m.coreset.ids())[::-3][:h]
        outside = [sid for sid in ds.ids.tolist() if sid not in m.coreset][:25]
        calls, downdate = [], bbq_linear.rank_one_downdate
        monkeypatch.setattr(bbq_linear, "rank_one_downdate", lambda *args: calls.append(args) or downdate(*args))
        deletion_update(m, outside + hits)
        assert len(calls) == m.coreset_deletions == h and m.free_deletions == 25

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

    def test_fit_io_deletion_and_state_build_no_sample(self, tmp_path, monkeypatch):
        # the package builds a LabeledSample in two ways: its checking
        # constructor, and trusted_samples for rows checked already
        built, init, trusted = [], LabeledSample.__init__, datastreams.trusted_samples

        def counted_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def counted_trusted(ids, X, y):
            built.append(len(ids))
            return trusted(ids, X, y)

        monkeypatch.setattr(LabeledSample, "__init__", counted_init)
        for module in (datastreams, bbq_linear):
            monkeypatch.setattr(module, "trusted_samples", counted_trusted)
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=2000, d=5, seed=47))
        m = bbq_fit(ds, cap_k=2.0, kappa=0.5)
        path = tmp_path / "m.saul"
        save_model(m, path)
        loaded = load_model(path)
        assert encode_model(loaded) == encode_model(m) == path.read_bytes()
        core = list(loaded.coreset.ids())
        deletion_update(loaded, core[:3] + [10**9])
        deletion_update(loaded, [core[5]])
        assert state_of_system(loaded).stored_ids == set(core) - set(core[:3]) - {core[5]}
        assert built == []
        list(loaded.coreset)  # the counters see a build
        assert built == [len(core) - 4]

    def test_no_library_path_iterates_or_slices_a_core_set(self, tmp_path, monkeypatch):
        # iteration, slicing and pop are the only ways a core set builds a sample
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=1500, d=5, seed=48))
        cs = CoreSet(ds)
        assert not any(np.shares_memory(a, b) for a in (cs._ids, cs._X, cs._y) for b in (ds.ids, ds.X, ds.y))

        def refused(self, *args):
            raise AssertionError("a library path iterated, sliced or popped a core set")

        for name in ("__iter__", "__getitem__", "pop"):
            monkeypatch.setattr(CoreSet, name, refused)
        m = bbq_fit(ds, cap_k=2.0, kappa=0.5)
        core = list(m.coreset.ids())
        outsiders = [sid for sid in ds.ids.tolist() if sid not in m.coreset][:5]
        deletion_update(m, core[:3] + outsiders)
        assert (m.coreset_deletions, m.free_deletions) == (3, 5)
        path = tmp_path / "m.saul"
        save_model(m, path)
        loaded = load_model(path)
        assert encode_model(loaded) == encode_model(m) == path.read_bytes()
        assert state_of_system(loaded).stored_ids == set(core[3:])
        assert replay_on_coreset(loaded, core[3:5]).coreset_ids == set(core[5:])
        expected_capacity_mc(ds, DeletionDistribution(kind="uniform"), K=2, trials=2, seed=1, cap_k=2.0)
        cfg = ExperimentConfig(
            dataset=DatasetSpec(kind="margin", T=800, d=5, seed=2, gamma=0.1),
            cap_k=2.0, shards=2, deletion_fraction=0.4, cadence=100, seed=2, gate_policy="refit",
        )
        assert any(e.startswith("exhausted@") for e in run_experiment(cfg).methods["bbq"].gate_events)
        for name, passed, detail in [*verify.check_linear_instances(0, 2), verify.check_drift_identity(0, 2)]:
            assert passed, f"{name}: {detail}"


@functools.cache
def downdated_model():
    """A fitted model after one mixed deletion request, with at least two stored rows, and its state."""
    rng = np.random.default_rng(50)
    ds, m = random_linear_instance(rng, t_max=600)
    deletion_update(m, random_deletion_request(rng, ds, m))
    assert len(m.coreset) >= 2 and m.coreset_deletions
    return m, state_of_system(m)


def _rows_changed(edit):
    def change(m, s):
        ids, X, y = (a.copy() for a in (s.coreset.ids, s.coreset.X, s.coreset.y))
        edit(ids, X, y)
        return dataclasses.replace(s, coreset=Rows(ids, X, y))
    return change


def _gram_moved(name, by):
    def change(m, s):
        g = s.gram_state.copy()
        getattr(g, name).flat[0] += by
        return dataclasses.replace(s, gram_state=g)
    return change


def _gram_nan(name):
    def change(m, s):
        g = s.gram_state.copy()
        getattr(g, name).flat[0] = np.nan
        return dataclasses.replace(s, gram_state=g)
    return change


def _refit_one_later(m, s):
    """A fresh fit on the stored rows at ``horizon + 1``, which queries every one of them again."""
    p = m.params
    later = state_of_system(bbq_fit(s.coreset, cap_k=p.cap_k, kappa=p.kappa, horizon=p.horizon + 1, dim=m.dim))
    assert later.coreset.ids.tobytes() == s.coreset.ids.tobytes()
    return later


def _swap_first_two(ids, X, y):
    for a in (ids, X, y):
        a[[0, 1]] = a[[1, 0]]


def _nudge_x_and_flip_a_label(ids, X, y):
    X[0, 0] += 1e-12
    y[-1] = -y[-1]


EQUAL_TOL = 1e-8  # system_states_equal's default

# (stored field, change of a state): each change must make system_states_equal tell the states apart.
FIELD_CHANGES = [
    ("params", _refit_one_later),
    ("params", lambda m, s: dataclasses.replace(s, params=dataclasses.replace(s.params, kappa=s.params.kappa / 2))),
    ("params", lambda m, s: dataclasses.replace(s, params=dataclasses.replace(s.params, cap_k=s.params.cap_k * 2))),
    ("coreset", _rows_changed(_swap_first_two)),
    ("coreset", _rows_changed(_nudge_x_and_flip_a_label)),
    ("dim", lambda m, s: dataclasses.replace(s, gram_state=dataclasses.replace(s.gram_state, dim=m.dim + 1))),
    ("gram_inv", _gram_moved("gram_inv", 1e-3)),  # the weight left as it is
    *((name, _gram_moved(name, 2 * EQUAL_TOL)) for name in ("gram", "gram_inv", "b_vec", "weight")),
    *((name, _gram_nan(name)) for name in ("gram", "gram_inv", "b_vec", "weight")),  # a NaN in any one field
]
FIELD_CHANGE_IDS = [
    "horizon-plus-one", "kappa", "cap_k", "first-two-swapped", "x-nudged-label-flipped", "dim",
    "gram_inv-off-1e-3", "gram", "gram_inv", "b_vec", "weight",
    "gram-nan", "gram_inv-nan", "b_vec-nan", "weight-nan",
]

# The stored fields system_states_equal does not compare, each with its reason.
EXCEPTED_FIELDS = {
    "query_log": "range(n) over the streamed points: it counts unqueried and deleted points",
    "free_deletions": "requests applied since the fit or load: deletion history",
    "coreset_deletions": "requests applied since the fit or load: deletion history",
    "downdates_since_refresh": "downdates since the last refresh, which a fresh fit has not taken",
    "lam": "the ridge lam is params.cap_k, compared with params",
}


class TestSystemStatesEqual:
    @pytest.mark.parametrize("field, change", FIELD_CHANGES, ids=FIELD_CHANGE_IDS)
    def test_a_change_to_a_compared_field_is_seen(self, field, change):
        m, s = downdated_model()
        assert system_states_equal(s, state_of_system(m), tol=0.0)
        assert not system_states_equal(s, change(m, s))
        assert not system_states_equal(change(m, s), s)

    @pytest.mark.parametrize("name", ["gram", "gram_inv", "b_vec", "weight"])
    def test_a_gram_field_within_tol_is_equal(self, name):
        m, s = downdated_model()
        assert system_states_equal(s, _gram_moved(name, EQUAL_TOL / 2)(m, s))

    def test_the_downdate_count_is_not_compared(self):
        m, s = downdated_model()
        g = s.gram_state.copy()
        g.downdates_since_refresh += 7
        assert system_states_equal(s, dataclasses.replace(s, gram_state=g), tol=0.0)

    def test_every_stored_field_is_compared_or_excepted(self):
        # a new field of the model fails this until a change above sees it, or it is excepted with its reason
        stored = {f.name for cls in (ModelState, GramState) for f in dataclasses.fields(cls)}
        compared = {"gram_state"} | {field for field, _ in FIELD_CHANGES}  # gram_state through its fields
        assert not compared & EXCEPTED_FIELDS.keys()
        assert stored == compared | EXCEPTED_FIELDS.keys()


class TestCoreSet:
    def test_the_kept_surface(self):
        items = random_samples(np.random.default_rng(40), 6, 3)
        cs = CoreSet(as_rows(items[:5]))
        assert len(cs) == 5 and list(cs) == items[:5] and not CoreSet(as_rows(items).take(slice(0))) and cs
        with pytest.raises(ValueError, match=r"has shape \(1,\), the core set's rows \(3,\)$"):
            cs.append(LabeledSample(10**9, [0.5], 1))
        assert cs[1:4] == items[1:4] and cs[::-2] == items[4::-2] and cs[:0] == []
        for index in (0, -1, 5):
            with pytest.raises(TypeError, match="^a core set is sliced, not indexed$"):
                cs[index]
        assert not hasattr(cs, "in_fit_order") and CoreSet.__eq__ is object.__eq__
        cs.append(items[5])
        assert len(cs) == 6 and cs[-1:] == [items[5]]
        assert cs.pop() == items[5] and list(cs) == items[:5]
        with pytest.raises(ValueError, match="already"):
            cs.append(items[0])
        ids = cs.ids()
        assert list(ids) == [s.sample_id for s in items[:5]]
        x, y = cs.take(items[1].sample_id)
        assert x.tobytes() == items[1].x.tobytes() and y == items[1].y
        assert list(cs) == [items[0]] + items[2:5]
        assert list(ids) == [s.sample_id for s in cs]  # a live view, not a copy
        assert items[0].sample_id in cs and items[1].sample_id not in cs and 10**9 not in cs
        for sid in list(ids)[:3]:  # holes outnumber the stored rows: they move, the view stays live
            cs.take(sid)
        assert list(ids) == [items[4].sample_id] and list(cs) == [items[4]]
        assert cs.pop() == items[4] and not cs and list(ids) == []
        with pytest.raises(KeyError):
            cs.pop()

    def test_rows_and_take_read_the_storage(self):
        items = random_samples(np.random.default_rng(45), 4, 3)
        cs = CoreSet(as_rows(items))
        rows = cs.rows()
        assert rows.ids.tolist() == [s.sample_id for s in items] and rows.X.shape == (4, 3)
        assert not (rows.ids.flags.writeable or rows.X.flags.writeable or rows.y.flags.writeable)
        x, y = cs.take(items[2].sample_id)
        assert x.tobytes() == items[2].x.tobytes() and y == items[2].y and items[2].sample_id not in cs
        assert rows.ids.tolist() == [s.sample_id for s in items]  # a snapshot: the take does not reach it
        with pytest.raises(KeyError):
            cs.take(items[2].sample_id)

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
        stream = [ds.samples[i] for i in np.random.default_rng(41).permutation(len(ds.samples))]
        batch, single = (bbq_fit(stream, cap_k=2.0, kappa=0.5) for _ in range(2))
        monkeypatch.setattr(core_linalg, "DEFAULT_REFRESH_PERIOD", 8)
        fit_order = [s.sample_id for s in batch.coreset]
        assert fit_order != sorted(fit_order)  # so an id-ordered batch would downdate in another order
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
        m = bbq_fit(ds.samples[::-1], cap_k=2.0, kappa=0.5)  # fit order is not id order
        core = [s.sample_id for s in m.coreset]
        outsider = next(s.sample_id for s in ds.samples if s.sample_id not in m.coreset_ids)
        taken, take = [], CoreSet.take

        def recorded_take(self, sid):
            taken.append(sid)
            return take(self, sid)

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
        monkeypatch.setattr(CoreSet, "take", recorded_take)
        for sid in (core[len(core) // 2], outsider, core[0], core[-1]):
            deletion_update(m, [sid])
        deletion_update(m, {core[1], outsider + 10**6})  # one hit and one free request
        deletion_update(m, {core[-2], core[3], core[2], outsider + 2 * 10**6})  # three hits, taken in fit order
        assert taken == [core[len(core) // 2], core[0], core[-1], core[1], core[2], core[3], core[-2]]
        assert (m.coreset_deletions, m.free_deletions) == (7, 3)
        monkeypatch.undo()
        assert [s.sample_id for s in m.coreset] == core[4 : len(core) // 2] + core[len(core) // 2 + 1 : -2]

    def test_no_deleted_value_stays_in_storage(self):
        # the system-aware storage rule: after a hit, and after the holes are
        # packed away, no stored array holds the deleted row and no index its id
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=2000, d=5, seed=46))
        m = bbq_fit(ds, cap_k=2.0, kappa=0.5)
        cs = m.coreset
        core = list(cs.ids())
        assert len(core) > 20 and core[0] == 0  # a cleared id is 0, so id 0 is never deleted

        def assert_gone(gone):
            stored = {row.tobytes() for row in cs._X}
            for sid in gone:
                assert ds.X[sid].tobytes() not in stored
                assert sid not in cs and sid not in cs._row and sid not in cs._ids.tolist()
            assert list(cs.ids()) == [sid for sid in core if sid not in gone]

        deletion_update(m, [core[5]])
        assert len(cs._X) == len(core) > len(cs)  # a hole, not yet packed away
        assert_gone({core[5]})
        gone = set(core[1 : len(core) // 2 + 2])  # the last hit leaves more holes than rows
        deletion_update(m, gone)
        assert len(cs._X) == len(cs) == len(core) - len(gone)  # packed in fit order
        assert_gone(gone)
        np.testing.assert_array_equal(cs.rows().X, ds.X[[sid for sid in core if sid not in gone]])


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


@st.composite
def replay_cases(draw):
    """A fitted model, maybe with core-set hits deleted already, and a request:
    empty, the whole core set, or hits mixed with never-queried and unknown ids."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 700)), draw(st.integers(1, 6))
    y = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    rows = Rows(rng.permutation(10 * n)[:n].astype(np.uint64), unit_vectors(rng, n, d), y)
    cap_k, kappa = draw(st.sampled_from([1.0, 2.0, 8.0])), draw(st.sampled_from([0.3, 0.5, 1.0]))
    m = bbq_fit(in_form(rows, draw(st.sampled_from(FORMS))), cap_k=cap_k, kappa=kappa)
    core = list(m.coreset.ids())
    deletion_update(m, rng.permutation(core)[: draw(st.integers(0, len(core)))].tolist())  # holes in storage
    core = list(m.coreset.ids())
    kind = draw(st.sampled_from(["empty", "whole core set", "mixed"]))
    if kind == "empty":
        return m, []
    if kind == "whole core set":
        return m, core
    never = [sid for sid in rows.ids.tolist() if sid not in m.coreset_ids]
    request = rng.permutation(core)[: draw(st.integers(0, len(core)))].tolist()
    request += rng.permutation(never)[: draw(st.integers(0, 5))].tolist()
    return m, request + [10 * n + draw(st.integers(0, 10)), -1]  # unknown ids


class TestReplay:
    @settings(max_examples=60, deadline=None)
    @given(replay_cases())
    def test_equals_the_sample_list_fit_of_the_survivors(self, case):
        m, request = case
        p, gone = m.params, set(request)
        want = bbq_fit(
            [s for s in m.coreset if s.sample_id not in gone], cap_k=p.cap_k, kappa=p.kappa, horizon=p.horizon, dim=m.dim
        )
        got = replay_on_coreset(m, request)
        assert list(got.coreset.ids()) == list(want.coreset.ids())
        assert encode_model(got) == encode_model(want)
        for name in ("gram", "gram_inv", "b_vec", "weight"):
            assert getattr(got.gram_state, name).tobytes() == getattr(want.gram_state, name).tobytes()

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

    @pytest.mark.parametrize("fit", ["rows", "samples", "orders", "empty core set"])
    def test_a_fit_leaves_the_state_its_load_derives(self, fit, tmp_path):
        ds = gen_dataset(DatasetSpec(kind="margin", T=4000, d=20, gamma=0.1, seed=1))
        m = {
            "rows": lambda: bbq_fit(ds, 32.0, 0.5),
            "samples": lambda: bbq_fit(ds.samples, 32.0, 0.5),
            "orders": lambda: bbq_fit_orders(ds, [range(4000)], 32.0, 0.5)[0][0],
            "empty core set": lambda: bbq_fit(ds, 3.0, 0.0),  # threshold 1 is above every leverage
        }[fit]()
        assert (len(m.coreset) > 0) is (fit != "empty core set")
        fitted = m.gram_state.copy()
        save_model(m, tmp_path / "m.saul")  # the saved model takes the loaded state
        loaded = load_model(tmp_path / "m.saul")
        for name in GRAM_FIELDS:
            assert getattr(fitted, name).tobytes() == getattr(loaded.gram_state, name).tobytes(), name

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
        empty = Rows(np.empty(0, np.uint64), np.empty((0, MAX_MODEL_DIM + 1)), np.empty(0, np.int8))
        m = ModelState(g, CoreSet(empty), BBQParams(horizon=10, kappa=0.5, cap_k=2.0), [])
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

    def test_empty_core_set_keeps_its_width(self, tmp_path):
        rng = np.random.default_rng(29)
        ds, m = random_linear_instance(rng, t_max=400)
        assert m.coreset
        deletion_update(m, set(m.coreset_ids))
        stored = m.coreset.rows()
        assert not m.coreset and stored.X.shape == (0, m.dim)
        lam = m.params.lam
        empty = core_linalg.gram_from_rows(stored.X, stored.y, lam)
        assert empty.gram.tobytes() == core_linalg.gram_init(m.dim, lam).gram.tobytes()
        path = tmp_path / "m.saul"
        save_model(m, path)
        assert path.read_bytes() == encode_model(m) and len(path.read_bytes()) == _HEADER.size
        loaded = load_model(path)
        assert loaded.coreset.rows().X.shape == (0, m.dim) and encode_model(loaded) == path.read_bytes()
        assert system_states_equal(state_of_system(loaded), state_of_system(m), tol=0.0)
        assert loaded.weight.tobytes() == m.weight.tobytes() == np.zeros(m.dim).tobytes()

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
    fresh = replay_on_coreset(m, [])
    assert system_states_equal(state_of_system(m), state_of_system(fresh))
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")
        save_model(m, a)
        save_model(fresh, b)
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
