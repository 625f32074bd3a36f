import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coreset_unlearn import DatasetSpec, bbq_fit, core_linalg, gen_dataset, predict
from coreset_unlearn.core_linalg import (
    CorruptedStateError,
    SingularDowndateError,
    DEFAULT_REFRESH_PERIOD,
    as_vector,
    gram_from_rows,
    gram_init,
    leverage,
    log_det_ratio,
    rank_one_downdate,
    rank_one_update,
    refresh_inverse,
)


def dense_inverse(lam, d, applied):
    dense = lam * np.eye(d)
    for x, _ in applied:
        dense += np.outer(x, x)
    return np.linalg.inv(dense)


def random_unit(rng, d, max_norm=1.0):
    x = rng.standard_normal(d)
    return x * rng.uniform(0.05, max_norm) / np.linalg.norm(x)


class TestInit:
    def test_identity_case(self):
        s = gram_init(2, 1.0)
        np.testing.assert_array_equal(s.gram, np.eye(2))
        np.testing.assert_array_equal(s.gram_inv, np.eye(2))
        np.testing.assert_array_equal(s.weight, np.zeros(2))

    def test_scalar_closed_form(self):
        s = gram_init(1, 4.0)
        assert s.gram[0, 0] == 4.0
        assert s.gram_inv[0, 0] == 0.25

    def test_spectrum_is_lambda(self):
        s = gram_init(3, 2.0)
        np.testing.assert_allclose(np.linalg.eigvalsh(s.gram), [2.0, 2.0, 2.0])

    @pytest.mark.parametrize("d,lam", [(0, 1.0), (-1, 1.0), (2, 0.0), (2, -0.5)])
    def test_invalid_arguments(self, d, lam):
        with pytest.raises(ValueError):
            gram_init(d, lam)


class TestUpdate:
    def test_scalar_closed_form(self):
        s = gram_init(1, 1.0)
        rank_one_update(s, [1.0], 1)
        assert s.gram[0, 0] == pytest.approx(2.0)
        assert s.gram_inv[0, 0] == pytest.approx(0.5)
        assert s.b_vec[0] == pytest.approx(1.0)
        assert s.weight[0] == pytest.approx(0.5)

    def test_zero_vector_is_noop(self):
        s = gram_init(3, 2.0)
        before = s.copy()
        rank_one_update(s, np.zeros(3), 1)
        np.testing.assert_array_equal(s.gram, before.gram)
        np.testing.assert_array_equal(s.gram_inv, before.gram_inv)
        np.testing.assert_array_equal(s.b_vec, before.b_vec)

    def test_norm_violation(self):
        s = gram_init(2, 1.0)
        with pytest.raises(ValueError, match="unit-norm"):
            rank_one_update(s, [1.0, 1.0], 1)

    def test_dimension_mismatch(self):
        s = gram_init(2, 1.0)
        with pytest.raises(ValueError, match="shape"):
            rank_one_update(s, [1.0], 1)


class TestDowndate:
    def test_scalar_closed_form(self):
        s = gram_init(1, 1.0)
        rank_one_update(s, [1.0], 1)
        rank_one_downdate(s, [1.0], 1)
        assert s.gram[0, 0] == pytest.approx(1.0)
        # 0.5 + 0.25 / 0.5 restores the fresh inverse
        assert s.gram_inv[0, 0] == pytest.approx(1.0)

    def test_mixed_sequence_matches_dense_inversion(self):
        rng = np.random.default_rng(3)
        s = gram_init(5, 3.0)
        applied = []
        for _ in range(30):
            x, y = random_unit(rng, 5), int(rng.choice([-1, 1]))
            rank_one_update(s, x, y)
            applied.append((x, y))
        for _ in range(10):
            idx = int(rng.integers(len(applied)))
            x, y = applied.pop(idx)
            rank_one_downdate(s, x, y)
            np.testing.assert_allclose(s.gram_inv, dense_inverse(3.0, 5, applied), atol=1e-8)
            assert np.linalg.eigvalsh(s.gram).min() >= 3.0 - 1e-8  # stays PD above lam

    def test_never_added_point_raises(self):
        s = gram_init(2, 1.0)
        with pytest.raises(SingularDowndateError):
            rank_one_downdate(s, [1.0, 0.0], 1)

    def test_automatic_refresh_resets_counter(self, monkeypatch):
        monkeypatch.setattr(core_linalg, "DEFAULT_REFRESH_PERIOD", 5)
        rng = np.random.default_rng(4)
        s = gram_init(3, 1.0)
        pts = [(random_unit(rng, 3), 1) for _ in range(6)]
        for x, y in pts:
            rank_one_update(s, x, y)
        for x, y in pts[:5]:
            rank_one_downdate(s, x, y)
        assert s.downdates_since_refresh == 0  # period hit, refreshed


def outer_update(state, x, y):
    """``rank_one_update`` as written with ``np.outer``: the bits the kernel must keep."""
    v = state.gram_inv.dot(x)
    denom = 1.0 + v.dot(x)
    state.gram += np.outer(x, x)
    state.gram_inv -= np.outer(v, v) / denom
    state.b_vec += y * x
    state.weight = state.gram_inv.dot(state.b_vec)


def outer_downdate(state, x, y):
    """``rank_one_downdate`` as written with ``np.outer``."""
    v = state.gram_inv.dot(x)
    denom = 1.0 - v.dot(x)
    state.gram -= np.outer(x, x)
    state.gram_inv += np.outer(v, v) / denom
    state.b_vec -= y * x
    state.weight = state.gram_inv.dot(state.b_vec)
    state.downdates_since_refresh += 1
    if state.downdates_since_refresh >= core_linalg.DEFAULT_REFRESH_PERIOD:
        refresh_inverse(state)


class TestBitIdentity:
    @pytest.mark.parametrize("d", [1, 2, 10, 20])
    def test_mixed_chain_matches_outer_formulas(self, d, monkeypatch):
        # the broadcast outer products must reproduce np.outer bit for bit,
        # also across automatic refreshes (period 7)
        monkeypatch.setattr(core_linalg, "DEFAULT_REFRESH_PERIOD", 7)
        rng = np.random.default_rng(100 + d)
        s, ref = gram_init(d, 2.0), gram_init(d, 2.0)
        live, downdates = [], 0
        for _ in range(120):
            if live and rng.random() < 0.4:
                x, y = live.pop(int(rng.integers(len(live))))
                rank_one_downdate(s, x, y)
                outer_downdate(ref, x, y)
                downdates += 1
            else:
                x, y = random_unit(rng, d), int(rng.choice([-1, 1]))
                rank_one_update(s, x, y)
                outer_update(ref, x, y)
                live.append((x, y))
            for name in ("gram", "gram_inv", "b_vec", "weight"):
                assert np.array_equal(getattr(s, name), getattr(ref, name)), name
            assert s.downdates_since_refresh == ref.downdates_since_refresh
        assert downdates >= core_linalg.DEFAULT_REFRESH_PERIOD


class _Sub(np.ndarray):
    pass


def asarray_as_vector(x, dim):
    """``as_vector`` as written before its fast path: the conversions it must keep."""
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (dim,):
        raise ValueError(f"expected vector of shape ({dim},), got {v.shape}")
    return v


_GRID = np.arange(24, dtype=np.float64).reshape(3, 8) / 100.0

with warnings.catch_warnings():
    warnings.simplefilter("ignore", PendingDeprecationWarning)
    _MATRIX = np.matrix(_GRID[0, :4])


_CONVERTIBLE = pytest.mark.parametrize(
    "x",
    [
        _GRID[0, :4].astype(np.float32),
        [0, 1, 2, 3],
        _GRID[0, :4].astype(">f8"),
        _GRID[0, :4].copy().view(_Sub),
        _GRID[:, ::2][1],
        _GRID[0, :4].copy(),
    ],
    ids=["float32", "int list", "big-endian", "subclass", "strided row view", "float64"],
)

_MISSHAPEN = pytest.mark.parametrize(
    "x",
    [
        np.zeros((1, 4)),
        np.zeros((4, 1)),
        np.array(0.5),
        np.zeros(5),
        _MATRIX,
        _GRID[:1, :4].view(_Sub),
        [0.0, 0.0, 0.0],
    ],
    ids=["(1,d)", "(d,1)", "0-d", "long", "matrix", "(1,d) subclass", "short list"],
)


class TestAsVector:
    @_CONVERTIBLE
    def test_converts_exactly_as_asarray(self, x):
        got, ref = as_vector(x, 4), asarray_as_vector(x, 4)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (4,)
        assert np.array_equal(got, ref)
        assert (got is x) == (ref is x)  # a float64 vector comes back as itself
        arr = np.asarray(x)
        assert np.shares_memory(got, arr) == np.shares_memory(ref, arr)

    @_MISSHAPEN
    def test_rejects_every_other_shape(self, x):
        with pytest.raises(ValueError, match="shape"):
            asarray_as_vector(x, 4)
        with pytest.raises(ValueError, match="shape"):
            as_vector(x, 4)


class TestVectorArguments:
    """``leverage`` and ``predict`` test ``as_vector``'s fast path inline and keep its contract."""

    @staticmethod
    def model():
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=200, d=4, seed=7))
        return bbq_fit(ds.samples, cap_k=1.0, kappa=0.5)

    @_CONVERTIBLE
    def test_value_of_the_asarray_form(self, x):
        m = self.model()
        ref = np.asarray(x, dtype=np.float64)
        assert leverage(m.gram_state, x) == leverage(m.gram_state, ref)
        assert predict(m, x) == predict(m, ref)
        assert predict(m, -ref) == -predict(m, ref)  # the model's weights are not orthogonal to x

    @_MISSHAPEN
    def test_rejects_every_other_shape(self, x):
        m = self.model()
        with pytest.raises(ValueError, match="expected vector of shape"):  # not numpy's "shapes not aligned"
            leverage(m.gram_state, x)
        with pytest.raises(ValueError, match="expected vector of shape"):
            predict(m, x)


class TestLeverage:
    def test_fresh_scalar(self):
        s = gram_init(1, 1.0)
        assert leverage(s, [1.0]) == pytest.approx(1.0)

    def test_three_updates_scalar(self):
        s = gram_init(1, 1.0)
        for _ in range(3):
            rank_one_update(s, [1.0], 1)
        assert leverage(s, [1.0]) == pytest.approx(0.25)

    def test_range_bound(self):
        rng = np.random.default_rng(5)
        s = gram_init(4, 2.0)
        for _ in range(20):
            rank_one_update(s, random_unit(rng, 4), 1)
        for _ in range(50):
            x = random_unit(rng, 4)
            lev = leverage(s, x)
            assert 0.0 <= lev <= float(x @ x) / 2.0 + 1e-12

    @pytest.mark.parametrize("d", [1, 3, 7, 10, 20])
    def test_row_view_gives_the_bits_of_its_copy(self, d):
        # a fit on rows tests and adds views into X, a fit on samples their
        # copies; odd d puts the views at every 8-byte offset
        rng = np.random.default_rng(d)
        X = np.ascontiguousarray([random_unit(rng, d) for _ in range(64)])
        on_views, on_copies = gram_init(d, 2.0), gram_init(d, 2.0)
        for i in range(len(X)):
            assert X[i].flags.c_contiguous and X[i].base is X
            assert leverage(on_views, X[i]).hex() == leverage(on_copies, X[i].copy()).hex()
            if i % 2:
                rank_one_update(on_views, X[i], 1)
                rank_one_update(on_copies, X[i].copy(), 1)
        for name in ("gram", "gram_inv", "b_vec", "weight"):
            assert getattr(on_views, name).tobytes() == getattr(on_copies, name).tobytes()


class TestRefresh:
    def test_fresh_state_unchanged(self):
        s = gram_init(3, 2.0)
        before = s.copy()
        refresh_inverse(s)
        np.testing.assert_allclose(s.gram_inv, before.gram_inv, atol=1e-15)

    def test_long_alternating_chain_drift(self, monkeypatch):
        monkeypatch.setattr(core_linalg, "DEFAULT_REFRESH_PERIOD", 10**9)  # suppress automatic refreshes
        rng = np.random.default_rng(7)
        s = gram_init(4, 1.0)
        live = []
        for _ in range(10_000):
            if live and rng.random() < 0.5:
                x, y = live.pop(int(rng.integers(len(live))))
                rank_one_downdate(s, x, y)
            else:
                x, y = random_unit(rng, 4), int(rng.choice([-1, 1]))
                rank_one_update(s, x, y)
                live.append((x, y))
        maintained = s.gram_inv.copy()
        refresh_inverse(s)
        assert np.max(np.abs(maintained - s.gram_inv)) < 1e-6

    def test_long_downdate_chain_ends_at_the_fresh_fit(self):
        # 20,000 near-collinear unit vectors push the condition number to about 2e4,
        # then all but 5 are downdated; without the periodic refresh the weights
        # end about 6e-8 from the fresh fit on this chain
        rng = np.random.default_rng(2)
        d, n = 20, 20_000
        base = rng.standard_normal(d)
        X = base / np.linalg.norm(base) + 1e-4 * rng.standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = rng.choice([-1.0, 1.0], size=n)
        s = gram_init(d, 1.0)
        for x, label in zip(X, y):
            rank_one_update(s, x, label)
        for x, label in zip(X[5:], y[5:]):
            rank_one_downdate(s, x, label)
        assert s.downdates_since_refresh == (n - 5) % DEFAULT_REFRESH_PERIOD  # 19 refreshes on the way
        fresh = gram_from_rows(np.ascontiguousarray(X[:5]), y[:5], 1.0)
        assert np.max(np.abs(s.weight - fresh.weight)) < 1e-8

    def test_refresh_accuracy(self):
        rng = np.random.default_rng(8)
        s = gram_init(4, 1.0)
        for _ in range(30):
            rank_one_update(s, random_unit(rng, 4), 1)
        refresh_inverse(s)
        np.testing.assert_allclose(s.gram @ s.gram_inv, np.eye(4), atol=1e-12)

    def test_corrupted_state_raises(self):
        s = gram_init(2, 1.0)
        s.gram[0, 0] = -5.0  # force a negative eigenvalue
        with pytest.raises(CorruptedStateError):
            refresh_inverse(s)


class TestLogDetRatio:
    def test_fresh_is_zero(self):
        assert log_det_ratio(gram_init(3, 2.5)) == 0.0

    def test_scalar_single_update(self):
        s = gram_init(1, 1.0)
        rank_one_update(s, [1.0], 1)
        assert log_det_ratio(s) == pytest.approx(np.log(2.0))

    def test_replay_accumulation_identity_and_floor(self):
        # each update multiplies det by (1 + prior leverage); replay the chain
        # through posterior leverages and compare, then check the sanity floor
        rng = np.random.default_rng(9)
        s = gram_init(4, 1.5)
        acc = 0.0
        priors = []
        for _ in range(40):
            x = random_unit(rng, 4)
            prior = leverage(s, x)
            rank_one_update(s, x, 1)
            post = leverage(s, x)
            acc += np.log(1.0 + post / (1.0 - post))
            priors.append(prior)
        value = log_det_ratio(s)
        assert value == pytest.approx(acc, abs=1e-8)
        floor = sum(priors) / (1.0 + max(priors))
        assert value >= floor - 1e-12


vectors = arrays(
    np.float64,
    (3,),
    elements=st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
)


@settings(max_examples=50, deadline=None)
@given(pts=st.lists(vectors, min_size=1, max_size=12), probe=vectors, extra=vectors)
def test_invariants_hold_along_random_histories(pts, probe, extra):
    """Inverse consistency, downdate monotonicity, and the quadratic-form
    Cauchy-Schwarz inequality along arbitrary update histories."""
    s = gram_init(3, 1.0)
    for x in pts:
        rank_one_update(s, np.asarray(x), 1)
    assert np.max(np.abs(s.gram @ s.gram_inv - np.eye(3))) < 1e-6

    x_i = np.asarray(pts[0])
    lev_probe_before = leverage(s, probe)
    cross = float(x_i @ (s.gram_inv @ np.asarray(extra)))
    assert cross**2 <= leverage(s, x_i) * leverage(s, extra) + 1e-12

    rank_one_downdate(s, x_i, 1)
    assert leverage(s, probe) >= lev_probe_before - 1e-12


@settings(max_examples=50, deadline=None)
@given(pts=st.lists(vectors, min_size=2, max_size=10), idx=st.integers(min_value=0, max_value=9))
def test_update_downdate_roundtrip_property(pts, idx):
    s = gram_init(3, 1.0)
    for x in pts:
        rank_one_update(s, np.asarray(x), -1)
    target = np.asarray(pts[idx % len(pts)])
    before = s.copy()
    rank_one_update(s, target, 1)
    rank_one_downdate(s, target, 1)
    np.testing.assert_allclose(s.gram_inv, before.gram_inv, atol=1e-10)
    np.testing.assert_allclose(s.weight, before.weight, atol=1e-10)
