import functools
import hashlib
import math
import os
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import random_deletion_request, random_linear_instance, random_samples
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
    BBQParams,
    CoreSet,
    ModelFormatError,
    ModelState,
    row_dtype,
)
from coreset_unlearn.datastreams import DeletionDistribution, deletion_stream
from coreset_unlearn.capacity import predicted_deletion_drift
from coreset_unlearn.core_linalg import DEFAULT_REFRESH_PERIOD, GramState, leverage, log_det_ratio


def ones_stream(n):
    return [LabeledSample(i, [1.0], 1) for i in range(n)]


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

    def test_boundary_leverage_does_not_query(self):
        m = bbq_fit(ones_stream(16), cap_k=1.0, kappa=0.5)
        assert m.query_log[3].leverage == pytest.approx(0.25)
        assert not m.query_log[3].queried

    def test_zero_vectors_never_queried(self):
        stream = [LabeledSample(i, [0.0, 0.0], 1) for i in range(10)]
        m = bbq_fit(stream, cap_k=1.0, kappa=0.5)
        assert m.coreset == []
        np.testing.assert_array_equal(m.weight, np.zeros(2))

    def test_query_count_bounded_by_log_det(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=2000, d=10, seed=11))
        m = bbq_fit(ds.samples, cap_k=1.0, kappa=0.5)
        bound = 2000**0.5 * log_det_ratio(m.gram_state)
        assert len(m.coreset) <= bound

    def test_query_log_records_decision_leverages(self):
        rng = np.random.default_rng(27)
        ds, m = random_linear_instance(rng, t_max=500)
        threshold = m.params.query_threshold
        assert len(m.query_log) == len(ds.samples)
        queried = {s.sample_id for s in m.coreset}
        for rec in m.query_log:
            assert rec.queried == (rec.sample_id in queried)
            assert rec.queried == (rec.leverage > threshold)

    def test_gram_matches_direct_recomputation(self):
        rng = np.random.default_rng(28)
        ds, m = random_linear_instance(rng, t_max=500)
        direct = m.params.lam * np.eye(m.dim)
        for s in m.coreset:
            direct += np.outer(s.x, s.x)
        assert np.max(np.abs(m.gram_state.gram - direct)) < 1e-8

    def test_empty_stream_needs_explicit_shape(self):
        with pytest.raises(ValueError):
            bbq_fit([])
        m = bbq_fit([], cap_k=2.0, kappa=0.5, horizon=100, dim=3)
        assert m.coreset == [] and m.dim == 3

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

    def test_repeated_sample_id_rejected(self):
        queried_twice = [LabeledSample(0, [0.5], 1), LabeledSample(0, [0.1], -1)]
        never_queried_twice = ones_stream(16) + [LabeledSample(10, [1.0], 1)]
        for stream in (queried_twice, never_queried_twice):
            with pytest.raises(ValueError, match="repeat"):
                bbq_fit(stream, cap_k=1.0, kappa=0.5)

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


def query_log_digest(log) -> str:
    h = hashlib.sha256()
    for rec in log:
        h.update(f"{rec.sample_id},{rec.leverage.hex()},{rec.queried}\n".encode())
    return h.hexdigest()


class TestQueryLog:
    """The sampler's decisions and the exact leverages behind them, pinned."""

    # name: (stream, cap_k, kappa, SHA-256 of the (id, leverage.hex(), queried) records)
    INSTANCES = {
        "realizable-linear": (
            lambda: gen_dataset(DatasetSpec(kind="realizable-linear", T=3000, d=10, seed=61)).samples,
            2.0, 0.5, "f1d7284d351445cbabc003dce0feeb796e7ce9747eb371ebe4865bda1516259f",
        ),
        "margin": (
            lambda: gen_dataset(DatasetSpec(kind="margin", T=3000, d=20, gamma=0.1, seed=62)).samples,
            32.0, 0.5, "c43d7a51070f63e253e78fc1db3a88120e58035b27dc2108fadd35218fab999f",
        ),
        "ones at the threshold": (
            lambda: ones_stream(16),
            1.0, 0.5, "5adbe57cad362ea73b4c61bfc8b2b3e5bdf9a1c4719e40e5ef3e5d36b6de0227",
        ),
    }

    @pytest.mark.parametrize("name", list(INSTANCES))
    def test_records_are_pinned(self, name):
        make, cap_k, kappa, sha = self.INSTANCES[name]
        stream = make()
        m = bbq_fit(stream, cap_k=cap_k, kappa=kappa)
        log = m.query_log
        assert query_log_digest(log) == sha
        assert len(log) == len(stream)
        assert [r.sample_id for r in log if r.queried] == [s.sample_id for s in m.coreset]
        records = list(log)
        assert [log[i] for i in range(len(log))] == records
        assert log[-1] == records[-1] and log[-len(log)] == records[0]
        assert log[2:7] == records[2:7] and log[::-5] == records[::-5] and log[:] == records
        for bad in (len(log), -len(log) - 1):
            with pytest.raises(IndexError):
                log[bad]

    def test_loaded_model_has_an_empty_log(self, tmp_path):
        m = bbq_fit(ones_stream(16), cap_k=1.0, kappa=0.5)
        save_model(m, tmp_path / "m.saul")
        log = load_model(tmp_path / "m.saul").query_log
        assert len(log) == 0 and list(log) == [] and log[:] == []
        with pytest.raises(IndexError):
            log[0]


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
        assert m.coreset == []

    def test_matches_fresh_fit_on_survivors(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            ds, m = random_linear_instance(rng, t_max=800)
            u = random_deletion_request(rng, ds, m)
            fresh = bbq_fit(
                [s for s in m.coreset if s.sample_id not in u],
                cap_k=m.params.cap_k,
                kappa=m.params.kappa,
                horizon=m.params.horizon,
                dim=m.dim,
            )
            deletion_update(m, u)
            assert system_states_equal(state_of_system(m), state_of_system(fresh))

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

    def test_drift_identity_on_probes(self):
        rng = np.random.default_rng(19)
        ds, m = random_linear_instance(rng, t_max=600)
        if not m.coreset:
            pytest.skip("instance queried nothing")
        probes = [s.x for s in ds.samples[:50]]
        victim = m.coreset[len(m.coreset) // 2]
        predicted = [predicted_deletion_drift(m.gram_state, victim.x, victim.y, p) for p in probes]
        before = [float(m.weight @ p) for p in probes]
        deletion_update(m, {victim.sample_id})
        for p, b, pred in zip(probes, before, predicted):
            observed = float(m.weight @ p) - b
            assert observed == pytest.approx(pred, abs=1e-8)


class TestCoreSet:
    def test_sequence_surface(self):
        items = random_samples(np.random.default_rng(40), 6, 3)
        cs = CoreSet(items[:5])
        assert len(cs) == 5 and list(cs) == items[:5]
        assert cs[0] is items[0] and cs[2] is items[2] and cs[-1] is items[4] and cs[-5] is items[0]
        for index in (5, -6):
            with pytest.raises(IndexError):
                cs[index]
        assert cs[1:4] == items[1:4] and cs[::-2] == items[4::-2] and cs[:0] == []
        assert cs == items[:5] and cs == tuple(items[:5]) and cs == CoreSet(items[:5])
        assert cs != items[:4] and cs != items[1:6]
        assert CoreSet() == [] and not CoreSet() and cs
        cs.append(items[5])
        assert len(cs) == 6 and cs[-1] is items[5]
        assert cs.pop() is items[5] and cs == items[:5]
        with pytest.raises(ValueError, match="already"):
            cs.append(items[0])
        assert cs.by_id(items[3].sample_id) is items[3]
        assert cs.remove(items[1].sample_id) is items[1]
        assert cs == [items[0]] + items[2:5]
        assert cs.in_fit_order({items[4].sample_id, items[0].sample_id}) == [items[0].sample_id, items[4].sample_id]

    def test_fit_order_kept_after_deletions(self):
        rng = np.random.default_rng(41)
        ds, m = random_linear_instance(rng, t_max=800)
        fitted = [s.sample_id for s in m.coreset]
        assert fitted == [r.sample_id for r in m.query_log if r.queried]
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

    def test_batch_equals_single_deletions_in_fit_order(self):
        # a short refresh period puts inverse refreshes inside the batch, so
        # the order of the downdates shows in the bits
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=3000, d=6, seed=42))
        batch, single = (bbq_fit(ds.samples, cap_k=2.0, kappa=0.5) for _ in range(2))
        batch.gram_state.refresh_period = single.gram_state.refresh_period = 8
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
        assert batch.coreset == list(single.coreset) and batch.coreset_ids == single.coreset_ids

    def test_single_deletions_never_iterate_the_core_set(self, monkeypatch):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=2000, d=5, seed=44))
        m = bbq_fit(ds.samples, cap_k=2.0, kappa=0.5)
        core = [s.sample_id for s in m.coreset]
        outsider = next(s.sample_id for s in ds.samples if s.sample_id not in m.coreset_ids)

        def no_scan(self, *args):
            raise AssertionError("deletion_update scanned the core set")

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

    def test_equality_compares_id_label_and_features(self):
        s = LabeledSample(3, [0.5, 0.0], -1)
        assert s == LabeledSample(3, [0.5, 0.0], -1)
        assert s != LabeledSample(3, [0.5, 0.1], -1)
        assert s != LabeledSample(4, [0.5, 0.0], -1)
        assert s != LabeledSample(3, [0.5, 0.0], 1)


class TestReplay:
    def test_empty_request_reproduces_state(self):
        rng = np.random.default_rng(20)
        ds, m = random_linear_instance(rng, t_max=600)
        replay = replay_on_coreset(m, set())
        assert replay.coreset_ids == m.coreset_ids
        np.testing.assert_allclose(replay.weight, m.weight, atol=1e-8)

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
        assert (loaded.coreset == m.coreset) is True

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
        assert loaded.fit_weight.tobytes() == m.weight.tobytes()
        assert loaded.params == m.params and loaded.coreset_ids == m.coreset_ids
        assert (loaded.coreset_deletions, loaded.free_deletions) == (0, 0)
        assert loaded.gram_state.downdates_since_refresh == m.gram_state.downdates_since_refresh == 0
        for a, b in zip(loaded.coreset, m.coreset, strict=True):
            assert type(a) is LabeledSample and (a.sample_id, a.y) == (b.sample_id, b.y)
            assert type(a.sample_id) is int and type(a.y) is int
            assert a.x.tobytes() == b.x.tobytes() and a.x.flags.owndata

    def test_saved_state_is_the_fresh_fit_state(self, tmp_path):
        m = seeded_model()
        m.gram_state.refresh_period = 7
        incremental = m.gram_state.copy()
        save_model(m, tmp_path / "m.saul")
        fresh = replay_on_coreset(m, [])
        np.testing.assert_allclose(m.gram_state.gram, fresh.gram_state.gram, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.weight, fresh.weight, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.weight, incremental.weight, rtol=0, atol=1e-12)
        assert (m.gram_state.refresh_period, m.gram_state.downdates_since_refresh) == (7, 0)

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
        m = ModelState(g, CoreSet(), BBQParams(horizon=10, kappa=0.5, cap_k=2.0), [], np.zeros(0))
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
    m.gram_state.refresh_period = refresh_period
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
