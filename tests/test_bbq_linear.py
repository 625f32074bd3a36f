import os

import numpy as np
import pytest

from conftest import random_deletion_request, random_linear_instance
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
from coreset_unlearn.bbq_linear import ModelFormatError
from coreset_unlearn.capacity import predicted_deletion_drift
from coreset_unlearn.core_linalg import leverage, log_det_ratio


def ones_stream(n):
    return [LabeledSample(i, [1.0], 1) for i in range(n)]


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
        with pytest.raises(ValueError):
            bbq_fit(ones_stream(4), cap_k=0.5)
        with pytest.raises(ValueError):
            bbq_fit(ones_stream(4), kappa=1.5)

    def test_label_independent_query_sequence(self):
        rng = np.random.default_rng(12)
        ds, m = random_linear_instance(rng, t_max=600)
        flipped = [LabeledSample(s.sample_id, s.x, -s.y) for s in ds.samples]
        m2 = bbq_fit(flipped, cap_k=m.params.cap_k, kappa=m.params.kappa)
        assert [s.sample_id for s in m.coreset] == [s.sample_id for s in m2.coreset]

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
        blob[5] = 9  # version byte
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

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
        assert loaded.coreset_deletions == m.coreset_deletions
        assert loaded.free_deletions == m.free_deletions
        assert system_states_equal(state_of_system(loaded), state_of_system(m), tol=0.0)
