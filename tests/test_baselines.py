import numpy as np
import pytest

from coreset_unlearn import (
    DatasetSpec,
    LabeledSample,
    exact_unlearn,
    gen_dataset,
    ridge_fit,
    ridge_retrain,
    sisa_fit,
    sisa_unlearn,
)
from coreset_unlearn.baselines import sisa_accuracy_batch, sisa_predict_batch, weight_accuracy
from coreset_unlearn.core_linalg import gram_from_rows, gram_init
from coreset_unlearn.datastreams import as_rows


def small_dataset(seed=81, T=300, d=6):
    return gen_dataset(DatasetSpec(kind="realizable-linear", T=T, d=d, seed=seed))


class TestRidge:
    def test_single_sample_scalar(self):
        w = ridge_retrain([LabeledSample(0, [1.0], 1)], lam=1.0)
        assert w[0] == pytest.approx(0.5)

    def test_label_flip_negates_weights(self):
        ds = small_dataset()
        flipped = [LabeledSample(s.sample_id, s.x, -s.y) for s in ds.samples]
        np.testing.assert_allclose(
            ridge_retrain(ds.samples), -ridge_retrain(flipped), atol=1e-10
        )

    def test_direct_solve_matches_incremental(self):
        ds = small_dataset()
        direct = ridge_retrain(ds.samples, lam=2.0)
        incremental = ridge_fit(ds.samples, lam=2.0).weight
        np.testing.assert_allclose(direct, incremental, atol=1e-8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ridge_retrain([])


class TestExactUnlearn:
    def test_empty_request_is_identity(self):
        ds = small_dataset()
        model = ridge_fit(ds.samples)
        before = model.weight.copy()
        exact_unlearn(model, [])
        np.testing.assert_array_equal(model.weight, before)

    def test_delete_everything_zeroes_weights(self):
        ds = small_dataset(T=40)
        model = ridge_fit(ds.samples)
        exact_unlearn(model, [s.sample_id for s in ds.samples])
        np.testing.assert_allclose(model.weight, np.zeros(6), atol=1e-10)

    def test_matches_fresh_solve_on_survivors(self):
        rng = np.random.default_rng(82)
        ds = small_dataset()
        model = ridge_fit(ds.samples)
        u = set(rng.choice([s.sample_id for s in ds.samples], size=60, replace=False).tolist())
        got = exact_unlearn(model, u)
        survivors = [s for s in ds.samples if s.sample_id not in u]
        np.testing.assert_allclose(got, ridge_retrain(survivors), atol=1e-8)

    def test_unknown_ids_ignored(self):
        ds = small_dataset(T=30)
        model = ridge_fit(ds.samples)
        before = model.weight.copy()
        exact_unlearn(model, [10**9])
        np.testing.assert_array_equal(model.weight, before)


class TestSisa:
    def test_single_shard_matches_full_ridge(self):
        ds = small_dataset()
        model = sisa_fit(ds.samples, n_shards=1, seed=3)
        w = ridge_retrain(ds.samples)
        X = ds.X[:50]
        np.testing.assert_array_equal(sisa_predict_batch(model, X), np.where(X @ w < 0.0, -1, 1))

    def test_deletion_touches_exactly_one_shard(self):
        ds = small_dataset()
        model = sisa_fit(ds.samples, n_shards=8, seed=4)
        victim = ds.samples[17].sample_id
        shard = model.assignment[victim]
        before = [st.gram.copy() for st in model.shards]
        sisa_unlearn(model, [victim])
        for i, st in enumerate(model.shards):
            if i == shard:
                assert not np.array_equal(st.gram, before[i])
            else:
                np.testing.assert_array_equal(st.gram, before[i])

    def test_shards_partition_dataset(self):
        ds = small_dataset()
        model = sisa_fit(ds.samples, n_shards=7, seed=5)
        counted = sum(len(r) for r in model.rows)
        assert counted == len(ds.samples)
        assert sorted(np.concatenate(model.rows).tolist()) == list(range(len(ds.samples)))
        assert set(model.assignment) == {s.sample_id for s in ds.samples}
        for shard, r in enumerate(model.rows):
            assert all(model.assignment[sid] == shard for sid in model.ids[r].tolist())

    def test_empty_shard_votes_positive(self):
        samples = [LabeledSample(0, [0.5, 0.0], -1)]
        model = sisa_fit(samples, n_shards=3, seed=6)
        # two shards are empty with zero weights; their tie votes are +1
        assert sisa_predict_batch(model, np.array([[0.0, 1.0]])).tolist() == [1]

    def test_deleted_shard_matches_fresh_shard_solve(self):
        ds = small_dataset()
        model = sisa_fit(ds.samples, n_shards=4, seed=7)
        victim = ds.samples[3].sample_id
        shard = model.assignment[victim]
        size = len(model.rows[shard])
        sisa_unlearn(model, [victim])
        survivors = [ds.samples[i] for i in model.rows[shard].tolist()]
        assert len(survivors) == size - 1
        assert victim not in {s.sample_id for s in survivors}
        np.testing.assert_allclose(
            model.shards[shard].weight, ridge_retrain(survivors), atol=1e-8
        )

    def test_shards_equal_fresh_fits_on_survivors_after_random_deletions(self):
        ds = small_dataset(seed=83, T=400)
        model = sisa_fit(ds.samples, n_shards=5, seed=11, lam=2.0)
        fit_order = [model.ids[r].tolist() for r in model.rows]
        rng = np.random.default_rng(84)
        gone = set()
        shard_of = {sid: shard for shard, order in enumerate(fit_order) for sid in order}
        sample_of = {s.sample_id: s for s in ds.samples}
        for _ in range(6):
            batch = rng.choice([s.sample_id for s in ds.samples], size=15, replace=False).tolist()
            touched = {shard_of[sid] for sid in batch if sid not in gone}
            sisa_unlearn(model, batch)
            gone.update(batch)
            for shard in touched:
                # a retrained shard is a fresh fit on its survivors, bit for bit in every field
                rows = as_rows([sample_of[sid] for sid in fit_order[shard] if sid not in gone])
                fresh = gram_from_rows(rows.X, rows.y, 2.0)
                for field in ("gram", "gram_inv", "b_vec", "weight"):
                    assert getattr(model.shards[shard], field).tobytes() == getattr(fresh, field).tobytes(), field
        by_id = {s.sample_id: s for s in ds.samples}
        for shard, order in enumerate(fit_order):
            survivors = [by_id[sid] for sid in order if sid not in gone]
            assert model.ids[model.rows[shard]].tolist() == [s.sample_id for s in survivors]
            X = np.asarray([s.x for s in survivors]).reshape(-1, 6)
            # same rows in the same order: the Gram matrix is bit-identical
            np.testing.assert_array_equal(model.shards[shard].gram, 2.0 * np.eye(6) + X.T @ X)
            np.testing.assert_allclose(model.shards[shard].weight, ridge_retrain(survivors, lam=2.0), atol=1e-10)
        assert set(model.assignment) == {s.sample_id for s in ds.samples} - gone

    def test_initial_accuracy_close_to_full_ridge(self):
        train = gen_dataset(DatasetSpec(kind="margin", T=4000, d=10, seed=8, gamma=0.1))
        test = gen_dataset(DatasetSpec(kind="margin", T=1500, d=10, seed=9, gamma=0.1, u=tuple(train.u)))
        model = sisa_fit(train.samples, n_shards=16, seed=10)
        full = ridge_retrain(train.samples)
        acc_sisa = sisa_accuracy_batch(model, test.samples)
        acc_full = weight_accuracy(full, test.samples)
        assert acc_sisa >= acc_full - 0.03

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            sisa_fit(small_dataset(T=10).samples, n_shards=0)
        # a numpy TypeError before; the refusal now comes before the samples are read
        for samples in (small_dataset(T=10), object()):
            with pytest.raises(ValueError, match=r"^n_shards must be an integer, got 2\.5$"):
                sisa_fit(samples, n_shards=2.5)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            sisa_fit(small_dataset(T=10), n_shards=2, seed=-1)
        for samples in (small_dataset(T=10), object()):
            with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
                sisa_fit(samples, n_shards=2, seed=1.5)


LAM_ENTRY_POINTS = {
    "ridge_fit": lambda ds, lam: ridge_fit(ds, lam=lam),
    "sisa_fit": lambda ds, lam: sisa_fit(ds, n_shards=2, lam=lam),
    "ridge_retrain": lambda ds, lam: ridge_retrain(ds, lam=lam),
    "gram_init": lambda ds, lam: gram_init(ds.X.shape[1], lam),
    "gram_from_rows": lambda ds, lam: gram_from_rows(ds.X, ds.y, lam),
}


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("entry", list(LAM_ENTRY_POINTS))
def test_a_non_finite_lam_is_refused(entry, lam):
    # NaN passed the old ``lam <= 0`` check and gave NaN weights, inf gave all-zero ones
    with pytest.raises(ValueError, match=f"^lam must be finite, got {lam}$"):
        LAM_ENTRY_POINTS[entry](small_dataset(T=50), lam)
