import dataclasses
import hashlib
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreset_unlearn import (
    DatasetSpec,
    DeletionDistribution,
    FiniteFunctionClass,
    LabeledSample,
    bbq_fit,
    deletion_stream,
    expected_capacity_mc,
    gen_dataset,
    general_bbq_fit,
    load_dataset,
    load_model,
    ridge_fit,
    save_dataset,
    save_model,
)
from coreset_unlearn import bbq_linear, datastreams
from coreset_unlearn.harness import stratified_split
from coreset_unlearn.core_linalg import NORM_SLACK
from coreset_unlearn.datastreams import (
    DatasetFormatError,
    GenerationInfeasibleError,
    Rows,
    as_rows,
    row_dtype,
)


class TestGeneration:
    def test_deterministic_under_seed(self):
        spec = DatasetSpec(kind="margin", T=500, d=8, seed=17, gamma=0.1)
        a, b = gen_dataset(spec), gen_dataset(spec)
        np.testing.assert_array_equal(a.u, b.u)
        for s, t in zip(a.samples, b.samples):
            assert s.sample_id == t.sample_id and s.y == t.y
            np.testing.assert_array_equal(s.x, t.x)

    def test_generator_contract_exhaustive_scan(self):
        ds = gen_dataset(DatasetSpec(kind="margin", T=2000, d=12, seed=18, gamma=0.1))
        assert len(ds.samples) == 2000
        for s in ds.samples:
            assert np.linalg.norm(s.x) <= 1.0 + 1e-9
            assert abs(float(ds.u @ s.x)) > 0.1

    def test_infeasible_margin_raises(self):
        with pytest.raises(GenerationInfeasibleError):
            gen_dataset(DatasetSpec(kind="margin", T=100, d=100, seed=19, gamma=0.99))

    def test_realizable_alignment_statistic(self):
        # labels correlate with the planted direction: law of large numbers
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=10_000, d=5, seed=20))
        stat = float(np.mean([s.y * np.sign(ds.u @ s.x) for s in ds.samples]))
        assert stat > 0.2

    def test_label_calibration_tracks_bin_centers(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=100_000, d=4, seed=21))
        proj = np.array([float(ds.u @ s.x) for s in ds.samples])
        ys = np.array([s.y for s in ds.samples], dtype=np.float64)
        edges = np.quantile(proj, np.linspace(0, 1, 11))
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (proj >= lo) & (proj < hi)
            if mask.sum() < 100:
                continue
            center = proj[mask].mean()
            observed = ys[mask].mean()
            sigma = 2.0 / np.sqrt(mask.sum())  # labels are +-1 valued
            assert abs(observed - center) < 4 * sigma

    def test_clusters_preset_stays_in_ball(self):
        ds = gen_dataset(DatasetSpec(kind="clusters", T=1000, d=6, seed=22))
        for s in ds.samples:
            assert np.linalg.norm(s.x) <= 1.0 + 1e-9

    def test_planted_u_is_respected(self):
        u = tuple(np.eye(3)[0])
        ds = gen_dataset(DatasetSpec(kind="margin", T=100, d=3, seed=23, gamma=0.2, u=u))
        np.testing.assert_array_equal(ds.u, np.asarray(u))

    # planted directions outside the unit ball, a non-finite one included
    BAD_U = [(math.nan, 0.0, 0.0), (3.0, math.nan, 0.0), (2.0, 0.0, 0.0), (math.inf, 0.0, 0.0), (1e200, 0.0, 0.0)]

    @pytest.mark.parametrize("u", BAD_U)
    def test_planted_u_outside_the_ball_rejected(self, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="planted u must satisfy"):
                gen_dataset(DatasetSpec(kind="realizable-linear", T=10, d=3, seed=0, u=u))

    @pytest.mark.parametrize(
        "kw",
        [dict(kind="mystery"), dict(T=0), dict(d=0), dict(gamma=1.0), dict(gamma=-0.1), dict(seed=-1)],
    )
    def test_spec_validation(self, kw):
        base = dict(kind="margin", T=10, d=3, seed=0, gamma=0.1)
        with pytest.raises(ValueError):
            DatasetSpec(**(base | kw))

    @pytest.mark.parametrize("name, value", [("T", 10.5), ("d", 3.0), ("seed", 1.5), ("T", "10")])
    def test_spec_integers_are_refused_where_they_enter(self, name, value):
        # T=10.5 was accepted, and gen_dataset then failed with a numpy TypeError
        base = dict(kind="margin", T=10, d=3, seed=0)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            DatasetSpec(**(base | {name: value}))
        spec = DatasetSpec(**(base | {name: np.int64(base[name])}))
        assert type(getattr(spec, name)) is int and spec == DatasetSpec(**base)


class TestDeletionStreams:
    def test_uniform_full_is_permutation(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=200, d=4, seed=24))
        stream = deletion_stream(ds.samples, DeletionDistribution(kind="uniform"), 200, seed=1)
        assert sorted(stream) == [s.sample_id for s in ds.samples]

    def test_by_label_filter_contract(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=400, d=4, seed=25))
        labels = {s.sample_id: s.y for s in ds.samples}
        negatives = [i for i, y in labels.items() if y == -1]
        stream = deletion_stream(
            ds.samples, DeletionDistribution(kind="by-label", target_label=-1),
            len(negatives), seed=2,
        )
        assert sorted(stream) == sorted(negatives)
        assert all(labels[i] == -1 for i in stream)

    @pytest.mark.parametrize("label", [0, 2, -2, 0.5, None])
    def test_by_label_rejects_a_label_outside_plus_minus_one(self, label):
        with pytest.raises(ValueError, match=f"target_label must be -1 or 1, got {label!r}"):
            DeletionDistribution(kind="by-label", target_label=label)
        DeletionDistribution(kind="uniform", target_label=label)  # read only by by-label

    def test_streams_never_repeat(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=300, d=4, seed=26))
        stream = deletion_stream(ds.samples, DeletionDistribution(kind="uniform"), 150, seed=3)
        assert len(stream) == len(set(stream)) == 150

    def test_deterministic_under_seed(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=300, d=4, seed=27))
        dist = DeletionDistribution(kind="uniform")
        assert deletion_stream(ds.samples, dist, 50, seed=4) == deletion_stream(
            ds.samples, dist, 50, seed=4
        )

    def test_request_exceeding_pool_rejected(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=50, d=3, seed=28))
        with pytest.raises(ValueError, match="eligible"):
            deletion_stream(ds.samples, DeletionDistribution(kind="uniform"), 51, seed=5)

    def test_negative_request_rejected(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=300, d=3, seed=28))
        with pytest.raises(ValueError, match=">= 0"):
            deletion_stream(ds, DeletionDistribution(), -1, seed=0)
        with pytest.raises(ValueError, match="^n must be an integer, got 2.5$"):  # a numpy TypeError before
            deletion_stream(ds, DeletionDistribution(), 2.5, seed=0)

    @pytest.mark.parametrize("kind", ["uniform", "by-label", "weighted"])
    def test_negative_seed_rejected(self, kind):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=30, d=3, seed=28))
        weights = {int(i): 1.0 / 30 for i in ds.ids} if kind == "weighted" else None
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            deletion_stream(ds, DeletionDistribution(kind=kind, weights=weights), 5, seed=-1)
        with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):  # a numpy TypeError before
            deletion_stream(ds, DeletionDistribution(kind=kind, weights=weights), 5, seed=1.5)

    def test_weighted_first_draw_frequencies(self):
        # resample the stream head many times; marginal must match the weights
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=5, d=3, seed=29))
        ids = [s.sample_id for s in ds.samples]
        probs = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
        dist = DeletionDistribution(kind="weighted", weights=dict(zip(ids, probs.tolist())))
        n = 10_000
        counts = np.zeros(5)
        for seed in range(n):
            first = deletion_stream(ds.samples, dist, 1, seed=seed)[0]
            counts[first] += 1
        freq = counts / n
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freq - probs) < 3 * sigma + 1e-12)

    def test_weighted_zero_weight_never_drawn(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=6, d=3, seed=30))
        ids = [s.sample_id for s in ds.samples]
        weights = {i: (0.25 if i < 4 else 0.0) for i in ids}
        dist = DeletionDistribution(kind="weighted", weights=weights)
        stream = deletion_stream(ds.samples, dist, 4, seed=6)
        assert set(stream) == {0, 1, 2, 3}
        with pytest.raises(ValueError, match="weight"):
            deletion_stream(ds.samples, dist, 5, seed=6)

    def test_weighted_validation(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=4, d=3, seed=31))
        with pytest.raises(ValueError, match="sum"):
            deletion_stream(
                ds.samples,
                DeletionDistribution(kind="weighted", weights={0: 0.5, 1: 0.1, 2: 0.1, 3: 0.1}),
                2, seed=0,
            )
        with pytest.raises(ValueError, match="missing"):
            deletion_stream(
                ds.samples, DeletionDistribution(kind="weighted", weights={0: 1.0}), 1, seed=0
            )
        with pytest.raises(ValueError, match="nonnegative"):
            deletion_stream(
                ds.samples,
                DeletionDistribution(kind="weighted", weights={0: float("nan"), 1: 0.5, 2: 0.25, 3: 0.25}),
                2, seed=0,
            )


class TestDatasetIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = gen_dataset(DatasetSpec(kind="margin", T=150, d=7, seed=32, gamma=0.1))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(ds, p1)
        loaded = load_dataset(p1)
        save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for s, t in zip(ds.samples, loaded.samples):
            assert s.sample_id == t.sample_id and s.y == t.y
            np.testing.assert_array_equal(s.x, t.x)
        np.testing.assert_array_equal(ds.u, loaded.u)

    # SHA-256 of save_dataset(gen_dataset(SEEDED_SPEC)), recorded before the row
    # codec was shared with the model file (numpy 2.4, x86-64).
    SEEDED_SPEC = DatasetSpec(kind="margin", T=300, d=5, seed=11, gamma=0.1)
    SEEDED_DATASET_SHA256 = "764d7b33154b77c1ca818fc39b13643565910e40d029f8cf96154cb9b8a1b613"

    def test_seeded_dataset_bytes(self, tmp_path):
        path = tmp_path / "ds.sads"
        save_dataset(gen_dataset(self.SEEDED_SPEC), path)
        blob = path.read_bytes()
        assert len(blob) == 14881 and hashlib.sha256(blob).hexdigest() == self.SEEDED_DATASET_SHA256

    def test_integer_gamma_saves_as_float(self, tmp_path):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=20, d=4, seed=34, gamma=0))
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        assert load_dataset(path).spec == ds.spec and b'"gamma": 0.0' in path.read_bytes()

    def test_header_payload_mismatch_rejected(self, tmp_path):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=20, d=4, seed=34))
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        blob = path.read_bytes()
        lines = blob.split(b"\n", 2)
        header = lines[1].replace(b'"T": 20', b'"T": 21')
        path.write_bytes(lines[0] + b"\n" + header + b"\n" + lines[2])
        with pytest.raises(DatasetFormatError, match="payload"):
            load_dataset(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "ds.bin"
        path.write_bytes(b"WRONG\n{}\n")
        with pytest.raises(DatasetFormatError, match="magic"):
            load_dataset(path)

    @settings(max_examples=30, deadline=None)
    @given(
        T=st.integers(1, 300),
        d=st.integers(1, 24),
        kind=st.sampled_from(["realizable-linear", "margin", "clusters"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_roundtrip_bit_exact_over_shapes(self, tmp_path_factory, T, d, kind, seed):
        gamma = 0.05 if kind == "margin" else 0.0
        ds = gen_dataset(DatasetSpec(kind=kind, T=T, d=d, seed=seed, gamma=gamma))
        path = tmp_path_factory.mktemp("rt") / "ds.bin"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.spec == ds.spec
        for name in ("ids", "X", "y", "u"):
            a, b = getattr(ds, name), getattr(loaded, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert loaded.X.flags.c_contiguous
        assert len(loaded.samples) == T
        for s, t in zip(ds.samples, loaded.samples):
            assert (s.sample_id, s.y) == (t.sample_id, t.y)
            assert s.x.tobytes() == t.x.tobytes()

    def _corrupt(self, tmp_path, edit):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=40, d=5, seed=35))
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        blob = path.read_bytes()
        payload = len(blob) - 40 * row_dtype(5).itemsize
        rows = np.frombuffer(blob, dtype=row_dtype(5), offset=payload).copy()
        path.write_bytes(edit(blob[:payload], rows))
        return path

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda head, rows: head + rows.tobytes() + b"\0", "payload"),
            (lambda head, rows: head + rows.tobytes()[: -rows.itemsize], "payload"),
        ],
        ids=["trailing-bytes", "missing-row"],
    )
    def test_payload_length_rejected(self, tmp_path, edit, match):
        with pytest.raises(DatasetFormatError, match=match):
            load_dataset(self._corrupt(tmp_path, edit))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("y", 0, "label"),
            ("y", 2, "label"),
            ("x", [1.0, 0.5, 0.0, 0.0, 0.0], "exceeds 1"),
            ("x", [np.nan, 0.0, 0.0, 0.0, 0.0], "exceeds 1"),
            ("id", 3, "duplicate"),
        ],
        ids=["label-0", "label-2", "norm-above-1", "nan-row", "duplicate-id"],
    )
    def test_invalid_rows_rejected(self, tmp_path, field, value, match):
        def edit(head, rows):
            rows[17][field] = value
            return head + rows.tobytes()

        with pytest.raises(DatasetFormatError, match=match):
            load_dataset(self._corrupt(tmp_path, edit))

    def test_huge_finite_row_rejected_without_a_warning(self, tmp_path):
        # the norm of a 1e200 coordinate overflows to inf, which fails the norm check
        def edit(head, rows):
            rows[17]["x"] = [1e200, 0.0, 0.0, 0.0, 0.0]
            return head + rows.tobytes()

        path = self._corrupt(tmp_path, edit)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError, match="exceeds 1"):
                load_dataset(path)

    @pytest.mark.parametrize("u", TestGeneration.BAD_U)
    def test_planted_u_outside_the_ball_rejected(self, tmp_path, u):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=10, d=3, seed=33))
        ds = dataclasses.replace(ds, u=np.array(u))
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError, match="planted u must satisfy"):
                load_dataset(path)

    def test_failed_save_leaves_existing_file_intact(self, tmp_path):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=30, d=4, seed=36))
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        before = path.read_bytes()
        broken = gen_dataset(DatasetSpec(kind="realizable-linear", T=30, d=4, seed=37))
        broken = dataclasses.replace(broken, X=broken.X[:, :3])  # rows no longer match the header's d
        with pytest.raises(ValueError):
            save_dataset(broken, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ds.bin"]


class TestRows:
    def test_fields_cannot_be_reassigned(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=30, d=4, seed=39))
        for obj in (ds, ds.take(slice(0, 10))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                obj.X = obj.X[:, :3]
            with pytest.raises(dataclasses.FrozenInstanceError):
                obj.ids = obj.ids[:5]
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.u = np.zeros(4)
        assert ds.X.shape == (30, 4) and len(ds.samples) == 30  # the cached samples still build

    def test_samples_own_their_rows(self, tmp_path):
        ds = gen_dataset(DatasetSpec(kind="margin", T=800, d=6, seed=38, gamma=0.1))
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        for data in (ds, load_dataset(path)):
            model = bbq_fit(data.samples, cap_k=4.0, kappa=0.5)
            assert model.coreset
            assert not any(np.shares_memory(s.x, data.X) for s in model.coreset)

    @pytest.mark.parametrize(
        "row, label, match",
        [([0.5, 0.0, 0.0], 0, "label"), ([0.9, 0.9, 0.0], 1, "exceeds 1"), ([np.nan, 0.0, 0.0], 1, "exceeds 1")],
        ids=["label-0", "norm-above-1", "nan-row"],
    )
    def test_samples_of_invalid_rows_rejected(self, row, label, match):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=20, d=3, seed=42))
        X, y = ds.X.copy(), ds.y.copy()
        X[7], y[7] = row, label
        with pytest.raises(ValueError, match=match):
            Rows(ds.ids, X, y).samples

    def test_samples_equal_checked_construction(self):
        ds = gen_dataset(DatasetSpec(kind="clusters", T=200, d=4, seed=43))
        checked = [LabeledSample(sid, row.copy(), label) for sid, row, label in zip(ds.ids.tolist(), ds.X, ds.y.tolist())]
        for a, b in zip(ds.samples, checked, strict=True):
            assert type(a) is LabeledSample and type(a.sample_id) is int and type(a.y) is int
            assert (a.sample_id, a.y) == (b.sample_id, b.y)
            assert a.x.dtype == b.x.dtype and a.x.tobytes() == b.x.tobytes() and a.x.flags.owndata

    def test_arrays_that_disagree_on_rows_rejected(self):
        ds = gen_dataset(DatasetSpec(kind="margin", T=600, d=5, seed=3, gamma=0.1))
        for ids, X, y in ((ds.ids, ds.X[:10], ds.y), (ds.ids[:-1], ds.X, ds.y), (ds.ids, ds.X, ds.y[:-1])):
            with pytest.raises(ValueError, match=rf"^ids, X and y hold {len(ids)}, {len(X)} and {len(y)} rows$"):
                Rows(ids, X, y)
        with pytest.raises(ValueError, match=r"^X must be 2-D, got shape \(600,\)$"):
            Rows(ds.ids, ds.X[:, 0].copy(), ds.y)
        assert len(Rows(ds.ids[:0], ds.X[:0], ds.y[:0])) == 0

    def test_samples_built_once(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=20, d=3, seed=39))
        assert ds.samples is ds.samples

    def test_as_rows_passes_arrays_through_and_stacks_samples(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=50, d=3, seed=40))
        assert as_rows(ds) is ds
        subset = ds.take(np.arange(10, 20))
        assert as_rows(subset) is subset
        stacked = as_rows(ds.samples[10:20])
        assert isinstance(stacked, Rows) and len(stacked) == 10
        for name in ("ids", "X", "y"):
            a, b = getattr(stacked, name), getattr(subset, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        empty = as_rows([])
        assert len(empty) == 0 and empty.X.shape[0] == 0

    def test_stream_from_arrays_equals_stream_from_samples(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=300, d=4, seed=41))
        for dist in (DeletionDistribution(kind="uniform"), DeletionDistribution(kind="by-label", target_label=1)):
            assert deletion_stream(ds, dist, 60, seed=7) == deletion_stream(ds.samples, dist, 60, seed=7)

    @pytest.mark.parametrize(
        "ids",
        [np.arange(50) - 3, np.arange(50) + 0.5, np.arange(50, dtype=np.float64), np.arange(50) % 2 == 0],
        ids=["negative", "fractional", "float", "bool"],
    )
    def test_ids_a_sample_refuses_are_refused(self, ids):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=50, d=3, seed=44))
        first = int(np.flatnonzero(ids < 0)[0]) if ids.dtype.kind == "i" else 0
        with pytest.raises(ValueError, match=rf"^row {first}: id must be an integer in \[0, 2\*\*64\)$"):
            Rows(ids, ds.X, ds.y)  # so no fit stores an id that a save cannot write or would change
        with pytest.raises(ValueError, match="^sample .*: id must be an integer"):
            LabeledSample(ids[first], ds.X[first], ds.y[first])

    def test_non_negative_int64_ids_are_stored_as_uint64(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=50, d=3, seed=44))
        ids = np.arange(50, dtype=np.int64) * (2**57)  # up to 49 * 2**57, above 2**62
        rows = Rows(ids, ds.X, ds.y)
        assert rows.ids.dtype == np.uint64 and rows.ids.tolist() == ids.tolist()
        assert [s.sample_id for s in bbq_fit(rows, cap_k=2.0).coreset] == [
            s.sample_id for s in bbq_fit(rows.samples, cap_k=2.0).coreset
        ]

    def test_take_with_a_repeated_index_rejected(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=30, d=4, seed=45))
        with pytest.raises(ValueError, match="^duplicate sample ids$"):
            ds.take(np.array([0, 0, 1]))  # its deletion stream would repeat id 0
        assert ds.take(slice(3, 9)).ids.tolist() == list(range(3, 9))
        picked = ds.take(np.array([7, 2, 11]))
        assert picked.ids.tolist() == [7, 2, 11]
        assert sorted(deletion_stream(picked, DeletionDistribution(kind="uniform"), 3, seed=1)) == [2, 7, 11]

    @pytest.mark.parametrize("index", [3, np.int64(3)], ids=["int", "np.int64"])
    def test_take_with_a_scalar_index_rejected(self, index):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=30, d=4, seed=45))
        with pytest.raises(ValueError, match=r"^take needs an index array, mask or slice, got the scalar index (np\.int64\()?3\)?$"):
            ds.take(index)
        assert ds.take([3]).ids.tolist() == [3]

    def test_take_runs_no_row_check(self, monkeypatch):
        # the source rows were checked when built: a take checks only for a
        # repeated row, and only when an index array could repeat one
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=30, d=4, seed=45))
        calls = {"rows": 0, "repeats": 0}
        real_rows, real_repeats = datastreams._check_rows, datastreams._refuse_repeats

        def counted_rows(*args):
            calls["rows"] += 1
            return real_rows(*args)

        def counted_repeats(ids):
            calls["repeats"] += 1
            return real_repeats(ids)

        monkeypatch.setattr(datastreams, "_check_rows", counted_rows)
        monkeypatch.setattr(datastreams, "_refuse_repeats", counted_repeats)
        mask = ds.y == 1
        picked = {
            "index array": ds.take(np.array([7, 2, 11])),
            "index list": ds.take([4, 0]),
            "slice": ds.take(slice(3, 9)),
            "mask": ds.take(mask),
        }
        assert calls == {"rows": 0, "repeats": 2}
        assert picked["index list"].ids.tolist() == [4, 0] and picked["mask"].ids.tolist() == np.flatnonzero(mask).tolist()
        for index in (np.array([0, 5, 0]), [3, 3], [2, -28]):  # -28 is row 2 of 30
            with pytest.raises(ValueError, match="^duplicate sample ids$"):
                ds.take(index)
        with pytest.raises(ValueError, match="^take needs a 1-D index array or mask, got 2 dimensions$"):
            ds.take(np.zeros((2, 2), dtype=int))
        assert calls["rows"] == 0

    def test_take_of_a_stepped_slice_is_c_contiguous(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=30, d=4, seed=45))
        for index in (slice(1, 20, 3), slice(None, None, -2)):
            picked = ds.take(index)
            for name in ("ids", "X", "y"):
                a = getattr(picked, name)
                assert a.flags.c_contiguous and not a.flags.writeable, (index, name)
                assert a.tobytes() == getattr(ds, name)[index].tobytes()
        assert np.shares_memory(ds.take(slice(2, 9)).X, ds.X)  # a contiguous slice is kept as a view

    def test_as_rows_checks_the_ids_once(self, monkeypatch):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=40, d=3, seed=50))
        real, checks = datastreams._refuse_repeats, []

        def counted(ids):
            checks.append(ids.tolist())
            return real(ids)

        monkeypatch.setattr(datastreams, "_refuse_repeats", counted)
        assert as_rows(ds.samples).ids.tolist() == list(range(40))
        assert checks == [list(range(40))]
        repeated = ds.samples[:3] + ds.samples[1:2]
        with pytest.raises(ValueError, match="^duplicate sample ids$"):
            as_rows(repeated)
        assert checks[1:] == [[0, 1, 2, 1]]

    def test_take_and_as_rows_hand_rows_arrays_it_keeps(self, monkeypatch):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=40, d=3, seed=49))
        real, copied = datastreams._read_only, []

        def counted(a, dtype):
            kept = real(a, dtype)
            copied.extend([] if kept is a else [a])
            return kept

        monkeypatch.setattr(datastreams, "_read_only", counted)
        picked = ds.take(np.array([5, 1, 9]))
        stacked = as_rows(ds.samples[:20])
        assert copied == []  # each array built once, then kept
        assert picked.ids.tolist() == [5, 1, 9] and picked.X.tobytes() == ds.X[[5, 1, 9]].tobytes()
        assert stacked.ids.tolist() == list(range(20)) and stacked.X.tobytes() == ds.X[:20].tobytes()
        Rows(ds.ids.copy(), ds.X.copy(), ds.y.copy())
        assert len(copied) == 3  # a caller's writable arrays are still copied

    def test_rows_hold_read_only_arrays(self, tmp_path):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=300, d=4, seed=46))
        save_dataset(ds, tmp_path / "ds.bin")
        save_model(bbq_fit(ds, cap_k=2.0), tmp_path / "m.bin")
        built = []

        class Recorded(Rows):
            def __post_init__(self):
                super().__post_init__()
                built.append(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bbq_linear, "Rows", Recorded)
            model = load_model(tmp_path / "m.bin")
        (core,) = built
        assert len(core) == len(model.coreset) > 0
        sources = {
            "gen_dataset": ds,
            "load_dataset": load_dataset(tmp_path / "ds.bin"),
            "take of a slice": ds.take(slice(10, 40)),
            "take of an index array": ds.take(np.array([5, 1, 9])),
            "take of a mask": ds.take(ds.y == -1),
            "take of a stepped slice": ds.take(slice(1, 40, 4)),
            "as_rows of samples": as_rows(ds.samples[:20]),
            "load_model's core set": core,
        }
        for source, rows in sources.items():
            for name in ("ids", "X", "y"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(rows, name)[0] = 1
                assert not getattr(rows, name).flags.writeable, (source, name)

    def test_a_callers_arrays_keep_their_flags(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=40, d=3, seed=47))
        ids, X, y = ds.ids.copy(), ds.X.copy(), ds.y.copy()
        rows = Rows(ids, X, y)
        for mine, kept in ((ids, rows.ids), (X, rows.X), (y, rows.y)):
            assert mine.flags.writeable and not kept.flags.writeable
            assert not np.shares_memory(mine, kept)  # a later write into the caller's array stays out
        X[0] = 5.0
        assert np.linalg.norm(rows.X[0]) <= 1.0
        again = Rows(rows.ids, rows.X, rows.y)  # read-only arrays in the stored form are kept as they are
        assert again.ids is rows.ids and again.X is rows.X and again.y is rows.y

    def test_rows_at_the_norm_limit_are_judged_as_samples_are(self):
        limit, d = 1.0 + NORM_SLACK, 100
        rng = np.random.default_rng(48)
        scales = limit * (1.0 + np.arange(-64, 64) * 2.0**-53)  # within 64 ulps of the limit
        let_through = []  # rows whose einsum square passes the limit but whose norm fails it
        for _ in range(300):
            x = rng.standard_normal(d)
            X = (x / np.linalg.norm(x))[None, :] * scales[:, None]
            taken = np.array([np.linalg.norm(row) <= limit for row in X])  # the sample's test
            Rows(np.arange(taken.sum()), X[taken], np.ones(taken.sum(), dtype=np.int8))
            let_through += list(X[(np.einsum("ij,ij->i", X, X) <= limit**2) & ~taken])
        assert let_through, "no row where a squared-norm test alone disagrees with the sample's"
        for row in let_through:
            with pytest.raises(ValueError, match="exceeds 1$"):
                LabeledSample(0, row, 1)
            with pytest.raises(ValueError, match="^row 0: .* exceeds 1$"):
                Rows([0], row[None], [1])

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_rows_accept_exactly_what_samples_accept(self, data):
        n, d = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = rng.standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        for i in range(n):
            kind = data.draw(st.sampled_from(["inside", "inside", "at the limit", "nan", "inf", "huge"]))
            if kind == "inside":
                X[i] *= data.draw(st.floats(0.0, 1.0))
            elif kind == "at the limit":
                X[i] *= 1.0 + NORM_SLACK + data.draw(st.floats(-2e-9, 2e-9))
            else:
                X[i, data.draw(st.integers(0, d - 1))] = {"nan": np.nan, "inf": np.inf, "huge": 1e200}[kind]
        y = np.array(data.draw(st.lists(st.sampled_from([-1, 1, -1, 1, 0, 2]), min_size=n, max_size=n)))
        id_kind = data.draw(st.sampled_from(["uint64", "uint64", "int64", "float64"]))
        values = {
            "uint64": st.one_of(st.just(2**64 - 1), st.integers(0, 2**64 - 1)),
            "int64": st.one_of(st.integers(-3, -1), st.integers(0, 2**63 - 1)),
            "float64": st.integers(0, 40).map(lambda k: k / 2),  # fractional and integral
        }[id_kind]
        ids = np.array(data.draw(st.lists(values, min_size=n, max_size=n, unique=True)), dtype=id_kind)
        refused = None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a huge row raises no overflow warning in either form
            for i in range(n):
                try:
                    LabeledSample(ids[i], X[i], y[i])
                except ValueError as exc:
                    refused = i, str(exc).split(": ", 1)[1]
                    break
            if refused is None:
                rows = Rows(ids, X, y)
                assert rows.ids.tolist() == [int(i) for i in ids.tolist()]
                assert rows.X.tobytes() == X.tobytes() and rows.y.tolist() == y.tolist()
            else:
                with pytest.raises(ValueError) as caught:
                    Rows(ids, X, y)
                assert str(caught.value) == f"row {refused[0]}: {refused[1]}"


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    """A small saved dataset: its path, which the fuzz cases overwrite, and its bytes."""
    path = tmp_path_factory.mktemp("fuzz") / "ds.bin"
    save_dataset(gen_dataset(DatasetSpec(kind="margin", T=5, d=2, seed=39, gamma=0.1)), path)
    return path, path.read_bytes()


def _load_bytes(path, blob: bytes) -> bytes:
    """Load ``blob`` as a dataset file and return the bytes ``save_dataset`` writes for it."""
    path.write_bytes(blob)
    save_dataset(load_dataset(path), path)
    return path.read_bytes()


def _loads_or_rejects(path, blob: bytes) -> None:
    """The parser's contract: a typed rejection, or a dataset that saves back to the same bytes."""
    try:
        again = _load_bytes(path, blob)
    except DatasetFormatError:
        return
    assert again == blob


def _rows_offset(blob: bytes) -> int:
    return blob.index(b"\n", len(b"SADS1\n")) + 1


class TestParserFuzz:
    def test_every_truncation_rejected(self, dataset_file):
        path, blob = dataset_file
        for n in range(len(blob)):
            with pytest.raises(DatasetFormatError):
                _load_bytes(path, blob[:n])
        assert _load_bytes(path, blob) == blob

    def test_every_header_bit_flip(self, dataset_file):
        path, blob = dataset_file
        for bit in range(8 * _rows_offset(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            _loads_or_rejects(path, bytes(flipped))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_record_bit_flips(self, dataset_file, data):
        path, blob = dataset_file
        flipped = bytearray(blob)
        for bit in data.draw(st.lists(st.integers(8 * _rows_offset(blob), 8 * len(blob) - 1), min_size=1, max_size=3)):
            flipped[bit // 8] ^= 1 << (bit % 8)
        _loads_or_rejects(path, bytes(flipped))

    @pytest.mark.parametrize(
        "old, new, match",
        [
            (b'"T": 5', b'"T": Infinity', "malformed"),
            (b'"T": 5', b'"T": "5"', "form"),
            (b'"gamma": 0.1', b'"gamma": 0.10', "form"),
            (b'"gamma": 0.1', b'"gamma": 0', "form"),
            (b'"seed": 39', b'"seed": -39', "seed"),
        ],
        ids=["infinite-T", "T-as-string", "long-gamma", "integer-gamma", "negative-seed"],
    )
    def test_header_that_would_not_save_back_rejected(self, dataset_file, old, new, match):
        path, blob = dataset_file
        with pytest.raises(DatasetFormatError, match=match):
            _load_bytes(path, blob.replace(old, new, 1))

    lies = st.integers() | st.floats() | st.sampled_from([math.inf, math.nan]) | st.text(max_size=3) | st.booleans() | st.none()

    @settings(max_examples=100, deadline=None)
    @given(T=st.integers(-2, 30) | lies, d=st.integers(-2, 6) | lies)
    def test_lying_T_and_d(self, dataset_file, T, d):
        path, blob = dataset_file
        magic, header, rows = blob.split(b"\n", 2)
        fields = json.loads(header) | {"T": T, "d": d}
        _loads_or_rejects(path, b"\n".join([magic, json.dumps(fields, sort_keys=True).encode(), rows]))


ONES = [LabeledSample(i, [1.0], 1) for i in range(16)]  # bbq_fit at cap_k 1 queries ids 0-3 of these only
REPEATED_ID = {
    "queried": [LabeledSample(0, [0.5], 1), LabeledSample(0, [0.1], -1), LabeledSample(1, [0.3], -1)],
    "never queried": ONES + [LabeledSample(10, [1.0], -1)],
}
SAMPLE_LIST_READERS = {
    "bbq_fit": lambda samples: bbq_fit(samples, cap_k=1.0, kappa=0.5),
    "general_bbq_fit": lambda samples: general_bbq_fit(samples, FiniteFunctionClass([lambda s: 0.0, lambda s: 1.0])),
    "deletion_stream": lambda samples: deletion_stream(samples, DeletionDistribution(), 2, seed=1),
    "stratified_split": lambda samples: stratified_split(samples, 0.5, seed=1),
    "as_rows": as_rows,
    "ridge_fit": ridge_fit,
    "expected_capacity_mc": lambda samples: expected_capacity_mc(samples, DeletionDistribution(), 1, 1, seed=1),
}


@pytest.mark.parametrize("repeat", sorted(REPEATED_ID))
@pytest.mark.parametrize("reader", sorted(SAMPLE_LIST_READERS))
def test_every_sample_list_reader_refuses_a_repeated_id(reader, repeat):
    samples = REPEATED_ID[repeat]
    if repeat == "never queried":
        assert 10 not in bbq_fit(samples[:-1], cap_k=1.0, kappa=0.5, horizon=len(samples)).coreset_ids
    with pytest.raises(ValueError, match="^duplicate sample ids$"):
        SAMPLE_LIST_READERS[reader](samples)
