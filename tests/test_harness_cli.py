import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from coreset_unlearn import (
    DatasetSpec,
    ExperimentConfig,
    bbq_fit,
    emit_report,
    erm_fit,
    gen_dataset,
    general_deletion_update,
    ridge_fit,
    run_experiment,
)
from coreset_unlearn import bbq_linear, capacity, core_linalg, general_bbq, harness, verify
from coreset_unlearn.baselines import exact_unlearn, weight_accuracy
from coreset_unlearn.bbq_linear import _HEADER, deletion_update, replay_on_coreset, state_of_system, system_states_equal
from coreset_unlearn.capacity import CapacityParams, coreset_capacity, predicted_deletion_drift
from coreset_unlearn.cli import _build_parser, cli_main
from coreset_unlearn.datastreams import DeletionDistribution, deletion_stream
from coreset_unlearn.harness import stratified_split


def small_config(**overrides):
    base = dict(
        dataset=DatasetSpec(kind="margin", T=1500, d=8, seed=2, gamma=0.1),
        kappa=0.5,
        cap_k=4.0,
        shards=4,
        deletion_fraction=0.3,
        cadence=100,
        seed=2,
        gate_policy="halt",
    )
    return ExperimentConfig(**(base | overrides))


class TestSplit:
    def test_stratified_and_disjoint(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=2000, d=5, seed=1))
        train, test = stratified_split(ds.samples, 0.2, seed=9)
        assert len(train) + len(test) == 2000
        assert {s.sample_id for s in train}.isdisjoint({s.sample_id for s in test})
        for label in (-1, 1):
            total = sum(1 for s in ds.samples if s.y == label)
            held = sum(1 for s in test if s.y == label)
            assert held == int(round(total * 0.2))

    def test_train_preserves_stream_order(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=500, d=4, seed=3))
        train, _ = stratified_split(ds.samples, 0.2, seed=4)
        ids = [s.sample_id for s in train]
        assert ids == sorted(ids)

    def test_split_rows_rejects_a_negative_seed(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=50, d=3, seed=3))
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            harness.split_rows(ds.y, 0.2, -1)
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):  # a numpy TypeError before
            harness.split_rows(ds.y, 0.2, 1.5)

    def test_stratified_split_rejects_a_negative_seed(self):
        ds = gen_dataset(DatasetSpec(kind="realizable-linear", T=50, d=3, seed=3))
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            stratified_split(ds.samples, 0.2, seed=-1)


class TestRunExperiment:
    @pytest.mark.parametrize("fraction, sizes", [(0.2, "2 train and 0 test"), (0.9, "0 train and 2 test")])
    def test_empty_split_rejected_with_its_sizes(self, fraction, sizes):
        cfg = small_config(dataset=DatasetSpec(kind="realizable-linear", T=2, d=3, seed=2), test_fraction=fraction)
        with pytest.raises(ValueError, match=f"^the split leaves {sizes} samples"):
            run_experiment(cfg)

    def test_zero_deletions_single_point_curve(self):
        rep = run_experiment(small_config(deletion_count=0))
        for method in rep.methods.values():
            assert method.accuracy_curve == [(0, method.accuracy_curve[0][1])]
            assert method.deletion_time == 0.0

    def test_single_method_passthrough_matches_direct_measurement(self):
        cfg = small_config(methods=("retrain",))
        rep = run_experiment(cfg)
        ds = gen_dataset(cfg.dataset)
        train, test = stratified_split(ds.samples, cfg.test_fraction, cfg.seed)
        model = ridge_fit(train, lam=cfg.ridge_lambda)
        assert rep.methods["retrain"].accuracy_curve[0][1] == pytest.approx(
            weight_accuracy(model.weight, test)
        )
        stream = deletion_stream(
            train,
            DeletionDistribution(kind="by-label", target_label=-1),
            rep.n_deletions,
            seed=cfg.seed + 1,
        )
        exact_unlearn(model, stream)
        assert rep.methods["retrain"].accuracy_curve[-1][1] == pytest.approx(
            weight_accuracy(model.weight, test)
        )

    def test_memory_proxy_accounting(self):
        rep = run_experiment(small_config())
        assert rep.methods["retrain"].stored_fraction == 1.0
        assert rep.methods["sisa"].stored_fraction == 1.0
        bbq = rep.methods["bbq"]
        assert 0.0 < bbq.stored_fraction < 1.0
        d = 8
        assert bbq.model_scalars == 2 * d * d + 2 * d
        assert rep.methods["sisa"].model_scalars == 4 * (2 * d * d + 2 * d)

    def test_deletions_come_from_train_split_only(self):
        cfg = small_config()
        rep = run_experiment(cfg)
        ds = gen_dataset(cfg.dataset)
        train, test = stratified_split(ds.samples, cfg.test_fraction, cfg.seed)
        stream = deletion_stream(
            train,
            DeletionDistribution(kind="by-label", target_label=-1),
            rep.n_deletions,
            seed=cfg.seed + 1,
        )
        test_ids = {s.sample_id for s in test}
        assert test_ids.isdisjoint(stream)

    def test_deterministic_curves_across_runs(self):
        cfg = small_config()
        a, b = run_experiment(cfg), run_experiment(cfg)
        for name in cfg.methods:
            assert a.methods[name].accuracy_curve == b.methods[name].accuracy_curve
            assert a.methods[name].coreset_deletions == b.methods[name].coreset_deletions

    def test_halt_policy_freezes_curve(self):
        rep = run_experiment(small_config(cap_k=2.0, deletion_fraction=0.4))
        bbq = rep.methods["bbq"]
        if bbq.halted_at is None:
            pytest.skip("gate never exhausted on this instance")
        frozen = {acc for k, acc in bbq.accuracy_curve if k >= bbq.halted_at}
        assert len(frozen) == 1

    def test_halt_repeats_the_accuracy_of_the_model_at_the_halt(self):
        cfg = small_config(dataset=DatasetSpec(kind="margin", T=1500, d=8, seed=4, gamma=0.1), seed=4, cap_k=2.0,
                           deletion_fraction=0.4, methods=("bbq",))
        rep = run_experiment(cfg)
        bbq = rep.methods["bbq"]
        assert bbq.halted_at == 25
        train, test = stratified_split(gen_dataset(cfg.dataset).samples, cfg.test_fraction, cfg.seed)
        stream = deletion_stream(train, DeletionDistribution(kind="by-label", target_label=-1), rep.n_deletions,
                                 seed=cfg.seed + 1)
        model = bbq_fit(train, cap_k=cfg.cap_k, kappa=cfg.kappa)
        for sid in stream[:25]:
            deletion_update(model, [sid])
        frozen = weight_accuracy(model.weight, test)
        assert bbq.accuracy_curve[0] == (0, 0.64) and frozen == pytest.approx(0.6367, abs=1e-4)
        after = [acc for k, acc in bbq.accuracy_curve if k > bbq.halted_at]
        assert after == [frozen] * 5

    def test_refit_policy_processes_whole_stream(self):
        rep = run_experiment(small_config(gate_policy="refit"))
        bbq = rep.methods["bbq"]
        assert bbq.halted_at is None
        assert bbq.free_deletions + bbq.coreset_deletions == rep.n_deletions

    def test_refit_and_plain_deletion_agree_on_state(self):
        # a refit on the surviving core set reproduces the downdated weights,
        # so both policies walk the same accuracy trajectory until a halt
        cfg_refit = small_config(gate_policy="refit")
        rep = run_experiment(cfg_refit)
        ds = gen_dataset(cfg_refit.dataset)
        train, test = stratified_split(ds.samples, cfg_refit.test_fraction, cfg_refit.seed)
        from coreset_unlearn.bbq_linear import deletion_update
        model = bbq_fit(train, cap_k=cfg_refit.cap_k, kappa=cfg_refit.kappa)
        stream = deletion_stream(
            train,
            DeletionDistribution(kind="by-label", target_label=-1),
            rep.n_deletions,
            seed=cfg_refit.seed + 1,
        )
        deletion_update(model, stream)
        assert rep.methods["bbq"].accuracy_curve[-1][1] == pytest.approx(
            weight_accuracy(model.weight, test), abs=1e-9
        )

    # bbq outputs of small_config(gate_policy="refit") recorded while every
    # exhaustion still replayed bbq_fit on the surviving core set
    REFIT_EXHAUSTED_AT = [
        1, 10, 24, 38, 48, 62, 83, 85, 96, 105, 110, 114, 117, 120, 123, 134, 143, 150, 157, 166, 169, 172,
        176, 178, 194, 207, 218, 231, 235, 253, 257, 259, 263, 270, 277, 283, 286, 296, 304, 312, 316, 329,
        339, 357,
    ]
    REFIT_CURVE = [
        (0, 0.73), (100, 0.7233333333333334), (200, 0.7266666666666667), (300, 0.73), (360, 0.7233333333333334),
    ]

    def test_refit_policy_reproduces_replay_outputs(self):
        bbq = run_experiment(small_config(gate_policy="refit")).methods["bbq"]
        assert bbq.gate_events == [f"exhausted@{pos}" for pos in self.REFIT_EXHAUSTED_AT]
        assert bbq.accuracy_curve == self.REFIT_CURVE
        assert (bbq.coreset_deletions, bbq.free_deletions) == (89, 271)

    # sisa and retrain outputs of small_config(), recorded while both baselines
    # still kept per-sample lists and ridge_fit ran one rank-one update per row
    BASELINE_REPORTS = {
        "sisa": (1.0, 576, [
            (0, 0.73), (100, 0.7333333333333333), (200, 0.7333333333333333), (300, 0.7333333333333333),
            (360, 0.7333333333333333),
        ]),
        "retrain": (1.0, 144, [(0, 0.7366666666666667), (100, 0.7333333333333333), (200, 0.73), (300, 0.72), (360, 0.73)]),
    }

    def test_baselines_reproduce_recorded_reports(self):
        rep = run_experiment(small_config(methods=("sisa", "retrain")))
        assert (rep.train_size, rep.n_deletions) == (1200, 360)
        for name, (stored, scalars, curve) in self.BASELINE_REPORTS.items():
            got = rep.methods[name]
            assert (got.stored_fraction, got.model_scalars, got.accuracy_curve) == (stored, scalars, curve)

    # to_json_dict() of small_config() without its two timings, recorded while
    # each method had its own replay loop and the JSON fields were listed by hand
    RECORDED_REPORT = {
        "report_version": 1, "train_size": 1200, "test_size": 300, "n_deletions": 360,
        "config": {
            "dataset": {"kind": "margin", "T": 1500, "d": 8, "seed": 2, "gamma": 0.1, "u": None},
            "methods": ["bbq", "sisa", "retrain"], "kappa": 0.5, "cap_k": 4.0, "delta": 0.05, "shards": 4,
            "ridge_lambda": 1.0, "deletion_kind": "by-label", "deletion_target_label": -1,
            "deletion_fraction": 0.3, "deletion_count": None, "cadence": 100, "seed": 2, "test_fraction": 0.2,
            "gate_policy": "halt",
        },
        "methods": {
            "bbq": {
                "stored_fraction": 0.24583333333333332, "model_scalars": 144,
                "accuracy_curve": [[0, 0.73], [100, 0.73], [200, 0.73], [300, 0.73], [360, 0.73]],
                "coreset_deletions": 1, "free_deletions": 0, "gate_events": ["exhausted@1"], "halted_at": 1,
            },
            "sisa": {
                "stored_fraction": 1.0, "model_scalars": 576,
                "accuracy_curve": [[0, 0.73], [100, 0.7333333333333333], [200, 0.7333333333333333],
                                   [300, 0.7333333333333333], [360, 0.7333333333333333]],
                "coreset_deletions": 0, "free_deletions": 0, "gate_events": [], "halted_at": None,
            },
            "retrain": {
                "stored_fraction": 1.0, "model_scalars": 144,
                "accuracy_curve": [[0, 0.7366666666666667], [100, 0.7333333333333333], [200, 0.73], [300, 0.72],
                                   [360, 0.73]],
                "coreset_deletions": 0, "free_deletions": 0, "gate_events": [], "halted_at": None,
            },
        },
    }

    def test_report_json_reproduces_recorded_report(self):
        doc = run_experiment(small_config()).to_json_dict()
        for rep in doc["methods"].values():
            assert rep.pop("train_time") > 0 and rep.pop("deletion_time") > 0
        assert doc == self.RECORDED_REPORT

    def test_refit_policy_never_replays_the_coreset(self, monkeypatch):
        fits = []

        def counting_fit(*args, **kwargs):
            fits.append(kwargs)
            return bbq_fit(*args, **kwargs)

        monkeypatch.setattr(harness, "bbq_fit", counting_fit)
        bbq = run_experiment(small_config(gate_policy="refit", methods=("bbq",))).methods["bbq"]
        assert len(bbq.gate_events) == 44
        assert len(fits) == 2  # the discarded warm-up and the timed fit

    def test_every_gate_state_starts_from_a_fresh_fit_on_survivors(self, monkeypatch):
        # at the fit and at every refit-policy rebase, the model is a fresh fit
        # on its surviving core set and the new gate state's reference is that
        # fit's weights
        models, rebases = [], []
        gate_state = capacity.MetricSet

        def recording_fit(*args, **kwargs):
            models.append(bbq_fit(*args, **kwargs))
            return models[-1]

        def recording_gate_state(reference):
            model = models[-1]
            refit = replay_on_coreset(model, [])
            assert system_states_equal(state_of_system(model), state_of_system(refit))
            assert np.max(np.abs(reference - refit.weight)) <= 1e-8
            assert model.gram_state.downdates_since_refresh == 0
            assert reference is not model.weight
            rebases.append((model.coreset_deletions, model.free_deletions))
            return gate_state(reference)

        monkeypatch.setattr(harness, "bbq_fit", recording_fit)
        monkeypatch.setattr(capacity, "MetricSet", recording_gate_state)
        bbq = run_experiment(small_config(gate_policy="refit", methods=("bbq",))).methods["bbq"]
        assert len(rebases) == 1 + len(bbq.gate_events) == 45
        assert rebases[0] == (0, 0) and rebases[-1][0] > 0 and rebases[-1][1] > 0

    def test_gate_skip_is_reported_when_everything_is_queried(self):
        cfg = ExperimentConfig(
            dataset=DatasetSpec(kind="realizable-linear", T=20, d=20, seed=3),
            methods=("bbq",), cap_k=1.0, kappa=1.0, cadence=2, gate_policy="refit",
        )
        rep = run_experiment(cfg)
        bbq = rep.methods["bbq"]
        assert bbq.stored_fraction == (rep.train_size - rep.n_deletions) / rep.train_size
        assert bbq.gate_events == ["gate-skipped: no unqueried probe points"]
        assert bbq.coreset_deletions == rep.n_deletions > 0

    def test_default_gate_policy_matches_cli(self):
        cli_default = _build_parser().parse_args(["bench", "--out", "x"]).gate_policy
        assert ExperimentConfig(dataset="unused.bin").gate_policy == cli_default

    def test_config_validation(self):
        with pytest.raises(ValueError, match="method"):
            small_config(methods=())
        with pytest.raises(ValueError, match="unknown"):
            small_config(methods=("bbq", "mystery"))
        with pytest.raises(ValueError, match="cadence"):
            small_config(cadence=0)
        with pytest.raises(ValueError, match="gate_policy"):
            small_config(gate_policy="shrug")
        with pytest.raises(ValueError, match="seed"):
            small_config(seed=-1)
        with pytest.raises(ValueError, match="must not repeat"):
            small_config(methods=("bbq", "bbq"))
        with pytest.raises(ValueError, match="unknown deletion distribution kind 'bogus'"):
            small_config(deletion_kind="bogus")
        with pytest.raises(ValueError, match="target_label must be -1 or 1, got 0"):
            small_config(deletion_kind="by-label", deletion_target_label=0)
        with pytest.raises(ValueError, match="weighted deletion distribution needs weights"):
            small_config(deletion_kind="weighted")
        # refused by name before any data is loaded, not by a TypeError from deep in the run
        for field, value in (("cadence", 2.5), ("shards", 2.5), ("deletion_count", 2.5), ("seed", 1.5)):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
                small_config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("kappa", 1.5), ("kappa", -0.1), ("cap_k", 0.5), ("cap_k", float("nan")), ("cap_k", float("inf")),
        ("delta", 0.0), ("delta", 1.0), ("delta", float("nan")), ("shards", 0),
        ("ridge_lambda", 0.0), ("ridge_lambda", -1.0), ("ridge_lambda", float("nan")),
    ])
    def test_setting_outside_its_range_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must "):
            small_config(**{field: value})

    @pytest.mark.parametrize("overrides", [
        {"deletion_fraction": -0.1}, {"deletion_fraction": 1.1}, {"deletion_count": -1},
    ])
    def test_deletion_amount_outside_its_range_rejected(self, overrides):
        with pytest.raises(ValueError, match="deletion_"):
            small_config(**overrides)


@pytest.fixture(scope="module")
def report():
    return run_experiment(small_config(cadence=150))


class TestReports:
    def test_emit_csv_layout(self, report, tmp_path):
        paths = emit_report(report, str(tmp_path / "rep"))
        csvs = [p for p in paths if p.endswith(".csv")]
        assert len(csvs) == len(report.methods)
        for path in csvs:
            lines = Path(path).read_text().splitlines()
            assert lines[0] == "deletions,accuracy,method"
            method = path.rsplit("_", 1)[1].removesuffix(".csv")
            assert len(lines) - 1 == len(report.methods[method].accuracy_curve)
            assert all(line.endswith(f",{method}") for line in lines[1:])

    def test_emit_json_roundtrip(self, report, tmp_path):
        emit_report(report, str(tmp_path / "rep"))
        doc = json.loads((tmp_path / "rep.json").read_text(encoding="utf-8"))
        assert doc == report.to_json_dict()
        assert doc["report_version"] == 1

    def test_failed_emit_leaves_existing_report_intact(self, report, tmp_path, monkeypatch):
        emit_report(report, str(tmp_path / "rep"))
        before = (tmp_path / "rep.json").read_bytes()
        names = sorted(p.name for p in tmp_path.iterdir())
        # an unserializable value makes json.dump fail part-way through the file
        monkeypatch.setattr(type(report), "to_json_dict", lambda self: {"a": 1, "z": object()})
        with pytest.raises(TypeError):
            emit_report(report, str(tmp_path / "rep"))
        assert (tmp_path / "rep.json").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == names  # no temporary file left behind

    def test_empty_curve_guard(self, tmp_path):
        rep = run_experiment(small_config(deletion_count=0, methods=("retrain",)))
        rep.methods["retrain"].accuracy_curve = []
        paths = emit_report(rep, str(tmp_path / "rep"))
        csv_path = [p for p in paths if p.endswith(".csv")][0]
        assert Path(csv_path).read_text() == "deletions,accuracy,method\n"


def _deletion_without_downdate(model, ids):
    for sid in set(ids):
        if sid in model.coreset:
            model.coreset.take(sid)


def _deletion_rewriting_the_horizon(model, ids):
    """Sets ``horizon`` to the length of the stream that survives the request."""
    ids = set(ids)
    deletion_update(model, ids)
    model.params = dataclasses.replace(model.params, horizon=model.params.horizon - len(ids))
    return model


def _downdate_without_inverse_step(state, x, y):
    state.gram -= np.outer(x, x)
    state.b_vec -= y * np.asarray(x)
    state.weight = state.gram_inv @ state.b_vec


def _replay_at_the_survivors_horizon(model, ids):
    survivors = [s for s in model.coreset if s.sample_id not in set(ids)]
    p = model.params
    return bbq_fit(survivors, cap_k=p.cap_k, kappa=p.kappa, horizon=max(len(survivors), 1), dim=model.dim)


def _deletion_keeping_value_columns(model, ids, fclass):
    model.queried = [(stage, s) for stage, s in model.queried if s.sample_id not in set(ids)]
    model.f_hat = erm_fit(fclass, [s for _, s in model.queried])
    return model


def _deletion_rederiving_the_rate_bound(model, ids, fclass):
    """Sets ``rate_bound`` to the default rate for the surviving queried set."""
    general_deletion_update(model, ids, fclass)
    delta = model.config.delta
    model.config = dataclasses.replace(
        model.config, rate_bound=general_bbq.default_rate_bound(len(fclass), max(len(model.queried), 1), delta)
    )
    return model


def _erm_argmax(values, labeled):
    targets = np.array([(1.0 + s.y) / 2.0 for s in labeled])
    return int(np.argmax(np.sum((targets[None, :] - values) ** 2, axis=1)))


class TestCli:
    def test_pipeline_gen_fit_unlearn(self, tmp_path):
        ds = tmp_path / "ds.bin"
        m1 = tmp_path / "m.bin"
        m2 = tmp_path / "m2.bin"
        assert cli_main([
            "gen", "--kind", "margin", "--t", "600", "--d", "6", "--gamma", "0.1",
            "--seed", "7", "--out", str(ds),
        ]) == 0
        assert cli_main(["fit", "--data", str(ds), "--cap-k", "4", "--out", str(m1)]) == 0
        assert cli_main([
            "unlearn", "--model", str(m1), "--data", str(ds), "--n", "40",
            "--dist", "by-label", "--target-label", "-1", "--seed", "3", "--out", str(m2),
        ]) == 0
        for p in (ds, m1, m2):
            assert p.exists() and p.stat().st_size > 0

    # SHA-256 of the two model files of the pipeline below in format version
    # 2 (header and core-set records).  Their records regions are
    # byte-identical to those of the version-1 files, which were recorded
    # while records were packed one struct call at a time and every core-set
    # deletion rebuilt the survivor list (numpy 2.4, OpenBLAS, x86-64).
    FIT_SHA256 = "471756506a40f4fcf0d945cb4ee1cbb9c6954484b702e3748a6c356af37eea32"
    UNLEARN_SHA256 = "f0c95856624f5d465e6060ee17a26d08a74c2e10289c2a10736ec7493a8b16e0"
    FIT_RECORDS_SHA256 = "a48282334e50e6edf3a2e3fd5206c181acc6bc7b700f7e5c1efaae893d96c767"
    UNLEARN_RECORDS_SHA256 = "82dc8e569a519a19bc8f5c5cb926ad4c9bc23b3d1af1d36ab3fb283bed8bec02"

    def test_fit_and_unlearn_write_recorded_bytes(self, tmp_path, capsys):
        ds, m1, m2 = tmp_path / "ds.bin", tmp_path / "m1.saul", tmp_path / "m2.saul"
        assert cli_main(["gen", "--kind", "margin", "--t", "600", "--d", "6", "--gamma", "0.1",
                         "--seed", "7", "--out", str(ds)]) == 0
        assert cli_main(["fit", "--data", str(ds), "--cap-k", "4", "--out", str(m1)]) == 0
        assert cli_main(["unlearn", "--model", str(m1), "--data", str(ds), "--n", "40", "--dist", "by-label",
                         "--target-label", "-1", "--seed", "3", "--out", str(m2)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {ds}",
            f"wrote {m1} (core set 153 of 600)",
            f"wrote {m2} (core-set deletions 9, free 31)",
        ]
        assert hashlib.sha256(m1.read_bytes()).hexdigest() == self.FIT_SHA256
        assert hashlib.sha256(m2.read_bytes()).hexdigest() == self.UNLEARN_SHA256
        assert hashlib.sha256(m1.read_bytes()[_HEADER.size :]).hexdigest() == self.FIT_RECORDS_SHA256
        assert hashlib.sha256(m2.read_bytes()[_HEADER.size :]).hexdigest() == self.UNLEARN_RECORDS_SHA256

    def test_unlearn_prints_this_runs_deletions(self, tmp_path, capsys):
        # the file keeps no deletion counts, so a second run over the same
        # stream reports only its own requests: every one of them is free now
        ds, m1, m2, m3 = (tmp_path / name for name in ("ds.bin", "m1.saul", "m2.saul", "m3.saul"))
        cli_main(["gen", "--kind", "margin", "--t", "600", "--d", "6", "--gamma", "0.1", "--seed", "7", "--out", str(ds)])
        cli_main(["fit", "--data", str(ds), "--cap-k", "4", "--out", str(m1)])
        unlearn = ["--data", str(ds), "--n", "40", "--dist", "by-label", "--target-label", "-1", "--seed", "3"]
        cli_main(["unlearn", "--model", str(m1), *unlearn, "--out", str(m2)])
        capsys.readouterr()
        assert cli_main(["unlearn", "--model", str(m2), *unlearn, "--out", str(m3)]) == 0
        assert capsys.readouterr().out.splitlines() == [f"wrote {m3} (core-set deletions 0, free 40)"]
        assert m3.read_bytes() == m2.read_bytes()

    def test_pipeline_is_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            ds = tmp_path / f"ds_{tag}.bin"
            m = tmp_path / f"m_{tag}.bin"
            cli_main(["gen", "--kind", "margin", "--t", "400", "--d", "5",
                      "--gamma", "0.1", "--seed", "11", "--out", str(ds)])
            cli_main(["fit", "--data", str(ds), "--cap-k", "2", "--out", str(m)])
            outs.append((ds.read_bytes(), m.read_bytes()))
        assert outs[0] == outs[1]

    def test_bench_writes_reports(self, tmp_path):
        prefix = tmp_path / "rep"
        code = cli_main([
            "bench", "--t", "1200", "--d", "6", "--fraction", "0.25",
            "--cadence", "100", "--seed", "5", "--out", str(prefix),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert set(doc["methods"]) == {"bbq", "sisa", "retrain"}
        for method in doc["methods"]:
            assert (tmp_path / f"rep_{method}.csv").exists()

    def test_bench_accepts_dataset_file(self, tmp_path):
        ds = tmp_path / "ds.bin"
        cli_main(["gen", "--kind", "margin", "--t", "800", "--d", "5", "--gamma", "0.1",
                  "--seed", "13", "--out", str(ds)])
        code = cli_main([
            "bench", "--data", str(ds), "--methods", "retrain", "--fraction", "0.2",
            "--cadence", "80", "--seed", "13", "--out", str(tmp_path / "rep"),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["config"]["dataset"] == str(ds)
        assert set(doc["methods"]) == {"retrain"}

    def test_bench_on_an_empty_test_split_writes_no_report(self, tmp_path, capsys):
        ds = tmp_path / "ds.bin"
        assert cli_main(["gen", "--kind", "realizable-linear", "--t", "2", "--d", "3", "--out", str(ds)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NaN mean on the way to the error
            code = cli_main(["bench", "--data", str(ds), "--cap-k", "1", "--shards", "1", "--out", str(tmp_path / "rep")])
        assert code == 2
        assert "2 train and 0 test samples" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.bin"]

    def test_bench_without_methods_is_usage_error(self, tmp_path):
        assert cli_main(["bench", "--methods", "", "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("bad", [["--fraction", "-0.1"], ["--gamma", "1.5"]])
    def test_bench_out_of_range_argument_is_usage_error(self, tmp_path, capsys, bad):
        args = ["bench", "--t", "300", "--d", "3", *bad, "--out", str(tmp_path / "x")]
        assert cli_main(args) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--t", "0", "--d", "3"],
            ["gen", "--t", "10", "--d", "3", "--gamma", "1.5"],
            ["fit", "--data", "{missing}", "--kappa", "2"],
            ["fit", "--data", "{missing}", "--cap-k", "0.5"],
            ["fit", "--data", "{missing}", "--cap-k", "nan"],
            ["unlearn", "--model", "{missing}", "--data", "{missing}", "--n", "-1"],
            ["unlearn", "--model", "{missing}", "--data", "{missing}", "--n", "1", "--target-label", "0"],
            ["capacity", "--data", "{missing}", "--trials", "0"],
            ["capacity", "--data", "{missing}", "--k", "-2"],
            ["capacity", "--data", "{missing}", "--delta", "2"],
            ["capacity", "--data", "{missing}", "--eps-bar", "nan"],
            ["capacity", "--t", "0"],
            ["bench", "--data", "{missing}", "--kappa", "1.5"],
            ["bench", "--data", "{missing}", "--cap-k", "0.5"],
            ["bench", "--data", "{missing}", "--cap-k", "inf"],
            ["bench", "--data", "{missing}", "--delta", "0"],
            ["bench", "--data", "{missing}", "--delta", "1"],
            ["bench", "--data", "{missing}", "--shards", "0"],
        ],
        ids=[
            "gen t", "gen gamma", "fit kappa", "fit cap-k", "fit NaN cap-k", "unlearn n",
            "unlearn target label", "capacity trials", "capacity k", "capacity delta",
            "capacity NaN eps-bar", "capacity t", "bench kappa", "bench cap-k", "bench infinite cap-k",
            "bench delta 0", "bench delta 1", "bench shards",
        ],
    )
    def test_out_of_range_argument_is_usage_error_before_any_file(self, tmp_path, capsys, argv):
        # the input files do not exist: reading one first would be a runtime error (exit 2)
        out = tmp_path / "out"
        argv = [a.format(missing=tmp_path / "missing") for a in argv] + ["--out", str(out)]
        assert cli_main(argv) == 1
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # bench writes beside the --out prefix, not at it

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--t", "10", "--d", "3", "--out", "{out}"],
            ["unlearn", "--model", "{missing}", "--data", "{missing}", "--n", "1", "--out", "{out}"],
            ["bench", "--t", "300", "--d", "3", "--out", "{out}"],
            ["capacity", "--t", "300", "--d", "3", "--out", "{out}"],
            ["verify"],
        ],
        ids=["gen", "unlearn", "bench", "capacity", "verify"],
    )
    def test_negative_seed_is_usage_error_naming_the_flag(self, tmp_path, capsys, argv):
        argv = [a.format(out=tmp_path / "out", missing=tmp_path / "missing") for a in argv]
        assert cli_main(argv + ["--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert "usage error: argument --seed" in captured.err and "PASS" not in captured.out
        assert list(tmp_path.iterdir()) == []

    def test_verify_without_trials_is_usage_error(self, capsys):
        assert cli_main(["verify", "--trials", "0"]) == 1
        assert "PASS" not in capsys.readouterr().out

    def test_corrupt_input_file_is_runtime_error(self, tmp_path):
        ds, model, out = tmp_path / "ds.bin", tmp_path / "m.saul", tmp_path / "out"
        assert cli_main(["gen", "--kind", "realizable-linear", "--t", "200", "--d", "3", "--out", str(ds)]) == 0
        assert cli_main(["fit", "--data", str(ds), "--cap-k", "2", "--out", str(model)]) == 0
        model.write_bytes(model.read_bytes()[:-1])  # a ModelFormatError, which is a ValueError
        assert cli_main(["unlearn", "--model", str(model), "--data", str(ds), "--n", "5", "--out", str(out)]) == 2
        ds.write_bytes(ds.read_bytes()[:-1])  # a DatasetFormatError
        assert cli_main(["fit", "--data", str(ds), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_flag_is_usage_error(self):
        assert cli_main(["bench", "--mystery-flag", "--out", "x"]) == 1

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert cli_main(["fit", "--data", str(tmp_path / "nope.bin"), "--out", "x"]) == 2

    @pytest.mark.parametrize("command", ["fit", "capacity"])
    def test_query_floor_warns_once_on_stderr(self, tmp_path, capsys, command):
        ds = tmp_path / "ds.bin"
        assert cli_main(["gen", "--kind", "margin", "--t", "4000", "--d", "5", "--gamma", "0.1", "--out", str(ds)]) == 0
        capsys.readouterr()
        extra = ["--k", "2", "--trials", "1"] if command == "capacity" else []
        printed = {}
        for kappa in ("0.25", "0.5"):
            out = tmp_path / f"{command}-{kappa}"
            argv = [command, "--data", str(ds), "--kappa", kappa, "--cap-k", "32", *extra, "--out", str(out)]
            assert cli_main(argv) == 0
            printed[kappa] = capsys.readouterr()
            # stdout keeps its one line either way
            assert len(printed[kappa].out.splitlines()) == 1
            assert printed[kappa].out.startswith(f"wrote {out} (")
        assert printed["0.25"].err.splitlines() == [
            "warning: --kappa 0.25 queries nothing at T=4000: the threshold T**-kappa = 0.125743 "
            "is at least 0.03125, the largest leverage at --cap-k 32"
        ]
        assert printed["0.5"].err == ""
        if command == "fit":
            assert printed["0.25"].out.endswith("(core set 0 of 4000)\n")

    def test_bench_warns_at_the_query_floor(self, tmp_path, capsys):
        printed = {}
        for kappa in ("0.25", "0.9"):
            argv = ["bench", "--t", "500", "--d", "4", "--methods", "retrain", "--kappa", kappa, "--cap-k", "32",
                    "--out", str(tmp_path / kappa)]
            assert cli_main(argv) == 0
            printed[kappa] = capsys.readouterr()
            assert printed[kappa].out.startswith(f"wrote {tmp_path / kappa}.json\n")
        # 400 of the 500 points train: 400**-0.25 = 0.2236 is at least 1/32, 400**-0.9 = 0.00455 is not
        assert printed["0.25"].err.splitlines() == [
            "warning: --kappa 0.25 queries nothing at T=400: the threshold T**-kappa = 0.223607 "
            "is at least 0.03125, the largest leverage at --cap-k 32"
        ]
        assert printed["0.9"].err == ""

    def test_bench_warns_before_the_run(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("the run failed")

        monkeypatch.setattr("coreset_unlearn.cli.run_experiment", fail)
        argv = ["bench", "--t", "500", "--d", "4", "--methods", "retrain", "--kappa", "0.25", "--cap-k", "32",
                "--out", str(tmp_path / "r")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.splitlines()[0].startswith("warning: --kappa 0.25 queries nothing at T=400:")

    def test_capacity_subcommand(self, tmp_path):
        out = tmp_path / "cap.json"
        code = cli_main([
            "capacity", "--t", "300", "--d", "4", "--cap-k", "2", "--k", "3",
            "--trials", "5", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["trials"] == 5 and len(doc["curve"]) > 0

    def test_capacity_takes_dimension_from_data_file(self, tmp_path):
        ds, out = tmp_path / "ds.bin", tmp_path / "cap.json"
        cli_main(["gen", "--kind", "realizable-linear", "--t", "300", "--d", "6", "--seed", "2",
                  "--out", str(ds)])
        assert cli_main([
            "capacity", "--data", str(ds), "--cap-k", "2", "--k", "3", "--trials", "3",
            "--eps-bar", "40", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["d"] == 6
        params = CapacityParams(T=300, d=6, kappa=0.5, delta=0.05, eps_bar=40.0, K=2.0)
        assert doc["K_max"] == coreset_capacity(params)
        assert coreset_capacity(params) != coreset_capacity(CapacityParams(**(vars(params) | {"d": 10})))

    def test_verify_subcommand_passes(self, capsys):
        assert cli_main(["verify", "--seed", "1", "--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "FAIL" not in out

    @pytest.mark.parametrize(
        "name, mutant, suite",
        [
            ("deletion_update", _deletion_without_downdate, "deletion equals fresh fit on survivors"),
            ("deletion_update", _deletion_rewriting_the_horizon, "deletion equals fresh fit on survivors"),
            ("rank_one_downdate", _downdate_without_inverse_step, "sherman-morrison vs dense inversion"),
            ("predicted_deletion_drift", lambda *args: -predicted_deletion_drift(*args), "rank-one deletion drift identity"),
            ("predicted_deletion_drift", lambda *args: np.nan * predicted_deletion_drift(*args), "rank-one deletion drift identity"),
            ("replay_on_coreset", _replay_at_the_survivors_horizon, "replay re-queries exactly the survivors"),
            ("_exact_leverage", lambda inv, x: (inv.dot(x), inv.dot(x).dot(x) / 4), "leverage bounds"),
            (
                "general_deletion_update", _deletion_keeping_value_columns,
                "finite-class deletion equals fresh fit on survivors",
            ),
            (
                "general_deletion_update", lambda model, ids, fclass: model,
                "finite-class deletion equals fresh fit on survivors",
            ),
            (
                "general_deletion_update", _deletion_rederiving_the_rate_bound,
                "finite-class deletion equals fresh fit on survivors",
            ),
            ("_erm_index", _erm_argmax, "finite-class ERM equals per-sample loss argmin"),
        ],
        ids=[
            "pop-without-downdate", "horizon-rewritten", "downdate-keeps-inverse", "drift-sign", "drift-nan", "replay-horizon",
            "leverage-quartered", "stale-value-columns", "deletion-ignored", "rate-bound-rederived", "erm-argmax",
        ],
    )
    def test_verify_catches_a_planted_defect(self, monkeypatch, capsys, name, mutant, suite):
        for module in (core_linalg, bbq_linear, capacity, general_bbq, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, mutant)
        assert cli_main(["verify", "--seed", "1", "--trials", "2"]) == 3
        assert f"FAIL  {suite}:" in capsys.readouterr().out

    def test_general_suites_fail_a_sampler_that_queries_nothing(self, monkeypatch):
        def fit_querying_nothing(pool, fclass, **kwargs):
            model = general_bbq.general_bbq_fit(pool, fclass, **kwargs)
            model.queried, model.values = [], model.values[:, :0]
            return model

        monkeypatch.setattr(verify, "general_bbq_fit", fit_querying_nothing)
        (_, exact_ok, exact), (_, erm_ok, erm) = verify.check_general_instances(1, 2)
        assert not exact_ok and not erm_ok
        assert exact.startswith("0 instances") and erm.startswith("0 ERM comparisons on 0 instances")
