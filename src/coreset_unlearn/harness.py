"""Experiment runner: fit every method, replay a deletion stream, record curves.

The protocol: hold out a seeded, label-stratified test split, fit each
configured method on the training split, then replay one shared deletion
stream through each method's unlearning path while recording accuracy at a
fixed cadence, per-deletion wall time, memory proxies, and capacity-gate
events.  Reports are deterministic given the config and seeds, except for
wall-clock fields.

The runner works on the array form of the dataset: the split is a pair of
row-index arrays, the train and test matrices are stacked once, and
per-sample objects are built only for the selective sampler, which consumes
a stream of them.

Methods run sequentially for fair timing; a warmup fit is discarded before
the timed fit.  The capacity gate applies only to the selective sampler and
only to core-set hits, and its cost counts toward the sampler's deletion
time.  Exhaustion is handled per the configured policy and is logged, never
fatal: "halt" stops processing the stream; "refit" applies the deletion,
refreshes the inverse, rebases the drift reference on the current weights
and resets the budget.  The exactness theorem makes the downdated state the
state of a fresh fit on the surviving core set, so this is identical to a
refit without replaying the core set.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import baselines, capacity
from .atomic_io import atomic_open
from .bbq_linear import bbq_fit, deletion_update
from .core_linalg import refresh_inverse
from .datastreams import (
    Dataset,
    DatasetSpec,
    DeletionDistribution,
    Rows,
    deletion_stream,
    gen_dataset,
    ids_and_labels,
    load_dataset,
)

REPORT_VERSION = 1

METHODS = ("bbq", "sisa", "retrain")

GATE_POLICIES = ("halt", "refit")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec | str
    methods: tuple[str, ...] = METHODS
    kappa: float = 0.5
    cap_k: float = 32.0
    delta: float = 0.05
    shards: int = 16
    ridge_lambda: float = 1.0
    deletion_kind: str = "by-label"
    deletion_target_label: int = -1
    deletion_fraction: float = 0.4
    deletion_count: int | None = None
    cadence: int = 250
    seed: int = 0
    test_fraction: float = 0.2
    gate_policy: str = "halt"
    probe_size: int = 512

    def __post_init__(self):
        if not self.methods:
            raise ValueError("at least one method is required")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if self.cadence < 1:
            raise ValueError("cadence must be >= 1")
        if self.gate_policy not in GATE_POLICIES:
            raise ValueError(f"gate_policy must be one of {GATE_POLICIES}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")


@dataclass
class MethodReport:
    method: str
    train_time: float
    deletion_time: float
    stored_fraction: float
    model_scalars: int
    accuracy_curve: list[tuple[int, float]]
    coreset_deletions: int = 0
    free_deletions: int = 0
    gate_events: list[str] = field(default_factory=list)
    halted_at: int | None = None


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    train_size: int
    test_size: int
    n_deletions: int
    methods: dict[str, MethodReport]

    def to_json_dict(self) -> dict:
        cfg = self.config
        if isinstance(cfg.dataset, str):
            dataset = cfg.dataset
        else:
            dataset = vars(cfg.dataset) | {"u": list(cfg.dataset.u) if cfg.dataset.u else None}
        return {
            "report_version": REPORT_VERSION,
            "config": {
                "dataset": dataset,
                "methods": list(cfg.methods),
                "kappa": cfg.kappa,
                "cap_k": cfg.cap_k,
                "delta": cfg.delta,
                "shards": cfg.shards,
                "ridge_lambda": cfg.ridge_lambda,
                "deletion_kind": cfg.deletion_kind,
                "deletion_target_label": cfg.deletion_target_label,
                "deletion_fraction": cfg.deletion_fraction,
                "deletion_count": cfg.deletion_count,
                "cadence": cfg.cadence,
                "seed": cfg.seed,
                "test_fraction": cfg.test_fraction,
                "gate_policy": cfg.gate_policy,
            },
            "train_size": self.train_size,
            "test_size": self.test_size,
            "n_deletions": self.n_deletions,
            "methods": {
                name: {
                    "train_time": rep.train_time,
                    "deletion_time": rep.deletion_time,
                    "stored_fraction": rep.stored_fraction,
                    "model_scalars": rep.model_scalars,
                    "accuracy_curve": [[int(k), float(a)] for k, a in rep.accuracy_curve],
                    "coreset_deletions": rep.coreset_deletions,
                    "free_deletions": rep.free_deletions,
                    "gate_events": rep.gate_events,
                    "halted_at": rep.halted_at,
                }
                for name, rep in self.methods.items()
            },
        }


def split_rows(y: np.ndarray, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded label-stratified split of rows with labels ``y``: ``(train, test)`` row indices.

    Both index arrays are increasing, so training keeps the original stream order.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x51]))
    is_test = np.zeros(len(y), dtype=bool)
    for label in (-1, 1):
        rows = np.flatnonzero(y == label)
        n_test = int(round(len(rows) * test_fraction))
        is_test[rows[rng.permutation(len(rows))[:n_test]]] = True
    return np.flatnonzero(~is_test), np.flatnonzero(is_test)


def stratified_split(samples, test_fraction: float, seed: int):
    """:func:`split_rows` over a sequence of samples; returns ``(train, test)`` sample lists."""
    samples = list(samples)
    train, test = split_rows(ids_and_labels(samples)[1], test_fraction, seed)
    return [samples[i] for i in train.tolist()], [samples[i] for i in test.tolist()]


def _resolve_dataset(cfg: ExperimentConfig) -> Dataset:
    if isinstance(cfg.dataset, str):
        return load_dataset(cfg.dataset)
    return gen_dataset(cfg.dataset)


def _checkpoints(n_deletions: int, cadence: int) -> list[int]:
    points = list(range(0, n_deletions, cadence))
    if not points or points[-1] != n_deletions:
        points.append(n_deletions)
    return points


def _rebase(model) -> None:
    """Make ``model`` what a fresh fit on its surviving core set would be.

    The downdated Gram state already equals the refit's; what remains is a
    fresh inverse (which also resets the downdate counter) and the refit's
    drift reference, its current weights.
    """
    refresh_inverse(model.gram_state)
    model.fit_weight = model.weight.copy()


def _run_bbq(cfg: ExperimentConfig, train: Rows, test: Rows, stream, checkpoints) -> MethodReport:
    samples = train.samples
    bbq_fit(samples[:512], cap_k=cfg.cap_k, kappa=cfg.kappa)  # warmup, discarded
    t0 = time.perf_counter()
    model = bbq_fit(samples, cap_k=cfg.cap_k, kappa=cfg.kappa)
    train_time = time.perf_counter() - t0

    queried = np.fromiter(model.coreset_ids, dtype=np.uint64, count=len(model.coreset_ids))
    probe_x = train.X[~np.isin(train.ids, queried)][: cfg.probe_size]
    metrics = capacity.MetricSet()
    if not len(probe_x):
        metrics.gate_events.append("gate-skipped: no unqueried probe points")
    curve = []
    deletion_time = 0.0
    halted_at = None
    checkpoint_iter = iter(checkpoints)
    next_cp = next(checkpoint_iter)

    def record(done: int):
        nonlocal next_cp
        while next_cp is not None and done >= next_cp:
            curve.append((next_cp, baselines.weight_accuracy(model.weight, test)))
            next_cp = next(checkpoint_iter, None)

    record(0)
    for pos, sid in enumerate(stream):
        t0 = time.perf_counter()
        hit = sid in model.coreset_ids
        exhausted = (
            hit
            and len(probe_x) > 0
            and capacity.capacity_gate(model, metrics, probe_x, delta=cfg.delta) == capacity.BUDGET_EXHAUSTED
        )
        if exhausted:
            metrics.gate_events.append(f"exhausted@{pos}")
            if cfg.gate_policy == "halt":
                deletion_time += time.perf_counter() - t0
                halted_at = pos
                break
        deletion_update(model, [sid])
        if exhausted:
            _rebase(model)
            metrics.coreset_deletions = 0  # budget reset
        elif hit:
            metrics.coreset_deletions += 1
        deletion_time += time.perf_counter() - t0
        record(pos + 1)
    if halted_at is not None:
        # curve freezes at the halt point; later checkpoints repeat the value
        record(len(stream))

    d = model.dim
    return MethodReport(
        method="bbq",
        train_time=train_time,
        deletion_time=deletion_time,
        stored_fraction=len(model.coreset) / len(train),
        model_scalars=2 * d * d + 2 * d,
        accuracy_curve=curve,
        coreset_deletions=model.coreset_deletions,
        free_deletions=model.free_deletions,
        gate_events=list(metrics.gate_events),
        halted_at=halted_at,
    )


def _run_retrain(cfg: ExperimentConfig, train: Rows, test: Rows, stream, checkpoints) -> MethodReport:
    baselines.ridge_fit(train.take(slice(512)), lam=cfg.ridge_lambda)  # warmup, discarded
    t0 = time.perf_counter()
    model = baselines.ridge_fit(train, lam=cfg.ridge_lambda)
    train_time = time.perf_counter() - t0

    curve = []
    deletion_time = 0.0
    cp_set = set(checkpoints)
    if 0 in cp_set:
        curve.append((0, baselines.weight_accuracy(model.weight, test)))
    for pos, sid in enumerate(stream):
        t0 = time.perf_counter()
        baselines.exact_unlearn(model, [sid])
        deletion_time += time.perf_counter() - t0
        if (pos + 1) in cp_set:
            curve.append((pos + 1, baselines.weight_accuracy(model.weight, test)))

    d = model.state.dim
    return MethodReport(
        method="retrain",
        train_time=train_time,
        deletion_time=deletion_time,
        stored_fraction=1.0,
        model_scalars=2 * d * d + 2 * d,
        accuracy_curve=curve,
    )


def _run_sisa(cfg: ExperimentConfig, train: Rows, test: Rows, stream, checkpoints) -> MethodReport:
    baselines.sisa_fit(train.take(slice(512)), n_shards=cfg.shards, seed=cfg.seed)  # warmup
    t0 = time.perf_counter()
    model = baselines.sisa_fit(train, n_shards=cfg.shards, seed=cfg.seed, lam=cfg.ridge_lambda)
    train_time = time.perf_counter() - t0

    curve = []
    deletion_time = 0.0
    cp_set = set(checkpoints)
    if 0 in cp_set:
        curve.append((0, baselines.sisa_accuracy_batch(model, test)))
    for pos, sid in enumerate(stream):
        t0 = time.perf_counter()
        baselines.sisa_unlearn(model, [sid])
        deletion_time += time.perf_counter() - t0
        if (pos + 1) in cp_set:
            curve.append((pos + 1, baselines.sisa_accuracy_batch(model, test)))

    return MethodReport(
        method="sisa",
        train_time=train_time,
        deletion_time=deletion_time,
        stored_fraction=1.0,
        model_scalars=baselines.sisa_memory_scalars(model),
        accuracy_curve=curve,
    )


_RUNNERS = {"bbq": _run_bbq, "retrain": _run_retrain, "sisa": _run_sisa}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    ds = _resolve_dataset(cfg)
    train_rows, test_rows = split_rows(ds.y, cfg.test_fraction, cfg.seed)
    train, test = ds.take(train_rows), ds.take(test_rows)

    if cfg.deletion_count is not None:
        n_deletions = cfg.deletion_count
    else:
        n_deletions = int(cfg.deletion_fraction * len(train))
    dist = DeletionDistribution(kind=cfg.deletion_kind, target_label=cfg.deletion_target_label)
    stream = deletion_stream(train, dist, n_deletions, seed=cfg.seed + 1)
    checkpoints = _checkpoints(n_deletions, cfg.cadence)

    reports = {}
    for method in cfg.methods:
        reports[method] = _RUNNERS[method](cfg, train, test, stream, checkpoints)
    return ExperimentReport(
        config=cfg,
        train_size=len(train),
        test_size=len(test),
        n_deletions=n_deletions,
        methods=reports,
    )


def emit_report(report: ExperimentReport, out_prefix: str, formats=("json", "csv")) -> list[str]:
    """Write the report; one JSON file plus one accuracy-curve CSV per method.

    CSV columns are ``deletions,accuracy,method`` and contain no timing
    fields, so byte-identical reruns produce byte-identical CSVs.  Each file
    is replaced atomically.
    """
    written = []
    if "json" in formats:
        path = f"{out_prefix}.json"
        with atomic_open(path, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    if "csv" in formats:
        for name, rep in report.methods.items():
            path = f"{out_prefix}_{name}.csv"
            with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["deletions", "accuracy", "method"])
                for deletions, acc in rep.accuracy_curve:
                    writer.writerow([deletions, repr(float(acc)), name])
            written.append(path)
    return written


def load_report_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
