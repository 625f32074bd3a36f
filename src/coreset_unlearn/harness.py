"""Experiment runner: fit every method, replay a deletion stream, record curves.

The protocol: hold out a seeded, label-stratified test split, fit each
configured method on the training split, then send one shared deletion
stream through each method's unlearning path.  One replay loop serves all
methods: it times each deletion, reads accuracy at a fixed cadence, handles
a halt and builds the method's report.  Each method supplies only its fit
(timed after a discarded warmup fit), its deletion step, its accuracy and
its model-dependent report fields.  Reports are deterministic given the
config and seeds, except for wall-clock fields.

The runner works on the array form of the dataset, and every method fits
it as rows; the selective sampler's core set is rows as well, so the runner
builds no per-sample objects.

The capacity gate applies only to the selective sampler and only to core-set
hits, and its cost counts toward the sampler's deletion time.  Exhaustion is
handled per the configured policy and is logged, never fatal: "halt" stops
the stream; "refit" applies the deletion, refreshes the inverse and starts a
new gate state (:class:`~.capacity.MetricSet`) from the current weights,
with the budget reset.  The exactness theorem makes the downdated state the
state of a fresh fit on the surviving core set, so this is identical to a
refit without replaying the core set.  The gate state lives here, beside
the model; the model itself keeps no drift reference.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import baselines, capacity
from .atomic_io import atomic_open
from .bbq_linear import BBQParams, bbq_fit, deletion_update
from .core_linalg import as_integer, check_lam, refresh_inverse
from .datastreams import (
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

    def __post_init__(self):
        if not self.methods:
            raise ValueError("at least one method is required")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods must not repeat, got {self.methods}")
        for name, least in (("cadence", 1), ("seed", 0), ("shards", 1)):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, least))
        if self.deletion_count is not None:
            object.__setattr__(self, "deletion_count", as_integer(self.deletion_count, "deletion_count", 0))
        if self.gate_policy not in GATE_POLICIES:
            raise ValueError(f"gate_policy must be one of {GATE_POLICIES}")
        split_rows(np.empty(0), self.test_fraction, self.seed)  # the split's own rule for test_fraction
        if not 0.0 <= self.deletion_fraction <= 1.0:
            raise ValueError(f"deletion_fraction must lie in [0, 1], got {self.deletion_fraction}")
        self.deletion_distribution()  # a kind, target or "weighted" that no run could draw from
        # the sampler's own range rule for kappa and cap_k; the horizon comes from the data, so 1 stands in
        BBQParams(horizon=1, kappa=self.kappa, cap_k=self.cap_k)
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        check_lam(self.ridge_lambda, "ridge_lambda")

    def deletion_distribution(self) -> DeletionDistribution:
        """The distribution the run draws its deletion stream from; a config holds no weights."""
        return DeletionDistribution(kind=self.deletion_kind, target_label=self.deletion_target_label)


@dataclass
class MethodReport:
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
        """The report as JSON reads it back: every field, tuples as lists."""
        return {"report_version": REPORT_VERSION} | _as_json(asdict(self))


def _as_json(value):
    if isinstance(value, dict):
        return {k: _as_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_json(v) for v in value]
    return value


def split_rows(y: np.ndarray, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded label-stratified split of rows with labels ``y``: ``(train, test)`` row indices.

    Both index arrays are increasing, so training keeps the original stream order.
    ``ValueError`` before any draw unless ``0 < test_fraction < 1`` and ``seed >= 0``.
    """
    seed = as_integer(seed, "seed", 0)
    if not 0.0 < test_fraction < 1.0:  # NaN fails too
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
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


def _timed_fit(fit, warmup, rows, **kwargs):
    """``fit(rows, **kwargs)`` and its wall time, after a discarded warmup ``fit(warmup, **kwargs)``."""
    fit(warmup, **kwargs)
    t0 = time.perf_counter()
    model = fit(rows, **kwargs)
    return model, time.perf_counter() - t0


# Each method below fits the training split and returns what the replay loop
# needs: (train_time, delete(pos, sid) -> applied, accuracy(), report_fields()).


def _bbq(cfg: ExperimentConfig, train: Rows, test: Rows):
    model, train_time = _timed_fit(bbq_fit, train.take(slice(512)), train, cap_k=cfg.cap_k, kappa=cfg.kappa)
    queried = model.coreset.rows().ids
    probe_x = train.X[~np.isin(train.ids, queried)][: capacity.DEFAULT_PROBE_SIZE]
    gate = capacity.MetricSet(model.weight.copy())
    gate_events = [] if len(probe_x) else ["gate-skipped: no unqueried probe points"]

    def delete(pos: int, sid: int) -> bool:
        nonlocal gate
        hit = sid in model.coreset
        exhausted = (
            hit
            and len(probe_x) > 0
            and capacity.capacity_gate(model, gate, probe_x, delta=cfg.delta) == capacity.BUDGET_EXHAUSTED
        )
        if exhausted:
            gate_events.append(f"exhausted@{pos}")
            if cfg.gate_policy == "halt":
                return False
        deletion_update(model, [sid])
        if exhausted:
            # the downdated state is a fresh fit's on the survivors; give it a
            # fresh inverse, and the gate a new reference and budget
            refresh_inverse(model.gram_state)
            gate = capacity.MetricSet(model.weight.copy())
        elif hit:
            gate.coreset_deletions += 1
        return True

    def report_fields() -> dict:
        d = model.dim
        return dict(
            stored_fraction=len(model.coreset) / len(train),
            model_scalars=2 * d * d + 2 * d,
            coreset_deletions=model.coreset_deletions,
            free_deletions=model.free_deletions,
            gate_events=gate_events,
        )

    return train_time, delete, lambda: baselines.weight_accuracy(model.weight, test), report_fields


def _retrain(cfg: ExperimentConfig, train: Rows, test: Rows):
    model, train_time = _timed_fit(baselines.ridge_fit, train.take(slice(512)), train, lam=cfg.ridge_lambda)

    def delete(pos: int, sid: int) -> bool:
        baselines.exact_unlearn(model, [sid])
        return True

    d = model.state.dim
    fields = dict(stored_fraction=1.0, model_scalars=2 * d * d + 2 * d)
    return train_time, delete, lambda: baselines.weight_accuracy(model.weight, test), lambda: fields


def _sisa(cfg: ExperimentConfig, train: Rows, test: Rows):
    model, train_time = _timed_fit(
        baselines.sisa_fit, train.take(slice(512)), train, n_shards=cfg.shards, seed=cfg.seed, lam=cfg.ridge_lambda
    )

    def delete(pos: int, sid: int) -> bool:
        baselines.sisa_unlearn(model, [sid])
        return True

    fields = dict(stored_fraction=1.0, model_scalars=baselines.sisa_memory_scalars(model))
    return train_time, delete, lambda: baselines.sisa_accuracy_batch(model, test), lambda: fields


_FITS = {"bbq": _bbq, "retrain": _retrain, "sisa": _sisa}


def _run_method(method: str, cfg: ExperimentConfig, train: Rows, test: Rows, stream, n_deletions: int) -> MethodReport:
    """Fit ``method``, replay ``stream`` through its deletion path and report.

    Accuracy is read before the first deletion, after every ``cfg.cadence``
    deletions and after the last one; only the deletion calls are timed.  A
    deletion that returns ``False`` halts the stream unapplied, and every
    later checkpoint repeats the accuracy of the model as it stood then.
    """
    train_time, delete, accuracy, report_fields = _FITS[method](cfg, train, test)
    checkpoints = [*range(0, n_deletions, cfg.cadence), n_deletions]
    curve = []
    deletion_time = 0.0
    halted_at = None
    for pos, sid in enumerate(stream):
        if pos == checkpoints[len(curve)]:
            curve.append((pos, accuracy()))
        t0 = time.perf_counter()
        applied = delete(pos, sid)
        deletion_time += time.perf_counter() - t0
        if not applied:
            halted_at = pos
            break
    curve += [(k, accuracy()) for k in checkpoints[len(curve):]]
    return MethodReport(
        train_time=train_time,
        deletion_time=deletion_time,
        accuracy_curve=curve,
        halted_at=halted_at,
        **report_fields(),
    )


def experiment_split(cfg: ExperimentConfig) -> tuple[Rows, Rows]:
    """The training and test rows of ``cfg``'s run: its dataset, loaded or generated, split by :func:`split_rows`."""
    ds = load_dataset(cfg.dataset) if isinstance(cfg.dataset, str) else gen_dataset(cfg.dataset)
    train_rows, test_rows = split_rows(ds.y, cfg.test_fraction, cfg.seed)
    train, test = ds.take(train_rows), ds.take(test_rows)
    if not (len(train) and len(test)):  # an empty side fits on nothing or reports NaN accuracies
        raise ValueError(f"the split leaves {len(train)} train and {len(test)} test samples; each needs at least 1")
    return train, test


def run_experiment(cfg: ExperimentConfig, split: tuple[Rows, Rows] | None = None) -> ExperimentReport:
    """Run every method of ``cfg`` on ``split``, which is :func:`experiment_split` of ``cfg`` when not given."""
    train, test = split if split is not None else experiment_split(cfg)
    if cfg.deletion_count is not None:
        n_deletions = cfg.deletion_count
    else:
        n_deletions = int(cfg.deletion_fraction * len(train))
    stream = deletion_stream(train, cfg.deletion_distribution(), n_deletions, seed=cfg.seed + 1)
    return ExperimentReport(
        config=cfg,
        train_size=len(train),
        test_size=len(test),
        n_deletions=n_deletions,
        methods={method: _run_method(method, cfg, train, test, stream, n_deletions) for method in cfg.methods},
    )


def emit_report(report: ExperimentReport, out_prefix: str) -> list[str]:
    """Write the report; one JSON file plus one accuracy-curve CSV per method.

    CSV columns are ``deletions,accuracy,method`` and contain no timing
    fields, so byte-identical reruns produce byte-identical CSVs.  Each file
    is replaced atomically.
    """
    path = f"{out_prefix}.json"
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written = [path]
    for name, rep in report.methods.items():
        path = f"{out_prefix}_{name}.csv"
        with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["deletions", "accuracy", "method"])
            for deletions, acc in rep.accuracy_curve:
                writer.writerow([deletions, repr(float(acc)), name])
        written.append(path)
    return written
