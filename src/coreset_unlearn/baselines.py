"""Reference unlearning baselines: exact ridge retraining and a sharded ensemble.

Both baselines work on the array form of the data (:class:`~.datastreams.Rows`):
a model keeps references to the training ``X``/``y`` and addresses samples by
row index, so no per-sample objects are built.  Every entry point also accepts
a sequence of :class:`~.datastreams.LabeledSample`, stacked once by
:func:`~.datastreams.as_rows`.

``ridge_retrain`` is the ground-truth full-data model (one direct solve).
``ridge_fit``/``exact_unlearn`` give the exact-retraining baseline its
incremental form: the fit forms ``lam*I + X^T X`` in one step, and every
deletion is a rank-one downdate, which is what gets timed.  The sharded
ensemble (SISA) partitions the rows round-robin after a seeded shuffle, trains
one ridge model per shard, votes uniformly by sign, and handles a deletion by
retraining only the affected shard from scratch on its surviving rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_linalg import GramState, as_integer, check_lam, gram_from_rows, rank_one_downdate
from .datastreams import as_rows

DEFAULT_RIDGE_LAMBDA = 1.0


def ridge_retrain(samples, lam: float = DEFAULT_RIDGE_LAMBDA) -> np.ndarray:
    """Direct solve of ``(lam*I + X^T X) w = X^T y`` over the full sample."""
    check_lam(lam)
    rows = as_rows(samples)
    if not len(rows):
        raise ValueError("ridge_retrain needs a nonempty sample")
    X = rows.X
    A = lam * np.eye(X.shape[1]) + X.T @ X
    return np.linalg.solve(A, X.T @ rows.y.astype(np.float64))


@dataclass
class RidgeModel:
    """Incrementally maintained ridge model over the live rows of ``X``/``y``."""

    state: GramState
    live: dict[int, int]  # sample id -> row of X/y still in the model
    X: np.ndarray
    y: np.ndarray

    @property
    def weight(self) -> np.ndarray:
        return self.state.weight


def ridge_fit(samples, lam: float = DEFAULT_RIDGE_LAMBDA) -> RidgeModel:
    rows = as_rows(samples)
    if not len(rows):
        raise ValueError("ridge_fit needs a nonempty sample")
    return RidgeModel(
        state=gram_from_rows(rows.X, rows.y, lam),
        live=dict(zip(rows.ids.tolist(), range(len(rows)))),
        X=rows.X,
        y=rows.y,
    )


def exact_unlearn(model: RidgeModel, ids) -> np.ndarray:
    """Downdate every deleted id out of the model; returns the new weights.

    Unknown ids are ignored (already removed or never present).
    """
    for sid in ids:
        row = model.live.pop(sid, None)
        if row is None:
            continue
        rank_one_downdate(model.state, model.X[row], int(model.y[row]))
    return model.state.weight


@dataclass
class SisaModel:
    """Per-shard ridge states over row-index arrays into the training ``X``/``y``.

    ``rows[k]`` lists shard ``k``'s surviving rows in assignment order, the
    order its Gram matrix is accumulated in; ``assignment`` maps each live
    sample id to its shard.
    """

    shards: list[GramState]
    rows: list[np.ndarray]
    assignment: dict[int, int]
    ids: np.ndarray
    X: np.ndarray
    y: np.ndarray
    lam: float


def sisa_fit(samples, n_shards: int = 16, seed: int = 0, lam: float = DEFAULT_RIDGE_LAMBDA) -> SisaModel:
    """Round-robin shard assignment after a seeded shuffle, one ridge model per shard."""
    n_shards = as_integer(n_shards, "n_shards")
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if as_integer(seed, "seed") < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    data = as_rows(samples)
    if not len(data):
        raise ValueError("sisa_fit needs a nonempty sample")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = rng.permutation(len(data))
    rows = [order[k::n_shards] for k in range(n_shards)]
    return SisaModel(
        shards=[gram_from_rows(data.X.take(r, 0), data.y.take(r), lam) for r in rows],
        rows=rows,
        assignment=dict(zip(data.ids[order].tolist(), (np.arange(len(order)) % n_shards).tolist())),
        ids=data.ids,
        X=data.X,
        y=data.y,
        lam=lam,
    )


def sisa_unlearn(model: SisaModel, ids) -> SisaModel:
    """Retrain each shard touched by a deletion from scratch on its survivors."""
    touched = set()
    for sid in ids:
        shard = model.assignment.pop(sid, None)
        if shard is None:
            continue
        r = model.rows[shard]
        model.rows[shard] = r[model.ids[r] != sid]
        touched.add(shard)
    for shard in touched:
        r = model.rows[shard]
        model.shards[shard] = gram_from_rows(model.X.take(r, 0), model.y.take(r), model.lam)
    return model


def sisa_memory_scalars(model: SisaModel) -> int:
    """Stored model scalars: two d*d matrices plus two d-vectors per shard."""
    d = model.X.shape[1]
    return len(model.shards) * (2 * d * d + 2 * d)


def weight_accuracy(weight: np.ndarray, samples) -> float:
    """Sign-agreement accuracy of a linear weight vector on labeled samples."""
    rows = as_rows(samples)
    preds = np.where(rows.X @ weight < 0.0, -1, 1)
    return float(np.mean(preds == rows.y))


def sisa_predict_batch(model: SisaModel, X: np.ndarray) -> np.ndarray:
    """Vectorized majority vote over rows of ``X``."""
    W = np.stack([state.weight for state in model.shards])
    votes = np.where(X @ W.T < 0.0, -1, 1).sum(axis=1)
    return np.where(votes < 0, -1, 1)


def sisa_accuracy_batch(model: SisaModel, samples) -> float:
    rows = as_rows(samples)
    return float(np.mean(sisa_predict_batch(model, rows.X) == rows.y))
