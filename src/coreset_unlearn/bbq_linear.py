"""Selective-sampling linear classifier with exact core-set deletion.

The learner streams over a dataset once and queries the label of a point only
when its leverage ``x^T A^-1 x`` under the current regularized Gram matrix
exceeds ``T^-kappa``.  Queried points form the core set; the model (ridge
weights over the core set) and the core set itself are the only retained
state.  Because the query condition depends on ``x`` alone, rerunning the
sampler on the surviving core set re-queries every survivor, so deletion of a
core-set point reduces to a rank-one downdate: the post-deletion state is
identical to the state of a fresh fit on the survivors.  Deletions of points
outside the core set are free.

Serialized model container ("SAUL1"), all integers and doubles little-endian:

    magic               5 bytes   b"SAUL1"
    version             u8        1
    dim                 u32
    horizon             u64       original stream length T
    kappa               f64
    cap_k               f64       capacity budget K (also the ridge lam)
    n_coreset           u64
    free_deletions      u64
    coreset_deletions   u64
    downdates           u64       downdates since last inverse refresh
    refresh_period      u64
    coreset records     n_coreset x (sample_id u64, y i8, x dim*f64)
    gram                dim*dim f64, row-major
    gram_inv            dim*dim f64, row-major
    b_vec               dim f64
    weight              dim f64

Round-trips are bit-exact and a save replaces the file atomically.  The
per-point query log is a fit-time artifact and is not serialized.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .atomic_io import atomic_open
from .core_linalg import (
    DEFAULT_REFRESH_PERIOD,
    GramState,
    gram_init,
    leverage,
    rank_one_downdate,
    rank_one_update,
)

MODEL_MAGIC = b"SAUL1"
MODEL_VERSION = 1

DEFAULT_CAP_K = 32.0


class ModelFormatError(ValueError):
    """Raised on malformed, truncated, or version-incompatible model files."""


@dataclass
class LabeledSample:
    """A classification example: unique id, feature vector with ||x|| <= 1, label in {-1, +1}."""

    sample_id: int
    x: np.ndarray
    y: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        nrm = float(np.linalg.norm(self.x))
        if nrm > 1.0 + 1e-9:
            raise ValueError(f"sample {self.sample_id}: ||x|| = {nrm} exceeds 1")
        if self.y not in (-1, 1):
            raise ValueError(f"sample {self.sample_id}: label must be -1 or +1, got {self.y}")


@dataclass(frozen=True)
class BBQParams:
    """Hyperparameters fixed at fit time.

    ``horizon`` is the original stream length; the query threshold
    ``horizon**-kappa`` is part of the fitted model and is reused unchanged by
    replays and deletion reasoning.
    """

    horizon: int
    kappa: float
    cap_k: float

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1], got {self.kappa}")
        if self.cap_k < 1:
            raise ValueError(f"cap_k must be >= 1, got {self.cap_k}")

    @property
    def lam(self) -> float:
        return float(self.cap_k)

    @property
    def query_threshold(self) -> float:
        return float(self.horizon) ** (-self.kappa)


@dataclass(frozen=True)
class QueryRecord:
    sample_id: int
    leverage: float
    queried: bool


@dataclass
class ModelState:
    """Fitted sampler state: Gram state, ordered core set, and fit metadata.

    ``fit_weight`` is the drift reference for capacity gating: a snapshot of
    the weights at the end of the fit, rebased on the live weights whenever
    the gate's budget is reset (the state then equals a fresh fit on the
    surviving core set).  A rebase assigns a new array and never writes into
    the old one: the gate caches its margin estimate per reference object.  It is instrumentation: it is not part of the
    externally visible system state and is not serialized.
    """

    gram_state: GramState
    coreset: list[LabeledSample]
    params: BBQParams
    query_log: list[QueryRecord]
    fit_weight: np.ndarray
    coreset_ids: set[int] = field(default_factory=set)
    free_deletions: int = 0
    coreset_deletions: int = 0

    @property
    def weight(self) -> np.ndarray:
        return self.gram_state.weight

    @property
    def dim(self) -> int:
        return self.gram_state.dim


@dataclass(frozen=True)
class SystemState:
    """Everything an observer of the system can see: the model and the stored samples."""

    weight: np.ndarray
    coreset: tuple[LabeledSample, ...]

    @property
    def stored_ids(self) -> frozenset[int]:
        return frozenset(s.sample_id for s in self.coreset)


def bbq_fit(
    stream,
    cap_k: float = DEFAULT_CAP_K,
    kappa: float = 0.5,
    *,
    horizon: int | None = None,
    dim: int | None = None,
    refresh_period: int = DEFAULT_REFRESH_PERIOD,
) -> ModelState:
    """Single pass of the selective sampler over ``stream``.

    A point is queried iff its leverage strictly exceeds ``horizon**-kappa``;
    only then is its label read.  ``horizon`` defaults to ``len(stream)`` and
    ``dim`` to the dimension of the first sample; both must be given
    explicitly to fit an empty stream (used by core-set replays).
    """
    stream = list(stream)
    if horizon is None:
        if not stream:
            raise ValueError("cannot infer horizon from an empty stream")
        horizon = len(stream)
    if dim is None:
        if not stream:
            raise ValueError("cannot infer dim from an empty stream")
        dim = len(stream[0].x)
    params = BBQParams(horizon=int(horizon), kappa=float(kappa), cap_k=float(cap_k))
    threshold = params.query_threshold
    state = gram_init(dim, params.lam, refresh_period=refresh_period)
    coreset: list[LabeledSample] = []
    log: list[QueryRecord] = []
    for s in stream:
        lev = leverage(state, s.x)
        if lev > threshold:
            rank_one_update(state, s.x, s.y)  # label read only on query
            coreset.append(s)
            log.append(QueryRecord(s.sample_id, lev, True))
        else:
            log.append(QueryRecord(s.sample_id, lev, False))
    return ModelState(
        gram_state=state,
        coreset=coreset,
        params=params,
        query_log=log,
        fit_weight=state.weight.copy(),
        coreset_ids={s.sample_id for s in coreset},
    )


def predict(model: ModelState, x) -> int:
    """``sign(w^T x)`` with the tie broken as ``sign(0) = +1``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dim,):
        raise ValueError(f"expected vector of shape ({model.dim},), got {x.shape}")
    return -1 if float(model.weight @ x) < 0.0 else 1


def deletion_update(model: ModelState, ids) -> ModelState:
    """Process deletion requests, in place.

    Requests outside the core set are free: no linear-algebra work happens and
    the free-deletion counter is bumped.  Each core-set hit is removed from
    storage and downdated out of the Gram state.
    """
    ids = set(ids)
    hits = ids & model.coreset_ids
    model.free_deletions += len(ids) - len(hits)
    if not hits:
        return model
    survivors: list[LabeledSample] = []
    for s in model.coreset:
        if s.sample_id in hits:
            rank_one_downdate(model.gram_state, s.x, s.y)
            model.coreset_deletions += 1
        else:
            survivors.append(s)
    model.coreset = survivors
    model.coreset_ids -= hits
    return model


def state_of_system(model: ModelState) -> SystemState:
    """Project to what remains observable after unlearning: weights plus stored samples."""
    return SystemState(weight=model.weight.copy(), coreset=tuple(model.coreset))


def system_states_equal(a: SystemState, b: SystemState, tol: float = 1e-8) -> bool:
    """Stored sets identical and weights within ``tol`` in max-norm."""
    if a.stored_ids != b.stored_ids:
        return False
    if a.weight.shape != b.weight.shape:
        return False
    return float(np.max(np.abs(a.weight - b.weight), initial=0.0)) <= tol


def replay_on_coreset(model: ModelState, ids) -> ModelState:
    """Fresh fit on the surviving core set, keeping the original query threshold.

    The monotone query condition guarantees the replay re-queries every
    survivor, so the result matches the downdated state.  Exists as the
    verification path for that property.
    """
    ids = set(ids)
    survivors = [s for s in model.coreset if s.sample_id not in ids]
    return bbq_fit(
        survivors,
        cap_k=model.params.cap_k,
        kappa=model.params.kappa,
        horizon=model.params.horizon,
        dim=model.dim,
    )


_HEADER = struct.Struct("<5sBIQddQQQQQ")


def save_model(model: ModelState, path) -> None:
    """Write the binary "SAUL1" container documented in the module docstring."""
    g = model.gram_state
    parts = [
        _HEADER.pack(
            MODEL_MAGIC,
            MODEL_VERSION,
            model.dim,
            model.params.horizon,
            model.params.kappa,
            model.params.cap_k,
            len(model.coreset),
            model.free_deletions,
            model.coreset_deletions,
            g.downdates_since_refresh,
            g.refresh_period,
        )
    ]
    rec = struct.Struct(f"<Qb{model.dim}d")
    for s in model.coreset:
        parts.append(rec.pack(s.sample_id, s.y, *s.x.tolist()))
    for arr in (g.gram, g.gram_inv, g.b_vec, g.weight):
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with atomic_open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_model(path) -> ModelState:
    """Read a "SAUL1" container; the query log is not stored and comes back empty."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ModelFormatError("model file shorter than its fixed header")
    (
        magic,
        version,
        dim,
        horizon,
        kappa,
        cap_k,
        n_coreset,
        free_dels,
        core_dels,
        downdates,
        refresh_period,
    ) = _HEADER.unpack_from(blob, 0)
    if magic != MODEL_MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}")
    if version != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    rec = struct.Struct(f"<Qb{dim}d")
    expected = _HEADER.size + n_coreset * rec.size + (2 * dim * dim + 2 * dim) * 8
    if len(blob) != expected:
        raise ModelFormatError(f"model file has {len(blob)} bytes, expected {expected}")
    offset = _HEADER.size
    coreset: list[LabeledSample] = []
    for _ in range(n_coreset):
        fields = rec.unpack_from(blob, offset)
        offset += rec.size
        coreset.append(LabeledSample(fields[0], np.array(fields[2:]), fields[1]))

    def take(count: int) -> np.ndarray:
        nonlocal offset
        out = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).astype(np.float64)
        offset += count * 8
        return out

    gram = take(dim * dim).reshape(dim, dim)
    gram_inv = take(dim * dim).reshape(dim, dim)
    b_vec = take(dim)
    weight = take(dim)
    params = BBQParams(horizon=horizon, kappa=kappa, cap_k=cap_k)
    state = GramState(
        dim=dim,
        lam=params.lam,
        gram=gram,
        gram_inv=gram_inv,
        b_vec=b_vec,
        weight=weight,
        downdates_since_refresh=downdates,
        refresh_period=refresh_period,
    )
    return ModelState(
        gram_state=state,
        coreset=coreset,
        params=params,
        query_log=[],
        fit_weight=weight.copy(),
        coreset_ids={s.sample_id for s in coreset},
        free_deletions=free_dels,
        coreset_deletions=core_dels,
    )
