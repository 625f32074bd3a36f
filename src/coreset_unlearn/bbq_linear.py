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

The core set is a :class:`CoreSet`: samples keyed by id in fit order.  A
core-set hit is looked up and taken out in O(1), so its whole cost is the one
``O(d^2)`` downdate; a batch of hits is downdated in fit order, exactly as a
scan of the core set would meet them.

The fit keeps nothing per point: ``ModelState.query_log`` is ``range(n)``
over the ``n`` streamed points, so it holds no sample id and no leverage.  On
a sample list its per-point work is one leverage evaluation.  On rows
(:class:`~.datastreams.Rows`) it screens blocks of :data:`SCREEN_BLOCK` rows
in one product against the inverse at the block's start.  During a fit ``A``
only grows in PSD order, so that screen bounds each row's leverage from
above for the whole block, and a row it certifies below the threshold costs
no leverage evaluation of its own: the fit spends its per-point work on the
points it may store, whose exact test and update share one product ``A^-1 x``.
The weight is formed once, at the end of the fit.

Serialized model container ("SAUL1"), all integers and doubles little-endian:

    magic               5 bytes   b"SAUL1"
    version             u8        2
    dim                 u32       at most MAX_MODEL_DIM
    horizon             u64       original stream length T
    kappa               f64
    cap_k               f64       capacity budget K (also the ridge lam)
    n_coreset           u64
    coreset records     n_coreset x (sample_id u64, y i8, x dim*f64)

The file keeps what a fresh fit on the surviving core set keeps, and nothing
that tells how many deletions came before.  The records are the rows of a
SADS1 dataset file (:func:`~.datastreams.row_dtype`), in fit order, written
by :func:`~.datastreams.pack_rows` and read by
:func:`~.datastreams.unpack_rows`.  The Gram state is not stored:
:func:`save_model` and :func:`load_model` both derive it from the records with
:func:`~.core_linalg.gram_from_rows`, which by the exactness theorem is the
state of a fresh fit on them, and the saved model takes that state, so the
model in memory and the one loaded from its file agree bit for bit.  A load
checks the records (unique ids, finite values, labels and norms) before
trusting them.  A save replaces the file atomically.  The deletion counters
and the count of streamed points are run-time artifacts and are not
serialized.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .atomic_io import atomic_open
from .core_linalg import (
    FLOAT64,
    GramState,
    as_vector,
    gram_from_rows,
    gram_init,
    leverage,
    rank_one_downdate,
    rank_one_update,
    update_with_product,
)
from .datastreams import LabeledSample, Rows, as_rows, check_rows, pack_rows, row_dtype, trusted_samples, unpack_rows

MODEL_MAGIC = b"SAUL1"
MODEL_VERSION = 2

# Largest dimension a model file may declare.  A load derives d x d matrices
# that the file's length does not bound (4096 is 128 MiB per matrix), so the
# header's dim is checked against this before anything is sized from it.
MAX_MODEL_DIM = 4096

DEFAULT_CAP_K = 32.0

# A fit on rows screens this many rows in one product.
SCREEN_BLOCK = 512

# A screened bound at most ``threshold * (1 - SCREEN_SLACK)`` certifies a row
# unqueried; the slack covers the rounding of the screen and of the
# Sherman-Morrison steps the block's later queries take.
SCREEN_SLACK = 1e-9


class ModelFormatError(ValueError):
    """Raised on malformed, truncated, inconsistent or version-incompatible model files."""


class CoreSet:
    """The stored core set: samples keyed by id, kept in fit order.

    A dict from id to sample keeps insertion order, which is fit order, so
    ``sid in coreset``, :meth:`by_id` and :meth:`remove` are O(1) and removal
    leaves the order of the rest intact.  Beyond those it offers ``len``,
    iteration in fit order, slicing to a list, ``append`` and ``pop()`` of
    the last sample, and :meth:`ids`.  It has no positional indexing: a
    sample is found by its id.
    """

    __slots__ = ("_samples",)

    def __init__(self, samples=()):
        self._samples: dict[int, LabeledSample] = {}
        for s in samples:
            self.append(s)

    def append(self, sample) -> None:
        sid = sample.sample_id
        if sid in self._samples:
            raise ValueError(f"sample id {sid} is already in the core set")
        self._samples[sid] = sample

    def pop(self):
        """Remove and return the last sample in fit order."""
        return self._samples.popitem()[1]

    def remove(self, sample_id: int):
        """Take out and return the sample with ``sample_id``; ``KeyError`` if absent."""
        return self._samples.pop(sample_id)

    def by_id(self, sample_id: int):
        return self._samples[sample_id]

    def ids(self):
        """A live view of the stored ids in fit order: no copy, set operations in C."""
        return self._samples.keys()

    def __contains__(self, sample_id) -> bool:
        return sample_id in self._samples

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples.values())

    def __getitem__(self, index: slice) -> list:
        if type(index) is not slice:
            raise TypeError("a core set is sliced, not indexed: look a sample up with by_id")
        return list(self._samples.values())[index]

    def __repr__(self) -> str:
        return f"CoreSet({list(self)!r})"


@dataclass(frozen=True)
class BBQParams:
    """Hyperparameters fixed at fit time.

    ``horizon`` is the original stream length; the query threshold
    ``horizon**-kappa`` is part of the fitted model and is reused unchanged by
    replays and deletion reasoning.  It is a fit parameter that holds no
    sample value, and a fresh fit on the survivors reuses it.
    """

    horizon: int
    kappa: float
    cap_k: float

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1], got {self.kappa}")
        if not 1 <= self.cap_k < math.inf:  # NaN fails too
            raise ValueError(f"cap_k must be finite and >= 1, got {self.cap_k}")

    @property
    def lam(self) -> float:
        return float(self.cap_k)

    @property
    def query_threshold(self) -> float:
        return float(self.horizon) ** (-self.kappa)


@dataclass
class ModelState:
    """Fitted sampler state: Gram state, ordered core set, and fit metadata.

    The Gram state, core set and ``params`` are what a fresh fit on the
    survivors holds, each stored once; ``coreset_ids`` is read from the core
    set.  Not serialized: ``query_log``, ``range(n)`` for the ``n`` points the
    fit streamed (``range(0)`` when loaded), and ``free_deletions`` and
    ``coreset_deletions``, the requests applied since the fit or load.  The
    weights at the fit are not kept: they depend on every core-set point
    deleted since.  The capacity gate holds its own drift reference.
    """

    gram_state: GramState
    coreset: CoreSet
    params: BBQParams
    query_log: range
    free_deletions: int = 0
    coreset_deletions: int = 0

    @property
    def coreset_ids(self) -> set[int]:
        """A new set of the stored ids, which the caller may change freely."""
        return set(self.coreset.ids())

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
        # copied from a set, a frozenset is sized for its final count: half the
        # table of one grown an element at a time
        return frozenset({s.sample_id for s in self.coreset})


def bbq_fit(
    stream,
    cap_k: float = DEFAULT_CAP_K,
    kappa: float = 0.5,
    *,
    horizon: int | None = None,
    dim: int | None = None,
    mean_inverse: np.ndarray | None = None,
) -> ModelState:
    """Single pass of the selective sampler over ``stream``.

    A point is queried iff its leverage strictly exceeds ``horizon**-kappa``;
    only then does its label enter the state.  ``horizon`` defaults to the
    stream's length and ``dim`` to the dimension of its first point; both
    must be given explicitly to fit an empty stream (used by core-set
    replays).  Sample ids must be unique within the stream.

    ``stream`` is a :class:`~.datastreams.Rows` (a ``Dataset`` is one) or an
    iterable of :class:`LabeledSample`; its type picks the path, and both
    give the same core set in the same order and the same state bits.  Rows
    are checked once as :attr:`~.datastreams.Rows.samples` checks them and
    screened in blocks (:func:`_fit_rows`); each queried row is stored as a
    sample that owns a copy of it.  A sample list keeps the per-point loop,
    which reads a sample's ``y`` only when it queries the sample: stacking
    the list into rows would read every label.

    ``mean_inverse``, a writable float64 ``(dim, dim)`` array given only
    with nonempty rows, is overwritten with the mean over the rows of the
    inverse each is tested against.  The fit forms it in its one pass: the
    inverse changes only at a query, so each one is added once, times the
    number of rows that see it.  A fit without it does not pay for the sum.
    """
    is_rows = isinstance(stream, Rows)
    if is_rows:
        n = len(stream)
        repeated = np.unique(stream.ids).size != n
    else:
        stream = list(stream)
        n = len(stream)
        repeated = len({s.sample_id for s in stream}) != n
    if repeated:
        raise ValueError("sample ids repeat within the stream")
    if horizon is None:
        if not n:
            raise ValueError("cannot infer horizon from an empty stream")
        horizon = n
    if dim is None:
        if not n:
            raise ValueError("cannot infer dim from an empty stream")
        dim = stream.X.shape[1] if is_rows else len(stream[0].x)
    if is_rows and n and stream.X.shape[1] != dim:
        raise ValueError(f"dim {dim} does not match the rows' width {stream.X.shape[1]}")
    if mean_inverse is not None:
        if not (is_rows and isinstance(mean_inverse, np.ndarray)):
            raise TypeError(f"mean_inverse needs Rows and an ndarray, got {type(stream).__name__}")
        shape, dtype = mean_inverse.shape, mean_inverse.dtype
        if not (n and shape == (dim, dim) and dtype == FLOAT64 and mean_inverse.flags.writeable):
            raise ValueError(f"mean_inverse needs nonempty rows and a writable float64 {(dim, dim)}, got {dtype} {shape}")
    params = BBQParams(horizon=int(horizon), kappa=float(kappa), cap_k=float(cap_k))
    threshold = params.query_threshold
    state = gram_init(dim, params.lam)
    if is_rows:
        coreset = _fit_rows(stream, state, threshold, mean_inverse)
    else:
        coreset = CoreSet()
        for s in stream:
            # the module global, so a wrapper installed on it sees every call
            if leverage(state, s.x) > threshold:
                rank_one_update(state, s.x, s.y)  # label read only on query
                coreset.append(s)
    return ModelState(gram_state=state, coreset=coreset, params=params, query_log=range(n))


def _exact_leverage(inv: np.ndarray, x: np.ndarray):
    """``(A^-1 x, x^T A^-1 x)``: the exact test's leverage and the product its update reuses."""
    v = inv.dot(x)
    return v, v.dot(x)


def _fit_rows(rows, state: GramState, threshold: float, total: np.ndarray | None) -> CoreSet:
    """The sampler's pass over ``rows`` into ``state``, screened; the mean inverse goes into ``total`` if given.

    Each block's bounds ``x^T A^-1 x`` are one product against the inverse
    at the block's start.  A later query in the block only shrinks the
    inverse, so a row whose bound is at most ``threshold * (1 -
    SCREEN_SLACK)`` would fail the query test and is skipped.  Every other
    row takes the exact test, and a query reuses the test's product.
    """
    X = np.ascontiguousarray(rows.X, dtype=np.float64)
    check_rows(X, rows.y)
    labels = rows.y.tolist()
    cut = threshold * (1.0 - SCREEN_SLACK)
    inv = state.gram_inv  # each update changes it in place
    trace, prev = total is not None, -1
    if trace:
        total.fill(0.0)
    queried = []
    for start in range(0, len(X), SCREEN_BLOCK):
        block = X[start : start + SCREEN_BLOCK]
        bounds = ((block @ inv) * block).sum(1)
        for i in np.flatnonzero(bounds > cut).tolist():
            x = block[i]
            v, lev = _exact_leverage(inv, x)
            if lev > threshold:
                p = start + i
                if trace:
                    total += (p - prev) * inv
                    prev = p
                update_with_product(state, x, labels[p], v, lev)
                queried.append(p)
    state.weight = inv.dot(state.b_vec)
    if trace:  # the tail run; adding a zero run leaves the bits as they are
        total += (len(X) - 1 - prev) * inv
        total /= len(X)
    return CoreSet(trusted_samples(rows.ids[queried], X[queried], rows.y[queried]))


def predict(model: ModelState, x) -> int:
    """``sign(w^T x)`` with the tie broken as ``sign(0) = +1``."""
    g = model.gram_state
    if not (type(x) is np.ndarray and x.dtype is FLOAT64 and x.shape == (g.dim,)):
        x = as_vector(x, g.dim)  # the fast-path test is inlined: serving calls this per request
    return -1 if g.weight.dot(x) < 0.0 else 1


def deletion_update(model: ModelState, ids) -> ModelState:
    """Process deletion requests, in place.

    Requests outside the core set are free: one set intersection with the
    stored ids finds no hit, and the free-deletion counter is bumped.  Each
    core-set hit is taken out of storage in O(1) and downdated out of the Gram
    state.  The hits of one call are downdated in fit order; only a call with
    several hits pays one pass over the stored ids to order them.
    """
    ids = set(ids)
    coreset, state = model.coreset, model.gram_state
    stored = coreset.ids()
    hits = stored & ids
    model.free_deletions += len(ids) - len(hits)
    if len(hits) > 1:
        hits = [sid for sid in stored if sid in hits]
    for sid in hits:
        s = coreset.remove(sid)
        rank_one_downdate(state, s.x, s.y)
        model.coreset_deletions += 1
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


_HEADER = struct.Struct("<5sBIQddQ")


def _check_dim(dim: int) -> None:
    """``ModelFormatError`` unless a model file may declare ``dim``, which must lie in ``[1, MAX_MODEL_DIM]``."""
    if not 1 <= dim <= MAX_MODEL_DIM:
        raise ModelFormatError(f"model dimension {dim} outside [1, {MAX_MODEL_DIM}]")


def encode_model(model: ModelState) -> bytes:
    """The "SAUL1" container of ``model``, as :func:`save_model` writes it."""
    d, n = model.dim, len(model.coreset)
    _check_dim(d)
    p = model.params
    header = _HEADER.pack(MODEL_MAGIC, MODEL_VERSION, d, p.horizon, p.kappa, p.cap_k, n)
    return header + pack_rows(as_rows(model.coreset)).tobytes()


def save_model(model: ModelState, path) -> None:
    """Write the "SAUL1" container documented in the module docstring.

    After the write the model holds the Gram state derived from the written
    records, the state :func:`load_model` gives back; its deletion counters
    are kept.
    """
    blob = encode_model(model)
    with atomic_open(path, "wb") as fh:
        fh.write(blob)
    records = unpack_rows(blob, len(model.coreset), model.dim, _HEADER.size)
    model.gram_state = gram_from_rows(records.X, records.y, model.params.lam)


def load_model(path) -> ModelState:
    """Read a "SAUL1" container and derive its Gram state from the records.

    The loaded model's ``query_log`` is ``range(0)`` and its deletion counters
    start at zero.  Raises :class:`ModelFormatError` on a malformed file: bad
    magic or version, a dimension outside ``[1, MAX_MODEL_DIM]``, a length
    other than the header implies, non-finite or invalid parameters, and
    records with repeated ids, non-finite values, a label other than -1 or +1
    or a norm above 1.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ModelFormatError("model file shorter than its fixed header")
    magic, version, dim, horizon, kappa, cap_k, n_coreset = _HEADER.unpack_from(blob, 0)
    if magic != MODEL_MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}")
    if version != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    _check_dim(dim)
    expected = _HEADER.size + n_coreset * row_dtype(dim).itemsize
    if len(blob) != expected:
        raise ModelFormatError(f"model file has {len(blob)} bytes, expected {expected}")
    if not (math.isfinite(kappa) and math.isfinite(cap_k)):
        raise ModelFormatError("non-finite kappa or cap_k")
    try:
        params = BBQParams(horizon=horizon, kappa=kappa, cap_k=cap_k)
    except ValueError as exc:
        raise ModelFormatError(f"invalid model parameters: {exc}") from exc
    records = unpack_rows(blob, n_coreset, dim, _HEADER.size)
    try:
        check_rows(records.X, records.y, records.ids)  # a non-finite record fails its norm check
    except ValueError as exc:
        raise ModelFormatError(f"core set: {exc}") from exc
    state = gram_from_rows(records.X, records.y, params.lam)
    coreset = CoreSet(trusted_samples(records.ids, records.X, records.y))
    return ModelState(gram_state=state, coreset=coreset, params=params, query_log=range(0))
