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

The core set is a :class:`CoreSet`: its rows packed in ``ids``, ``X`` and
``y`` arrays in fit order that it owns, with one dict from id to row.  A fit
hands it the rows it queried and a load the records it read, which it copies
once, and neither builds a per-sample object.  A core-set hit is looked up
and taken out in amortized O(1), its stored row overwritten, so the hit's
whole cost is the one ``O(d^2)`` downdate and no deleted value stays in
storage; a batch of hits is downdated in fit order, the order of their
stored rows.

The fit keeps nothing per point: ``ModelState.query_log`` is ``range(n)``
over the ``n`` streamed points, so it holds no sample id and no leverage.  On
a sample list its per-point work is one leverage evaluation.  On rows
(:class:`~.datastreams.Rows`) it screens blocks of :data:`SCREEN_BLOCK` rows
in one product against the inverse at the block's start.  During a fit ``A``
only grows in PSD order, so that screen bounds each row's leverage from
above for the whole block, and a row it certifies below the threshold costs
no leverage evaluation of its own: the fit spends its per-point work on the
points it may store, whose exact test and update share one product ``A^-1 x``.
Later tests read only the inverse, so a query steps only the inverse.  The
state a fit leaves is derived from the core set it queried, by
:func:`~.core_linalg.gram_from_rows`, on either path, so a fit, its file and
a load of that file hold the same state bits.  :func:`bbq_fit_orders` runs
the rows fits of many orderings of one set of rows in lockstep, each round
one batched op over the orderings, with every decision and bit of the single
fits, and returns each ordering's mean inverse, summed in fit order.

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
state of a fresh fit on them.  A fit leaves that state and a saved model
takes it, after any deletions, so the model in memory and the one loaded
from its file agree bit for bit.  A save packs the core set's stored rows in
one step.  A load checks the records by building them as
:class:`~.datastreams.Rows`, and the core set copies them.  A save replaces
the file atomically.  The deletion counters and the count of
streamed points are run-time artifacts and are not serialized.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .atomic_io import atomic_open
from .core_linalg import (
    FLOAT64,
    NORM_SLACK,
    GramState,
    as_integer,
    as_vector,
    gram_from_rows,
    gram_gap,
    gram_init,
    leverage,
    rank_one_downdate,
    rank_one_update,
)
from .datastreams import (
    LabeledSample, Rows, pack_rows, row_dtype, sample_ids, trusted_rows, trusted_samples, unpack_rows,
)

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
    """The stored core set: its rows packed in arrays in fit order, keyed by id.

    The storage is three arrays that the core set owns and writes, ``ids
    u64``, ``X f64[:, d]`` and ``y i8``, and one dict from each stored id to
    its row; ``CoreSet(rows)`` copies the rows of a
    :class:`~.datastreams.Rows` into them, once.  Rows are stored in fit
    order and the dict keeps insertion order, so its keys are the stored ids
    in fit order and no live mask is needed; ``sid in coreset`` is O(1).  A
    removal pops the id and overwrites its row with zeros, so no value of a
    removed sample stays in storage.  When such holes outnumber the stored
    rows, the stored rows move to new arrays in fit order, so removal stays
    amortized O(1); ``append`` moves them every time, so it costs O(len).

    :meth:`take` removes one row and returns its values, :meth:`rows` copies
    the stored rows out and :meth:`ids` is a live view of the stored ids.
    Iteration in fit order, slicing to a list and ``pop()`` of the last row
    build the :class:`~.datastreams.LabeledSample` they return, which owns a
    copy of its row; ``append`` stores a sample's row.  It has no positional
    indexing: a sample is found by its id.
    """

    __slots__ = ("_row", "_ids", "_X", "_y")

    def __init__(self, rows: Rows):
        self._ids, self._X, self._y = rows.ids.copy(), rows.X.copy(), rows.y.copy()
        self._row = dict(zip(rows.ids.tolist(), range(len(rows))))

    def _stored(self):
        """The stored rows' ``(ids, X, y)`` in fit order, as new arrays."""
        if len(self._row) == len(self._X):  # no holes: the arrays are the stored rows in fit order
            return self._ids.copy(), self._X.copy(), self._y.copy()
        keep = np.fromiter(self._row.values(), dtype=np.intp, count=len(self._row))
        return self._ids[keep], self._X[keep], self._y[keep]

    def _move(self, size: int) -> None:
        """Move the stored rows, in fit order, to the first rows of new zeroed arrays of ``size`` rows."""
        stored = self._stored()
        n = len(stored[0])
        self._ids, self._X, self._y = (np.zeros((size, *a.shape[1:]), a.dtype) for a in stored)
        self._ids[:n], self._X[:n], self._y[:n] = stored
        self._row.update(zip(self._row, range(n)))  # in place: a view from ids() stays live

    def append(self, sample) -> None:
        sid = sample.sample_id
        if sid in self._row:
            raise ValueError(f"sample id {sid} is already in the core set")
        x = np.asarray(sample.x, dtype=np.float64)
        if x.shape != self._X.shape[1:]:
            raise ValueError(f"sample {sid}: x has shape {x.shape}, the core set's rows {self._X.shape[1:]}")
        r = len(self._row)
        self._move(r + 1)
        self._ids[r], self._X[r], self._y[r] = sid, x, sample.y
        self._row[sid] = r

    def take(self, sample_id: int) -> tuple[np.ndarray, int]:
        """Take the row of ``sample_id`` out of storage and return its ``(x, y)``; ``KeyError`` if absent.

        ``x`` is a copy: the stored row is overwritten with zeros.
        """
        r = self._row.pop(sample_id)
        x, y = self._X[r].copy(), int(self._y[r])
        self._ids[r], self._X[r], self._y[r] = 0, 0.0, 0
        if 2 * len(self._row) < len(self._X):  # holes outnumber the stored rows
            self._move(len(self._row))
        return x, y

    def rows(self) -> Rows:
        """A read-only copy of the stored rows in fit order, as :class:`~.datastreams.Rows`."""
        return trusted_rows(*self._stored())

    def pop(self) -> LabeledSample:
        """Take out the last row in fit order and return it as a sample."""
        if not self._row:
            raise KeyError("pop from an empty core set")
        sid = next(reversed(self._row))
        return LabeledSample(sid, *self.take(sid))

    def ids(self):
        """A live view of the stored ids in fit order: no copy, set operations in C."""
        return self._row.keys()

    def __contains__(self, sample_id) -> bool:
        return sample_id in self._row

    def __len__(self) -> int:
        return len(self._row)

    def __iter__(self):
        return iter(trusted_samples(*self._stored()))

    def __getitem__(self, index: slice) -> list:
        if type(index) is not slice:
            raise TypeError("a core set is sliced, not indexed")
        return trusted_samples(*(a[index] for a in self._stored()))


@dataclass(frozen=True)
class BBQParams:
    """Hyperparameters fixed at fit time.

    ``horizon`` is the original stream length, an integer; the query threshold
    ``horizon**-kappa`` is part of the fitted model and is reused unchanged by
    replays and deletion reasoning.  It is a fit parameter that holds no
    sample value, and a fresh fit on the survivors reuses it.
    """

    horizon: int
    kappa: float
    cap_k: float

    def __post_init__(self):
        object.__setattr__(self, "horizon", as_integer(self.horizon, "horizon", 1))
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

    @property
    def largest_leverage(self) -> float:
        """``(1 + NORM_SLACK)**2 / lam``: no admissible point's leverage exceeds it.

        A leverage is at most ``||x||**2 / lam``, so a ``query_threshold`` at
        or above this value queries nothing.
        """
        return (1.0 + NORM_SLACK) ** 2 / self.lam


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
    """A copy of everything a model stores.  :func:`system_states_equal` compares all of it but
    ``downdates_since_refresh``, a count of past downdates that a fresh fit has not taken."""

    params: BBQParams
    coreset: Rows
    gram_state: GramState

    @property
    def weight(self) -> np.ndarray:
        return self.gram_state.weight

    @property
    def stored_ids(self) -> frozenset[int]:
        # copied from a set, a frozenset is sized for its final count: half the
        # table of one grown an element at a time
        return frozenset(set(self.coreset.ids.tolist()))


def bbq_fit(
    stream,
    cap_k: float = DEFAULT_CAP_K,
    kappa: float = 0.5,
    *,
    horizon: int | None = None,
    dim: int | None = None,
) -> ModelState:
    """Single pass of the selective sampler over ``stream``.

    A point is queried iff its leverage strictly exceeds ``horizon**-kappa``;
    only then does its label enter the state.  ``horizon`` defaults to the
    stream's length and ``dim`` to the dimension of its first point; both
    must be given explicitly to fit an empty stream (used by core-set
    replays).  A repeated sample id raises, whichever form the stream takes.

    ``stream`` is a :class:`~.datastreams.Rows` (a ``Dataset`` is one) or an
    iterable of :class:`~.datastreams.LabeledSample`; its type picks the path, and both
    give the same core set in the same order.  Rows were checked when built,
    so the fit reads them as they are, screened in blocks (:func:`_fit_rows`),
    and the core set stores a copy of the rows it queried.  A sample list
    (ids by :func:`~.datastreams.sample_ids`) keeps the per-point loop, which
    reads a sample's ``y`` only when it queries the sample: stacking the list
    into rows would read every label.  Its queried samples, checked when they
    were built, are stacked once, at the end.  Either way the model's state
    is :func:`~.core_linalg.gram_from_rows` of the queried rows, the state
    :func:`save_model` and :func:`load_model` derive, so both paths, the
    file and its load agree bit for bit.  :func:`bbq_fit_orders` fits many
    orderings of one :class:`~.datastreams.Rows` at once, with these bits.
    """
    is_rows = isinstance(stream, Rows)  # whose ids are unique by construction
    if not is_rows:
        stream = list(stream)
        sample_ids(stream)  # refuses a repeated id; reads no label
    n = len(stream)
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
    params = BBQParams(horizon=horizon, kappa=float(kappa), cap_k=float(cap_k))
    threshold = params.query_threshold
    state = gram_init(dim, params.lam)  # the inverse the decisions start from
    if is_rows:
        X = stream.X if n else np.empty((0, dim))  # an empty Rows may be (0, 0)
        pos = _fit_rows(X, state.gram_inv, threshold)
        rows = trusted_rows(stream.ids[pos], X[pos], stream.y[pos])
    else:
        queried, labels = [], []
        for s in stream:
            # the module global, so a wrapper installed on it sees every call
            if leverage(state, s.x) > threshold:
                y = s.y  # label read only on query, once
                rank_one_update(state, s.x, y)
                queried.append(s)
                labels.append(y)
        X = np.fromiter((s.x for s in queried), dtype=(np.float64, (dim,)), count=len(queried))
        rows = trusted_rows(sample_ids(queried), X, np.array(labels, dtype=np.int8))
    gram_state = gram_from_rows(rows.X, rows.y, params.lam)  # the state save_model and load_model derive
    return ModelState(gram_state=gram_state, coreset=CoreSet(rows), params=params, query_log=range(n))


def _exact_leverage(inv: np.ndarray, x: np.ndarray):
    """``(A^-1 x, x^T A^-1 x)``: the exact test's leverage and the product its update reuses."""
    v = inv.dot(x)
    return v, v.dot(x)


def _step_inverse(inv: np.ndarray, v: np.ndarray, lev, out: np.ndarray) -> None:
    """``out = inv - v v^T / (1 + lev)``: :func:`~.core_linalg.rank_one_update`'s step, into the other slot."""
    np.multiply(v[:, None], v, out=out)
    out /= 1.0 + lev
    np.subtract(inv, out, out)


def _fit_rows(X: np.ndarray, inv: np.ndarray, threshold: float) -> list[int]:
    """The sampler's pass over the rows ``X`` from the inverse ``inv``, screened: the queried positions in fit order.

    Each block's bounds ``x^T A^-1 x`` are one product against the inverse
    at the block's start.  A later query in the block only shrinks the
    inverse, so a row whose bound is at most ``threshold * (1 -
    SCREEN_SLACK)`` would fail the query test and is skipped.  Every other
    row takes the exact test, and a query reuses the test's product.  Later
    tests read only the inverse, so a query steps only the inverse, from one
    of two slots into the other; the fit derives the rest of its state from
    the rows it queried.
    """
    cut = threshold * (1.0 - SCREEN_SLACK)
    slots = np.empty((2, *inv.shape))
    slots[0] = inv
    inv, queried = slots[0], []  # the inverse the next row is tested against
    for start in range(0, len(X), SCREEN_BLOCK):
        block = X[start : start + SCREEN_BLOCK]
        bounds = ((block @ inv) * block).sum(1)
        for i in np.flatnonzero(bounds > cut).tolist():
            v, lev = _exact_leverage(inv, block[i])
            if lev > threshold:
                queried.append(start + i)
                _step_inverse(inv, v, lev, slots[len(queried) % 2])  # the module global, so a wrapper sees every call
                inv = slots[len(queried) % 2]
    return queried


def bbq_fit_orders(
    rows: Rows, orders, cap_k: float = DEFAULT_CAP_K, kappa: float = 0.5
) -> tuple[list[ModelState], np.ndarray]:
    """The rows fit of each ordering of ``rows``, all in one lockstep pass: ``(models, means)``.

    ``orders`` is a ``(t, n)`` integer array whose every row is a permutation
    of ``range(len(rows))``; model ``j`` is ``bbq_fit(rows.take(orders[j]),
    cap_k, kappa)``, with the same core set in fit order and the same state
    bits.  The orderings are independent, so one pass runs all of them:

    * each screen block is gathered per ordering, ``rows.X[orders[:,
      block]]``, and screened against each ordering's inverse in one batched
      product, as :func:`_fit_rows` screens one;
    * the orderings are sorted by the number of rows their screen flags, so
      round ``k`` of the block tests the ``k``-th flagged row of a prefix of
      them: the exact tests are one stacked ``np.matmul``, which gives the
      bits of each slice's ``.dot``, and the Sherman-Morrison steps of the
      orderings that query are one elementwise op, which gives the bits of
      each slice's step.

    The pass holds the ``(t, n)`` indices and a ``(t, n)`` mask of the
    queried positions, one gathered block, and ``t`` inverses and ``t`` sums
    of mean terms; no ordering's rows are stacked whole.

    ``means`` is a new float64 ``(t, dim, dim)`` array: row ``j`` is ordering
    ``j``'s mean over the rows of the inverse each is tested against.  The
    inverse changes only at a query, so each one is added once, times the
    number of rows that see it, in fit order: the terms are elementwise too,
    and each sum is a loop of ``+=`` in fit order.
    """
    if not isinstance(rows, Rows):
        raise TypeError(f"bbq_fit_orders needs Rows, got {type(rows).__name__}")
    n = len(rows)
    if not n:
        raise ValueError("bbq_fit_orders needs nonempty rows")
    orders = np.asarray(orders)
    if not (orders.dtype.kind in "iu" and orders.ndim == 2 and len(orders) and orders.shape[1] == n
            and (np.sort(orders, axis=1) == np.arange(n)).all()):
        raise ValueError(f"orders must be a nonempty (t, {n}) integer array of permutations of range({n})")
    X, t, d = rows.X, len(orders), rows.X.shape[1]
    params = BBQParams(horizon=n, kappa=float(kappa), cap_k=float(cap_k))
    threshold = params.query_threshold
    # per slot: the ordering it runs, its inverse, its last query's position and its sum of terms
    inv = np.repeat(gram_init(d, params.lam).gram_inv[None], t, axis=0)
    slots = (np.arange(t), inv, np.full(t, -1), np.zeros((t, d, d)))
    queried = np.zeros((t, n), dtype=bool)  # by ordering and position
    for start in range(0, n, SCREEN_BLOCK):
        _lockstep_block(X, orders[slots[0], start : start + SCREEN_BLOCK], start, slots, threshold, queried)
    at, inv, last, total = slots
    total += (n - 1 - last)[:, None, None] * inv  # the tail runs; a zero run leaves the bits as they are
    total /= n
    models = []
    for order, mask in zip(orders, queried):
        take = order[mask]  # the queried rows in fit order
        core = trusted_rows(rows.ids[take], X[take], rows.y[take])
        gram_state = gram_from_rows(core.X, core.y, params.lam)
        models.append(ModelState(gram_state=gram_state, coreset=CoreSet(core), params=params, query_log=range(n)))
    return models, total[np.argsort(at)]


def _lockstep_block(X, index, start: int, slots: tuple, threshold: float, queried: np.ndarray) -> None:
    """One screen block of :func:`bbq_fit_orders`, round by round.

    ``index`` holds each slot's row indices into ``X`` for the block that
    starts at position ``start``.  ``slots`` is ``(at, inv, last, total)``:
    per slot, the ordering it runs, its inverse, its last query's position
    and its sum of mean terms.  They are reordered
    in place, most flagged rows first, and stepped through the block's
    queries.  Each round steps every slot it runs; one that does not query
    adds a zero term and subtracts a zero step, which leave its bits as they
    are.  The block's queries are marked in ``queried[ordering, position]``.
    """
    block = X[index]
    bounds = np.matmul(block, slots[1])
    bounds *= block
    del block  # the flagged rows are gathered again, alone
    flagged = bounds.sum(2) > threshold * (1.0 - SCREEN_SLACK)
    counts = flagged.sum(1)
    by = np.argsort(-counts, kind="stable")
    for a in slots:
        a[...] = a[by]
    at, inv, last, total = slots
    counts = counts[by]
    slot, col = np.nonzero(flagged[by])  # slot by slot, each in fit order
    rank = np.arange(len(slot)) - np.repeat(np.cumsum(counts) - counts, counts)
    rounds = np.argsort(rank, kind="stable")  # round k: the k-th flagged row of each slot that has one
    slot, col = slot[rounds], col[rounds]
    xs, pos = X[index[by[slot], col]], start + col
    hit = np.zeros(len(slot), dtype=bool)
    o = 0
    for p in np.bincount(rank).tolist():  # round k runs on the first p slots
        x, sl = xs[o : o + p, :, None], slice(o, o + p)
        o += p
        v = np.matmul(inv[:p], x)
        lev = np.matmul(v.transpose(0, 2, 1), x)
        q = hit[sl] = (lev > threshold).ravel()
        hits = np.count_nonzero(q)
        if not hits:
            continue
        here = pos[sl]
        # a slot that does not query adds 0 * inv, a zero: a sum that starts at +0.0 never reads -0.0
        total[:p] += ((here - last[:p]) * q)[:, None, None] * inv[:p]
        np.copyto(last[:p], here, where=q)
        step = np.multiply(v, v.transpose(0, 2, 1))
        step /= 1.0 + lev
        if hits < p:
            step[~q] = 0.0  # subtracting +0.0 leaves every value, -0.0 too, as it is
        inv[:p] -= step
    queried[at[slot[hit]], pos[hit]] = True


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
    core-set hit is taken out of storage in amortized O(1), its stored row
    overwritten, and downdated out of the Gram state.  The hits of one call
    are downdated in fit order, which is the order of their stored rows: a
    call with ``h`` hits sorts them in O(h log h).
    """
    ids = set(ids)
    coreset, state = model.coreset, model.gram_state
    hits = coreset.ids() & ids
    model.free_deletions += len(ids) - len(hits)
    if len(hits) > 1:
        hits = sorted(hits, key=coreset._row.__getitem__)
    for sid in hits:
        rank_one_downdate(state, *coreset.take(sid))
        model.coreset_deletions += 1
    return model


def state_of_system(model: ModelState) -> SystemState:
    """The :class:`SystemState` of ``model``."""
    return SystemState(params=model.params, coreset=model.coreset.rows(), gram_state=model.gram_state.copy())


def system_states_equal(a: SystemState, b: SystemState, tol: float = 1e-8) -> bool:
    """The one definition of "equals a fresh fit": ``params``, ``dim`` and the stored ids, ``X``
    and ``y`` in fit order equal bit for bit, the other Gram fields within ``tol`` in max-norm."""
    return (
        a.params == b.params and a.gram_state.dim == b.gram_state.dim
        and all(getattr(a.coreset, f).tobytes() == getattr(b.coreset, f).tobytes() for f in ("ids", "X", "y"))
        and gram_gap(a.gram_state, b.gram_state) <= tol
    )


def replay_on_coreset(model: ModelState, ids) -> ModelState:
    """Fresh fit on the surviving core set, keeping the original query threshold.

    The monotone query condition guarantees the replay re-queries every
    survivor, so the result matches the downdated state.  Exists as the
    verification path for that property.  The survivors are fitted as rows,
    which give the sample-list fit's bits.
    """
    ids = set(ids)
    rows = model.coreset.rows()
    kept = np.fromiter((sid not in ids for sid in rows.ids.tolist()), dtype=bool, count=len(rows))
    return bbq_fit(
        rows.take(kept),
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


def _header(model: ModelState) -> bytes:
    """The "SAUL1" header of ``model``, once its dim is checked."""
    d, p = model.dim, model.params
    _check_dim(d)
    return _HEADER.pack(MODEL_MAGIC, MODEL_VERSION, d, p.horizon, p.kappa, p.cap_k, len(model.coreset))


def encode_model(model: ModelState) -> bytes:
    """The "SAUL1" container of ``model``, as :func:`save_model` writes it."""
    return _header(model) + pack_rows(model.coreset.rows()).tobytes()


def save_model(model: ModelState, path) -> None:
    """Write the "SAUL1" container documented in the module docstring.

    After the write the model holds the Gram state derived from the written
    records, the state :func:`load_model` gives back; its deletion counters
    are kept.  The records and the state both come from the core set's stored
    rows, read in one step.
    """
    header, rows = _header(model), model.coreset.rows()
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(pack_rows(rows))
    model.gram_state = gram_from_rows(rows.X, rows.y, model.params.lam)


def load_model(path) -> ModelState:
    """Read a "SAUL1" container and derive its Gram state from the records.

    The loaded model's ``query_log`` is ``range(0)`` and its deletion counters
    start at zero.  Raises :class:`ModelFormatError` on a malformed file: bad
    magic or version, a dimension outside ``[1, MAX_MODEL_DIM]``, a length
    other than the header implies, non-finite or invalid parameters, and
    records that :class:`~.datastreams.Rows` refuses (repeated ids, labels,
    norms, non-finite values).
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
    try:
        records = Rows(*unpack_rows(blob, n_coreset, dim, _HEADER.size))  # a non-finite record fails too
    except ValueError as exc:
        raise ModelFormatError(f"core set: {exc}") from exc
    state = gram_from_rows(records.X, records.y, params.lam)
    coreset = CoreSet(records)
    return ModelState(gram_state=state, coreset=coreset, params=params, query_log=range(0))
