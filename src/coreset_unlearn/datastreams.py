"""The stored-row format, synthetic datasets as struct-of-arrays, dataset file I/O, and deletion streams.

A dataset is held as three aligned arrays (:class:`Rows`): ``ids u64[T]``,
``X f64[T, d]`` (C-contiguous, rows in the unit ball) and ``y i8[T]`` with
labels in {-1, +1}.  Labels are drawn as ``P(y = +1 | x) = (1 + u @ x) / 2``
for a planted unit vector ``u``.  Three presets:

  * ``realizable-linear``: x uniform in the unit ball.
  * ``margin``: x uniform in the ball, rejection-sampled until
    ``|u @ x| > gamma``.
  * ``clusters``: a Gaussian-mixture covariate law projected into the ball;
    a non-margin workload for the harness, not tied to any reference
    experiment.

:func:`as_rows` is the one conversion between the two representations the
package accepts: a :class:`Rows` (or :class:`Dataset`) passes through, a
sequence of :class:`LabeledSample` is stacked once; :func:`ids_and_labels` is
its half for callers that never read ``X``, and :func:`sample_ids` the half
of that for callers that read no label.  The selective sampler fits
rows directly, and a core set stores the rows it queried as arrays;
per-sample objects exist where a caller asks for a stream of them, and
:attr:`Rows.samples` builds them on first use.

This module owns the stored row and the sample-id rule.  A :class:`Rows` is
checked once, when it is built, under the rule :class:`LabeledSample` applies
to each sample, and holds read-only arrays, so no consumer checks rows again
(:func:`trusted_rows` wraps the rows a core set is built from and the copies
it hands out, checked on their way in, and the rows :meth:`Rows.take`
selects from rows checked already);
every reader of a sample list takes its ids through :func:`sample_ids`, which
refuses a repeat as :class:`Rows` does.  Both file formats store rows packed
as :func:`row_dtype`; :func:`pack_rows` and :func:`unpack_rows` are the one
codec for that payload, and the SADS1 dataset file and the SAUL1 model file
(:mod:`.bbq_linear`) keep their own headers.

Dataset file format ("SADS1"): the magic line ``SADS1\\n``, one line of JSON
``{"T", "d", "kind", "gamma", "seed", "u"}`` terminated by ``\\n``, then the
T packed rows.  Loading is one :func:`unpack_rows` over the file, whose
fields the :class:`Dataset` constructor checks and copies; round-trips are
bit-exact and writes replace the file atomically.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .atomic_io import atomic_open
from .core_linalg import NORM_SLACK, as_integer

DATASET_MAGIC = b"SADS1"

DATASET_KINDS = ("realizable-linear", "margin", "clusters")

# Batches of candidate draws per accepted point before giving up on the
# margin rejection loop.
_MAX_REJECTION_ROUNDS = 64


class GenerationInfeasibleError(RuntimeError):
    """Raised when margin rejection sampling stalls (gamma too large for d)."""


class DatasetFormatError(ValueError):
    """Raised on malformed, truncated, or trailing-garbage dataset files."""


@dataclass(slots=True)
class LabeledSample:
    """A classification example: id in ``[0, 2**64)``, feature vector with ||x|| <= 1, label in {-1, +1}.

    The id is stored as a Python ``int``; anything ``operator.index`` accepts
    may be given.  An id the row format cannot hold raises ``ValueError``.
    """

    sample_id: int
    x: np.ndarray
    y: int

    def __post_init__(self):
        try:
            sid = operator.index(self.sample_id)
        except TypeError:
            sid = None
        if sid is None or not 0 <= sid < 2**64:
            raise ValueError(f"sample {self.sample_id!r}: id must be an integer in [0, 2**64)")
        self.sample_id = sid
        self.x = np.asarray(self.x, dtype=np.float64)
        with np.errstate(over="ignore"):  # a norm that overflows is inf and fails below
            nrm = float(np.linalg.norm(self.x))
        if not nrm <= 1.0 + NORM_SLACK:  # NaN fails too, as in Rows
            raise ValueError(f"sample {self.sample_id}: ||x|| = {nrm} exceeds 1")
        if self.y not in (-1, 1):
            raise ValueError(f"sample {self.sample_id}: label must be -1 or +1, got {self.y}")

    def __eq__(self, other):
        # the generated __eq__ compares the x arrays with ==, whose elementwise result is no bool
        if not isinstance(other, LabeledSample):
            return NotImplemented
        return self.sample_id == other.sample_id and self.y == other.y and np.array_equal(self.x, other.x)


def row_dtype(d: int) -> np.dtype:
    """One stored labeled sample, packed: (id u64, y i8, x d*f64), little-endian.

    The row of a SADS1 dataset file and the core-set record of a SAUL1 model.
    """
    return np.dtype([("id", "<u8"), ("y", "i1"), ("x", "<f8", (d,))])


def _check_rows(ids: np.ndarray, X: np.ndarray, y: np.ndarray) -> None:
    """``ValueError`` naming the first row :class:`LabeledSample` refuses; a vectorized screen picks the rows it tries."""
    id_bad = ids < 0 if ids.dtype.kind in "iu" else np.ones(len(ids), dtype=bool)  # any other dtype: try every row
    # einsum and np.linalg.norm add the squares in other orders: both pass a row below this bound
    safe = (1.0 + NORM_SLACK) ** 2 - X.shape[1] * 2.0**-48
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing or NaN row is flagged
        flagged = id_bad | ~(np.einsum("ij,ij->i", X, X) <= safe) | ((y != 1) & (y != -1))
    for i in np.flatnonzero(flagged).tolist():
        try:
            LabeledSample(ids[i], X[i], y[i])
        except ValueError as exc:
            raise ValueError(f"row {i}: {str(exc).split(': ', 1)[1]}") from exc


def _refuse_repeats(ids: np.ndarray) -> None:
    """``ValueError("duplicate sample ids")`` if an id repeats: a sort and an adjacent compare, cheaper than np.unique."""
    ordered = np.sort(ids)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("duplicate sample ids")


def _read_only(a: np.ndarray, dtype) -> np.ndarray:
    """``a`` as a read-only C-contiguous ``dtype`` array: ``a`` itself if it is one already, else a copy."""
    if a.dtype != dtype or a.flags.writeable or not (a.flags.c_contiguous and a.flags.aligned):
        a = np.array(a, dtype=dtype, order="C")
        a.flags.writeable = False
    return a


def trusted_samples(ids: np.ndarray, X: np.ndarray, y: np.ndarray) -> list[LabeledSample]:
    """One :class:`LabeledSample` per row, built without re-running its checks.

    Only for rows checked already: a :class:`Rows`'s, or a core set's.  Each
    sample owns a copy of its row, never a view into ``X``: a sample taken
    from a dataset must not keep all of ``X`` alive, and one taken from a
    core set must not change when the core set overwrites a removed row.
    """
    new = object.__new__
    out = []
    append = out.append
    for sid, row, label in zip(ids.tolist(), X, y.tolist()):
        s = new(LabeledSample)
        s.sample_id = sid
        s.x = row.copy()
        s.y = label
        append(s)
    return out


def trusted_rows(ids: np.ndarray, X: np.ndarray, y: np.ndarray) -> Rows:
    """A :class:`Rows` of these arrays, uncopied and marked read-only, without re-running its checks.

    Only for C-contiguous arrays in the stored dtypes whose rows were checked
    already, whose ids are distinct and that no one else writes: the rows a
    core set is built from or copies out, and the rows :meth:`Rows.take` selects.
    """
    rows = object.__new__(Rows)
    for name, value in (("ids", ids), ("X", X), ("y", y)):
        value.flags.writeable = False
        object.__setattr__(rows, name, value)
    return rows


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    T: int
    d: int
    seed: int
    gamma: float = 0.0
    u: tuple[float, ...] | None = None

    def __post_init__(self):
        # one saved form: a spec made with ``gamma=0`` saves as ``0.0``, like one made with ``0.0``
        object.__setattr__(self, "gamma", float(self.gamma))
        for name in ("T", "d", "seed"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.T < 1 or self.d < 1:
            raise ValueError("T and d must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.u is not None and len(self.u) != self.d:
            raise ValueError("planted u has wrong dimension")


@dataclass(frozen=True, eq=False)
class Rows:
    """Labeled samples as aligned read-only arrays: ``ids u64[n]``, ``X f64[n, d]``, ``y i8[n]``.

    Row ``i`` is the sample with id ``ids[i]``.  The constructor is the one row
    check: the arrays agree on the row count, each row passes what
    :class:`LabeledSample` checks, and no id repeats; otherwise ``ValueError``
    names the first row a sample would refuse.  An argument already read-only
    in its stored form (``X`` C-contiguous) is kept, trusted not to change
    through another view; any other is copied.  Frozen:
    ``dataclasses.replace`` builds and checks a new one, and ``take`` builds
    one of rows checked already.
    """

    ids: np.ndarray
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        ids, X, y = np.asarray(self.ids), _read_only(np.asarray(self.X), np.float64), np.asarray(self.y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if ids.ndim != 1 or y.ndim != 1:
            raise ValueError(f"ids and y must be 1-D, got shapes {ids.shape} and {y.shape}")
        if not len(ids) == len(X) == len(y):
            raise ValueError(f"ids, X and y hold {len(ids)}, {len(X)} and {len(y)} rows")
        _check_rows(ids, X, y)
        ids, y = _read_only(ids, np.uint64), _read_only(y, np.int8)
        _refuse_repeats(ids)
        for name, value in (("ids", ids), ("X", X), ("y", y)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, index) -> Rows:
        """The rows selected by ``index`` (a 1-D index array, mask or slice), in that order; a repeated row raises.

        These rows passed the row checks when this :class:`Rows` was built, so
        only the repeat check runs, and only for an index array: a slice or a
        mask selects each row at most once.  The result is built by
        :func:`trusted_rows` on the selected arrays, C-contiguous (a stepped
        slice is copied) and read-only.
        """
        if not isinstance(index, slice):
            if np.ndim(index) == 0:
                raise ValueError(f"take needs an index array, mask or slice, got the scalar index {index!r}")
            if np.ndim(index) > 1:
                raise ValueError(f"take needs a 1-D index array or mask, got {np.ndim(index)} dimensions")
        ids = self.ids[index]
        if not isinstance(index, slice) and np.asarray(index).dtype != bool:
            _refuse_repeats(ids)
        return trusted_rows(*map(np.ascontiguousarray, (ids, self.X[index], self.y[index])))

    @cached_property
    def samples(self) -> list[LabeledSample]:
        """Per-row :class:`LabeledSample` objects, built on first access by :func:`trusted_samples`."""
        return trusted_samples(self.ids, self.X, self.y)


@dataclass(frozen=True, eq=False)
class Dataset(Rows):
    """A generated or loaded dataset: its rows, the spec and the planted direction ``u``."""

    spec: DatasetSpec
    u: np.ndarray


def as_rows(data) -> Rows:
    """``(ids, X, y)`` arrays of ``data``.

    A :class:`Rows` or :class:`Dataset` passes through unchanged; any other
    iterable of :class:`LabeledSample` is stacked once, into arrays the constructor keeps uncopied and checks.
    """
    if isinstance(data, Rows):
        return data
    samples = list(data)
    ids, y = _field(samples, "sample_id", np.uint64), _field(samples, "y", np.int8)
    X = np.asarray([s.x for s in samples], dtype=np.float64) if samples else np.empty((0, 0))
    ids.flags.writeable = X.flags.writeable = y.flags.writeable = False  # no one else holds them: kept uncopied
    return Rows(ids=ids, X=X, y=y)


def sample_ids(samples) -> np.ndarray:
    """The ids of the sequence ``samples`` as uint64, in order; reads no label, and a repeat raises as in Rows."""
    ids = _field(samples, "sample_id", np.uint64)
    _refuse_repeats(ids)
    return ids


def ids_and_labels(data) -> tuple[np.ndarray, np.ndarray]:
    """The ``ids`` (by :func:`sample_ids`) and ``y`` arrays of anything :func:`as_rows` accepts, not stacking ``X``."""
    if isinstance(data, Rows):
        return data.ids, data.y
    samples = data if isinstance(data, (list, tuple)) else list(data)
    return sample_ids(samples), _field(samples, "y", np.int8)


def _field(samples, name: str, dtype) -> np.ndarray:
    return np.fromiter(map(operator.attrgetter(name), samples), dtype=dtype, count=len(samples))


def pack_rows(rows: Rows) -> np.ndarray:
    """``rows`` packed as one :func:`row_dtype` array, in order; its buffer is the stored payload."""
    packed = np.empty(len(rows), dtype=row_dtype(rows.X.shape[1]))
    packed["id"] = rows.ids
    packed["y"] = rows.y
    packed["x"] = rows.X
    return packed


def unpack_rows(buffer, n: int, d: int, offset: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(ids, X, y)`` fields of the ``n`` packed rows of width ``d`` at ``offset`` in ``buffer``.

    The fields are unchecked views into ``buffer``: the caller sizes ``buffer``
    against ``n * row_dtype(d).itemsize`` first and builds a :class:`Rows` from
    them, which checks the rows and copies them out.
    """
    packed = np.frombuffer(buffer, dtype=row_dtype(d), count=n, offset=offset)
    return packed["id"], packed["x"], packed["y"]


@dataclass(frozen=True)
class DeletionDistribution:
    """How deletion requests are drawn, always without replacement.

    ``uniform`` over the live dataset, ``by-label`` uniform over points with
    ``target_label``, or ``weighted`` by an explicit probability vector over
    sample ids (nonnegative, summing to one over the live dataset).
    """

    kind: str = "uniform"
    target_label: int = -1
    weights: dict[int, float] | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "by-label", "weighted"):
            raise ValueError(f"unknown deletion distribution kind {self.kind!r}")
        if self.kind == "weighted" and self.weights is None:
            raise ValueError("weighted deletion distribution needs weights")
        if self.kind == "by-label" and self.target_label not in (-1, 1):
            raise ValueError(f"by-label target_label must be -1 or 1, got {self.target_label!r}")


def _unit_ball(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = rng.random(n) ** (1.0 / d)
    return g * radii[:, None]


def _cluster_points(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    n_clusters = 4
    centers = _unit_ball(rng, n_clusters, d) * 0.6
    assignment = rng.integers(0, n_clusters, size=n)
    pts = centers[assignment] + 0.15 * rng.standard_normal((n, d))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    # project anything outside the ball back onto a slightly interior shell
    outside = norms[:, 0] > 1.0
    pts[outside] = pts[outside] / norms[outside] * 0.999
    return pts


def _check_planted(u: np.ndarray) -> None:
    """``ValueError`` unless the planted direction has ``||u|| <= 1`` (a NaN or infinite ``u`` fails too)."""
    with np.errstate(over="ignore"):  # a norm that overflows is inf and fails below
        nrm = float(np.linalg.norm(u))
    if not nrm <= 1.0 + NORM_SLACK:
        raise ValueError(f"planted u must satisfy ||u|| <= 1, got ||u|| = {nrm}")


def gen_dataset(spec: DatasetSpec) -> Dataset:
    """Deterministically generate a dataset from its spec.

    Emits exactly ``spec.T`` points; raises :class:`GenerationInfeasibleError`
    when the margin condition rejects essentially every draw.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    if spec.u is not None:
        u = np.asarray(spec.u, dtype=np.float64)
        _check_planted(u)
    else:
        u = rng.standard_normal(spec.d)
        u /= np.linalg.norm(u)

    xs = np.empty((0, spec.d))
    rounds = 0
    while xs.shape[0] < spec.T:
        if rounds >= _MAX_REJECTION_ROUNDS:
            raise GenerationInfeasibleError(
                f"margin gamma={spec.gamma} rejected nearly all draws in d={spec.d}"
            )
        rounds += 1
        batch = max(spec.T, 1024)
        if spec.kind == "clusters":
            cand = _cluster_points(rng, batch, spec.d)
        else:
            cand = _unit_ball(rng, batch, spec.d)
        if spec.kind == "margin":
            cand = cand[np.abs(cand @ u) > spec.gamma]
        xs = np.vstack([xs, cand])
    xs = xs[: spec.T]

    probs = (1.0 + xs @ u) / 2.0
    ys = np.where(rng.random(spec.T) < probs, 1, -1).astype(np.int8)
    ids = np.arange(spec.T, dtype=np.uint64)
    ids.flags.writeable = xs.flags.writeable = ys.flags.writeable = False  # no one else holds them: kept uncopied
    return Dataset(ids, xs, ys, spec=spec, u=u)


def deletion_weights(ids: np.ndarray, dist: DeletionDistribution) -> np.ndarray:
    """The probability a ``weighted`` distribution gives each of ``ids``, checked.

    Every id needs a weight, every weight must be nonnegative, and together
    they must sum to one; otherwise ``ValueError``.
    """
    weights = dist.weights
    id_list = ids.tolist()
    missing = [sid for sid in id_list if sid not in weights]
    if missing:
        raise ValueError(f"weights missing for {len(missing)} sample ids")
    w = np.array([weights[sid] for sid in id_list], dtype=np.float64)
    if not np.all(w >= 0):  # NaN fails too
        raise ValueError("deletion weights must be nonnegative")
    total = float(w.sum())
    if not abs(total - 1.0) <= 1e-6:
        raise ValueError(f"deletion weights sum to {total}, expected 1")
    return w


def eligible_ids(data, dist: DeletionDistribution, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The ids ``dist`` can draw from ``data``, in order, and for ``weighted`` their positive weights, else ``None``.

    ``data`` is anything :func:`as_rows` accepts; only its ids and labels are
    read.  ``ValueError`` if fewer than ``n`` ids are eligible.
    """
    ids, y = ids_and_labels(data)
    weights = None
    if dist.kind == "uniform":
        eligible = ids
    elif dist.kind == "by-label":
        eligible = ids[y == dist.target_label]
    else:
        w = deletion_weights(ids, dist)
        positive = w > 0
        eligible, weights = ids[positive], w[positive]
    if n > len(eligible):
        have = "eligible" if weights is None else "have weight"
        raise ValueError(f"requested {n} deletions, only {len(eligible)} {have}")
    return eligible, weights


def deletion_stream(samples, dist: DeletionDistribution, n: int, seed: int) -> list[int]:
    """Ordered deletion requests: ``n`` distinct sample ids drawn per ``dist``.

    ``samples`` is anything :func:`as_rows` accepts; only its ids and labels are read, and a repeated id raises.
    The ids drawn from are :func:`eligible_ids`.
    """
    if as_integer(n, "n") < 0:
        raise ValueError(f"requested {n} deletions; the count must be >= 0")
    if as_integer(seed, "seed") < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    eligible, weights = eligible_ids(samples, dist, n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if weights is None:
        order = rng.permutation(len(eligible))
    else:
        # Efraimidis-Spirakis keys: sorting u^(1/w) descending is equivalent to
        # sequential weighted sampling without replacement.
        keys = rng.random(len(eligible)) ** (1.0 / weights)
        order = np.argsort(-keys, kind="stable")
    return eligible[order[:n]].tolist()


def _header_line(spec: DatasetSpec, u: np.ndarray) -> bytes:
    """The JSON header line of a SADS1 file, without its newline; the only form a load accepts."""
    header = {
        "T": int(spec.T),
        "d": int(spec.d),
        "kind": spec.kind,
        "gamma": float(spec.gamma),
        "seed": int(spec.seed),
        "u": u.tolist(),
    }
    return json.dumps(header, sort_keys=True).encode("utf-8")


def save_dataset(ds: Dataset, path) -> None:
    """Write ``ds`` as SADS1: the two header lines, then all rows as one packed buffer."""
    if ds.X.shape != (ds.spec.T, ds.spec.d):
        raise ValueError(f"X has shape {ds.X.shape}, the spec promises ({ds.spec.T}, {ds.spec.d})")
    packed = pack_rows(ds)
    with atomic_open(path, "wb") as fh:
        fh.write(DATASET_MAGIC + b"\n")
        fh.write(_header_line(ds.spec, ds.u) + b"\n")
        fh.write(packed)  # the packed array's own buffer, written without a copy


def load_dataset(path) -> Dataset:
    """Read a SADS1 file; raises :class:`DatasetFormatError` on any inconsistency.

    The payload is decoded by one :func:`unpack_rows` over the file's bytes,
    whose fields the :class:`Dataset` constructor checks and copies once.
    Labels outside {-1, +1}, rows with ``||x|| > 1`` (or non-finite),
    duplicate ids, a payload whose length is not exactly ``T`` rows, a header
    line other than the one :func:`save_dataset` writes for the fields it
    holds, and a planted ``u`` that :func:`gen_dataset` would refuse are all
    rejected, so every file that loads saves back to the same bytes.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    magic_end = blob.find(b"\n")
    if magic_end < 0 or blob[:magic_end] != DATASET_MAGIC:
        raise DatasetFormatError(f"bad magic, expected {DATASET_MAGIC!r}")
    header_end = blob.find(b"\n", magic_end + 1)
    if header_end < 0:
        raise DatasetFormatError("missing dataset header line")
    line = blob[magic_end + 1 : header_end]
    try:
        header = json.loads(line.decode("utf-8"))
        spec = DatasetSpec(
            kind=header["kind"], T=int(header["T"]), d=int(header["d"]),
            seed=int(header["seed"]), gamma=float(header["gamma"]),
        )
        u = np.asarray(header["u"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"malformed dataset header: {exc}") from exc
    if u.shape != (spec.d,):
        raise DatasetFormatError(f"planted u has shape {u.shape}, header promises ({spec.d},)")
    try:
        _check_planted(u)
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from exc
    if line != _header_line(spec, u):
        raise DatasetFormatError("dataset header is not in the form save_dataset writes")
    offset = header_end + 1
    payload = spec.T * row_dtype(spec.d).itemsize
    if len(blob) - offset != payload:
        raise DatasetFormatError(f"dataset payload has {len(blob) - offset} bytes, header promises {payload}")
    try:
        return Dataset(*unpack_rows(blob, spec.T, spec.d, offset), spec=spec, u=u)
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from exc


