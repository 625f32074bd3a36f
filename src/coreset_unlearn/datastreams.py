"""Synthetic datasets as struct-of-arrays, dataset file I/O, and deletion streams.

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
its half for callers that never read ``X``.  Per-sample objects exist
only where an algorithm consumes a stream of them (the selective sampler);
:attr:`Rows.samples` builds them on first use.

Dataset file format ("SADS1"): the magic line ``SADS1\\n``, one line of JSON
``{"T", "d", "kind", "gamma", "seed", "u"}`` terminated by ``\\n``, then T
packed little-endian rows of (sample_id u64, y i8, x d*f64), i.e. exactly
the numpy structured dtype :func:`~.bbq_linear.row_dtype`, which is also the
core-set record of a SAUL1 model file (a model file stores only its params
and these records; its Gram state is derived from them on load).  Loading is
one ``np.frombuffer`` over the file followed by one vectorized validation
pass; round-trips are bit-exact and writes replace the file atomically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .atomic_io import atomic_open
from .bbq_linear import LabeledSample, check_rows, row_dtype, trusted_samples

DATASET_MAGIC = b"SADS1"

DATASET_KINDS = ("realizable-linear", "margin", "clusters")

# Batches of candidate draws per accepted point before giving up on the
# margin rejection loop.
_MAX_REJECTION_ROUNDS = 64


class GenerationInfeasibleError(RuntimeError):
    """Raised when margin rejection sampling stalls (gamma too large for d)."""


class DatasetFormatError(ValueError):
    """Raised on malformed, truncated, or trailing-garbage dataset files."""


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    T: int
    d: int
    seed: int
    gamma: float = 0.0
    u: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.T < 1 or self.d < 1:
            raise ValueError("T and d must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.u is not None and len(self.u) != self.d:
            raise ValueError("planted u has wrong dimension")


@dataclass(eq=False)
class Rows:
    """Labeled samples as aligned arrays: ``ids u64[n]``, ``X f64[n, d]``, ``y i8[n]``.

    ``X`` is C-contiguous; row ``i`` is the sample with id ``ids[i]``.
    """

    ids: np.ndarray
    X: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, index) -> Rows:
        """The rows selected by ``index`` (an index array, mask or slice), in that order."""
        return Rows(self.ids[index], self.X[index], self.y[index])

    @cached_property
    def samples(self) -> list[LabeledSample]:
        """Per-row :class:`LabeledSample` objects, built on first access.

        The rows are checked once, in one vectorized pass (labels and norms,
        raising ``ValueError``), and the samples are then built without
        per-row checks.  Each sample owns a copy of its row, never a view into
        ``X``: a model that keeps a few samples (a core set) must not keep all
        of ``X`` alive.
        """
        check_rows(self.X, self.y)
        return trusted_samples(self.ids, self.X, self.y)


@dataclass(eq=False)
class Dataset(Rows):
    """A generated or loaded dataset: its rows, the spec and the planted direction ``u``."""

    spec: DatasetSpec
    u: np.ndarray


def as_rows(data) -> Rows:
    """``(ids, X, y)`` arrays of ``data``.

    A :class:`Rows` or :class:`Dataset` passes through unchanged; any other
    iterable of :class:`LabeledSample` is stacked once.
    """
    if isinstance(data, Rows):
        return data
    samples = list(data)
    ids, y = ids_and_labels(samples)
    X = np.asarray([s.x for s in samples], dtype=np.float64) if samples else np.empty((0, 0))
    return Rows(ids=ids, X=X, y=y)


def ids_and_labels(data) -> tuple[np.ndarray, np.ndarray]:
    """The ``ids`` and ``y`` arrays of anything :func:`as_rows` accepts, without stacking ``X``."""
    if isinstance(data, Rows):
        return data.ids, data.y
    samples = data if isinstance(data, (list, tuple)) else list(data)
    n = len(samples)
    return (
        np.fromiter((s.sample_id for s in samples), dtype=np.uint64, count=n),
        np.fromiter((s.y for s in samples), dtype=np.int8, count=n),
    )


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


def gen_dataset(spec: DatasetSpec) -> Dataset:
    """Deterministically generate a dataset from its spec.

    Emits exactly ``spec.T`` points; raises :class:`GenerationInfeasibleError`
    when the margin condition rejects essentially every draw.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    if spec.u is not None:
        u = np.asarray(spec.u, dtype=np.float64)
        if np.linalg.norm(u) > 1.0 + 1e-9:
            raise ValueError("planted u must satisfy ||u|| <= 1")
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
    return Dataset(ids=np.arange(spec.T, dtype=np.uint64), X=xs, y=ys, spec=spec, u=u)


def deletion_stream(samples, dist: DeletionDistribution, n: int, seed: int) -> list[int]:
    """Ordered deletion requests: ``n`` distinct sample ids drawn per ``dist``.

    ``samples`` is anything :func:`as_rows` accepts; only its ids and labels are read.
    """
    if n < 0:
        raise ValueError(f"requested {n} deletions; the count must be >= 0")
    ids, y = ids_and_labels(samples)
    if dist.kind == "uniform":
        eligible = ids
    elif dist.kind == "by-label":
        eligible = ids[y == dist.target_label]
    else:
        weights = dist.weights
        id_list = ids.tolist()
        missing = [sid for sid in id_list if sid not in weights]
        if missing:
            raise ValueError(f"weights missing for {len(missing)} sample ids")
        w = np.array([weights[sid] for sid in id_list], dtype=np.float64)
        if np.any(w < 0):
            raise ValueError("deletion weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"deletion weights sum to {total}, expected 1")
        positive = w > 0
        eligible = ids[positive]
        if n > len(eligible):
            raise ValueError(f"requested {n} deletions, only {len(eligible)} have weight")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        # Efraimidis-Spirakis keys: sorting u^(1/w) descending is equivalent to
        # sequential weighted sampling without replacement.
        keys = rng.random(len(eligible)) ** (1.0 / w[positive])
        order = np.argsort(-keys, kind="stable")
        return eligible[order[:n]].tolist()

    if n > len(eligible):
        raise ValueError(f"requested {n} deletions, only {len(eligible)} eligible")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = rng.permutation(len(eligible))
    return eligible[order[:n]].tolist()


def save_dataset(ds: Dataset, path) -> None:
    """Write ``ds`` as SADS1: the two header lines, then all rows as one packed buffer."""
    header = {
        "T": ds.spec.T,
        "d": ds.spec.d,
        "kind": ds.spec.kind,
        "gamma": ds.spec.gamma,
        "seed": ds.spec.seed,
        "u": ds.u.tolist(),
    }
    rows = np.empty(ds.spec.T, dtype=row_dtype(ds.spec.d))
    rows["id"] = ds.ids
    rows["y"] = ds.y
    rows["x"] = ds.X
    with atomic_open(path, "wb") as fh:
        fh.write(DATASET_MAGIC + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(rows)  # the packed array's own buffer, written without a copy


def load_dataset(path) -> Dataset:
    """Read a SADS1 file; raises :class:`DatasetFormatError` on any inconsistency.

    The payload is decoded by one ``np.frombuffer`` call over the file's bytes
    and copied once into the native ``ids``/``X``/``y`` arrays.  Labels outside
    {-1, +1}, rows with ``||x|| > 1`` (or non-finite), duplicate ids, and a
    payload whose length is not exactly ``T`` rows are all rejected.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    magic_end = blob.find(b"\n")
    if magic_end < 0 or blob[:magic_end] != DATASET_MAGIC:
        raise DatasetFormatError(f"bad magic, expected {DATASET_MAGIC!r}")
    header_end = blob.find(b"\n", magic_end + 1)
    if header_end < 0:
        raise DatasetFormatError("missing dataset header line")
    try:
        header = json.loads(blob[magic_end + 1 : header_end].decode("utf-8"))
        spec = DatasetSpec(
            kind=header["kind"], T=int(header["T"]), d=int(header["d"]),
            seed=int(header["seed"]), gamma=float(header["gamma"]),
        )
        u = np.asarray(header["u"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"malformed dataset header: {exc}") from exc
    if u.shape != (spec.d,):
        raise DatasetFormatError(f"planted u has shape {u.shape}, header promises ({spec.d},)")
    dtype = row_dtype(spec.d)
    offset = header_end + 1
    if len(blob) - offset != spec.T * dtype.itemsize:
        raise DatasetFormatError(
            f"dataset payload has {len(blob) - offset} bytes, header promises {spec.T * dtype.itemsize}"
        )
    packed = np.frombuffer(blob, dtype=dtype, count=spec.T, offset=offset)
    ids = packed["id"].astype(np.uint64)
    X = np.ascontiguousarray(packed["x"], dtype=np.float64)
    y = packed["y"].astype(np.int8)
    del packed, blob  # the file bytes are no longer needed; free them before validating
    try:
        check_rows(X, y, ids)
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from exc
    return Dataset(ids=ids, X=X, y=y, spec=spec, u=u)


