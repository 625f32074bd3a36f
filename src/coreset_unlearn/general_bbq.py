"""Staged selective sampling and exact deletion for finite function classes.

The learner works pool-based over a finite class of models mapping inputs to
``[0, 1]``.  Its uncertainty score for a candidate ``x`` against a prefix of
already-queried points is

    d2(x; prefix) = max over pairs (f, g) of
        (f(x) - g(x))^2 / (sum over prefix of (f(x_i) - g(x_i))^2 + 1)

Each stage greedily queries the current argmax while the score exceeds a
halving threshold, fits a squared-loss ERM on the stage's queries, marks the
remaining points the stage ERM is confident about, and stops once the
residual unsure set is small relative to the projected dimension of the
class on the pool.  The query rule never reads labels, so a fresh run on the
surviving queried set re-queries exactly the survivors; the model keeps just
their value columns, and a deletion drops columns and retakes the ERM argmin.

Function classes can be declared in JSON::

    {"format": "finite-function-class", "version": 1,
     "functions": [
       {"name": "f0", "type": "threshold", "feature": 0, "cut": 0.1,
        "below": 0.2, "above": 0.9},
       {"name": "f1", "type": "table", "default": 0.5,
        "values": {"17": 0.8}}
     ]}

Threshold rules read one feature of ``x``; tables map sample ids to values.
These declarative rules also evaluate a whole pool at once (a threshold is one
``np.where`` over a feature column), so ``value_matrix`` fills a rule's row in
one call; an arbitrary callable's row is evaluated one sample at a time.
Evaluators must depend on the input only, never on labels.

All scores are computed on one point-major pair layout: row ``r`` of an
``n x pairs`` array holds ``(f(x) - g(x))^2`` of one pool point for every
pair ``f < g``.  The points not yet taken are packed into the leading rows,
so a pick divides and reduces only those; ties are broken explicitly (the
smallest pool index in the greedy restarts, the smallest sample id in the
stage loop), never by a point's row.  The greedy picks, their tie-breaks and
every recorded score are therefore bit-identical to evaluating the full
``F x F`` table.  The projected dimension is computed only when the
residual exit reads it, never under ``exhaust_pool=True``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .datastreams import LabeledSample

DEFAULT_MAX_CLASS_SIZE = 256
DEFAULT_STAGE_CAP = 30
EXHAUST_STAGE_CAP = 64
DEFAULT_DIM_EXACT_CAP = 8
GREEDY_RESTARTS = 8


class FiniteFunctionClass:
    """An ordered list of named evaluators mapping a sample to ``[0, 1]``."""

    def __init__(self, functions, names=None):
        functions = list(functions)
        if not functions:
            raise ValueError("function class must be nonempty")
        if len(functions) > DEFAULT_MAX_CLASS_SIZE:
            raise ValueError(f"function class size {len(functions)} exceeds cap {DEFAULT_MAX_CLASS_SIZE}")
        self.functions: list[Callable] = functions
        self.names = list(names) if names is not None else [f"f{i}" for i in range(len(functions))]
        if len(self.names) != len(self.functions):
            raise ValueError("names and functions must have equal length")

    def __len__(self) -> int:
        return len(self.functions)

    def _check_features(self, where: str, indices, d: int) -> None:
        """``ValueError`` naming the first threshold rule among ``indices`` that reads past ``d`` features."""
        for j in indices:
            f = self.functions[j]
            if isinstance(f, ThresholdRule) and f.feature >= d:
                raise ValueError(f"{where}: function {self.names[j]} reads feature {f.feature} of {d}-feature samples")

    def evaluate(self, index: int, sample) -> float:
        try:
            value = float(self.functions[index](sample))
        except IndexError:  # a threshold rule on a feature the sample lacks is a ValueError
            self._check_features("evaluate", (index,), len(sample.x))
            raise
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise ValueError(
                f"function {self.names[index]} returned {value}, outside [0, 1]"
            )
        return min(max(value, 0.0), 1.0)

    def value_matrix(self, samples) -> np.ndarray:
        """Dense evaluation table of shape (n_functions, n_samples).

        Each function fills one row: a declarative rule of
        ``load_function_class`` in one ``column`` call over the stacked
        samples, any other callable once per sample through :meth:`evaluate`.
        A threshold rule on a feature the samples lack is rejected up front,
        and the first out-of-range value in row-major order raises the error
        :meth:`evaluate` gives for it.  One clamp then covers the whole table.
        """
        out = np.empty((len(self.functions), len(samples)))
        if not len(samples):
            return out
        self._check_features("value_matrix", range(len(self.functions)), len(samples[0].x))
        xs = np.array([s.x for s in samples], dtype=np.float64)
        ids = [s.sample_id for s in samples]
        for j, f in enumerate(self.functions):
            if hasattr(f, "column"):
                out[j] = f.column(xs, ids)
                bad = np.flatnonzero(~((out[j] >= -1e-9) & (out[j] <= 1.0 + 1e-9)))
                if bad.size:
                    self.evaluate(j, samples[int(bad[0])])  # raises for that value
            else:
                out[j] = [self.evaluate(j, s) for s in samples]
        out[out < 0.0] = 0.0
        out[out > 1.0] = 1.0
        return out


@dataclass(frozen=True)
class ThresholdRule:
    feature: int
    cut: float
    below: float
    above: float

    def __call__(self, sample) -> float:
        return self.below if float(sample.x[self.feature]) <= self.cut else self.above

    def column(self, xs: np.ndarray, ids) -> np.ndarray:
        return np.where(xs[:, self.feature] <= self.cut, self.below, self.above)


@dataclass(frozen=True)
class TableRule:
    values: dict
    default: float

    def __call__(self, sample) -> float:
        return self.values.get(sample.sample_id, self.default)

    def column(self, xs: np.ndarray, ids) -> np.ndarray:
        return np.array([self.values.get(i, self.default) for i in ids], dtype=np.float64)


def _field(entry: dict, key: str, where: str):
    if key not in entry:
        raise ValueError(f"{where}: missing key {key!r}")
    return entry[key]


def _number(entry: dict, key: str, where: str) -> float:
    value = _field(entry, key, where)
    # NaN, infinities and integers beyond the float range all fail the bound
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{where}: {key!r} must be a finite number, got {value!r}")
    return float(value)


def _rule(entry, where: str):
    """One threshold or table rule from its JSON object."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: must be an object, got {entry!r}")
    kind = _field(entry, "type", where)
    if kind == "threshold":
        feature = _field(entry, "feature", where)
        if isinstance(feature, bool) or not isinstance(feature, int) or feature < 0:
            raise ValueError(f"{where}: 'feature' must be a nonnegative integer, got {feature!r}")
        return ThresholdRule(
            feature, _number(entry, "cut", where), _number(entry, "below", where), _number(entry, "above", where)
        )
    if kind == "table":
        values = entry.get("values", {})
        if not isinstance(values, dict):
            raise ValueError(f"{where}: 'values' must be an object, got {values!r}")
        table = {}
        for key in values:
            try:
                sample_id = int(key)
            except ValueError:
                raise ValueError(f"{where}: 'values' key {key!r} is not a sample id") from None
            table[sample_id] = _number(values, key, where)
        return TableRule(table, _number(entry, "default", where) if "default" in entry else 0.5)
    raise ValueError(f"{where}: unknown function type {kind!r}")


def load_function_class(path) -> FiniteFunctionClass:
    """Build a class from the declarative JSON format in the module docstring.

    A malformed document raises ``ValueError`` naming the entry at fault:
    a missing key, a value of the wrong type, a negative or non-integer
    feature, or a number that is not finite.  Rule values outside ``[0, 1]``
    and features past the samples' dimension load and are rejected when
    evaluated.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "finite-function-class" or doc.get("version") != 1:
        raise ValueError(f"{path}: not a version-1 finite-function-class file")
    entries = _field(doc, "functions", str(path))
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'functions' must be a list, got {entries!r}")
    functions, names = [], []
    for k, entry in enumerate(entries):
        where = f"{path}: function {k}"
        functions.append(_rule(entry, where))
        name = entry.get("name", f"f{k}")
        if not isinstance(name, str):
            raise ValueError(f"{where}: 'name' must be a string, got {name!r}")
        names.append(name)
    return FiniteFunctionClass(functions, names=names)


def d2_score(x, prefix, fclass: FiniteFunctionClass) -> float:
    """Maximum of the pairwise disagreement ratio for one candidate."""
    kernel = _PairScores(fclass.value_matrix([*prefix, x]))
    for i in range(len(prefix)):
        kernel.take(i)
    return kernel.score(len(prefix))


class ProjectedDimension(NamedTuple):
    value: float
    exact: bool


class _PairScores:
    """Uncertainty scores of a pool's live points against a growing prefix.

    ``rows`` is C-contiguous ``n x pairs``: one row per pool point, holding
    ``(f(x) - g(x))^2`` for each pair ``f < g``.  The diagonal pairs are 0 and
    ``(a - b)^2 == (b - a)^2`` in IEEE arithmetic, so the maximum over a row
    equals the maximum over the full ``F x F`` table bit for bit.  The first
    ``m`` rows are the live points, in no particular order: ``pos[r]`` is the
    pool index of row ``r`` and ``slot[i]`` the row of pool index ``i``.
    ``take`` moves a point into the prefix: its row is added to ``denom`` and
    swapped with the last live row.
    """

    def __init__(self, values: np.ndarray):
        f, g = np.triu_indices(len(values), 1)
        by_point = np.ascontiguousarray(values.T)
        self.rows = np.take(by_point, f, axis=1)  # C-contiguous, unlike by_point[:, f]
        self.rows -= np.take(by_point, g, axis=1)
        self.rows *= self.rows
        self.denom = np.ones(len(f))
        self.pos = np.arange(values.shape[1])
        self.slot = np.arange(values.shape[1])
        self.m = values.shape[1]
        self._ratios = np.empty_like(self.rows)
        self._scores = np.empty(values.shape[1])
        self._spare = np.empty(len(f))

    def _swap(self, a: int, b: int) -> None:
        if a != b:
            rows, spare = self.rows, self._spare
            spare[:] = rows[a]
            rows[a] = rows[b]
            rows[b] = spare
            i, j = self.pos[a], self.pos[b]
            self.pos[a], self.pos[b] = j, i
            self.slot[i], self.slot[j] = b, a

    def reset(self, revive: bool = True) -> None:
        """Empty the prefix; ``revive`` makes every point live again, else the taken ones stay out."""
        self.denom.fill(1.0)
        if revive:
            self.m = len(self.pos)

    def take(self, i: int) -> None:
        r = int(self.slot[i])
        self.denom += self.rows[r]
        self.m -= 1
        self._swap(r, self.m)

    def score(self, i: int) -> float:
        return float((self.rows[self.slot[i]] / self.denom).max(initial=0.0))

    def scores(self) -> tuple[np.ndarray, np.ndarray]:
        """Scores of the live points and their pool indices, both in row order.

        Both are views into the kernel's buffers, valid until the next ``take``.
        """
        live = self._ratios[: self.m]
        np.divide(self.rows[: self.m], self.denom, out=live)
        np.max(live, axis=1, initial=0.0, out=self._scores[: self.m])
        return self._scores[: self.m], self.pos[: self.m]


def _best_ordering_value(rows: np.ndarray) -> float:
    """Largest sum of scores over every ordering of ``rows``' points, walked depth first.

    A child's ``denom`` is its parent's plus the taken row and its sum adds the
    scores in order, so each leaf has the bits of its ordering replayed alone.
    """
    best = 0.0

    def walk(denom: np.ndarray, total: float, left: list[int]) -> None:
        nonlocal best
        taken = rows[left]
        scores = np.max(taken / denom, axis=1, initial=0.0).tolist()
        if len(left) == 1:
            best = max(best, total + scores[0])
            return
        children = denom + taken
        if len(left) == 2:
            last = np.max(taken[::-1] / children, axis=1, initial=0.0).tolist()
            best = max(best, total + scores[0] + last[0], total + scores[1] + last[1])
            return
        for k, score in enumerate(scores):
            walk(children[k], total + score, left[:k] + left[k + 1:])

    walk(np.ones(rows.shape[1]), 0.0, list(range(len(rows))))
    return best


def _greedy_value(kernel: _PairScores, start: int) -> float:
    kernel.reset()
    total = kernel.score(start)
    kernel.take(start)
    while kernel.m:
        scores, pos = kernel.scores()
        top = scores.max()
        total += float(top)
        kernel.take(int(pos[scores == top].min()))  # ties go to the smallest pool index
    return total


def projected_dimension(fclass: FiniteFunctionClass, samples) -> ProjectedDimension:
    """Worst-case-over-orderings sum of uncertainty scores for a pool.

    Exact (every ordering, enumerated depth first) for pools up to
    ``DEFAULT_DIM_EXACT_CAP`` points, read at call time; larger pools get a
    greedy lower bound from ``GREEDY_RESTARTS`` starts, flagged by
    ``exact=False``.
    """
    kernel = _PairScores(fclass.value_matrix(samples))
    n = len(samples)
    if n == 0:
        return ProjectedDimension(0.0, True)
    if n <= DEFAULT_DIM_EXACT_CAP:
        return ProjectedDimension(_best_ordering_value(kernel.rows), True)
    first_scores = np.max(kernel.rows, axis=1, initial=0.0)  # rows are still in pool order
    starts = np.argsort(-first_scores, kind="stable")[:GREEDY_RESTARTS]
    best = max(_greedy_value(kernel, int(s)) for s in starts)
    return ProjectedDimension(best, False)


def erm_fit(fclass: FiniteFunctionClass, labeled) -> int:
    """Index of the squared-loss minimizer over ``labeled``; ties go to the lowest index.

    Targets are ``(1 + y) / 2``, mapping labels into {0, 1}.  An empty sample
    leaves every loss at zero, so the tie-break returns index 0.
    """
    labeled = list(labeled)
    return _erm_index(fclass.value_matrix(labeled), labeled)


def _erm_index(values: np.ndarray, labeled) -> int:
    """``erm_fit`` on a table whose columns are ``labeled``'s values, in order: the same bits."""
    targets = np.array([(1.0 + s.y) / 2.0 for s in labeled])
    losses = np.sum((targets[None, :] - values) ** 2, axis=1)
    return int(np.argmin(losses))


@dataclass(frozen=True)
class StageRecord:
    stage: int
    eps: float
    queried_ids: tuple[int, ...]
    queried_scores: tuple[float, ...]  # squared score at selection time
    exit_score: float  # max remaining squared score when the stage loop ended
    confident_ids: tuple[int, ...]
    pool_ids: tuple[int, ...]
    survivor_ids: tuple[int, ...]
    stage_erm: int | None


@dataclass(frozen=True)
class GeneralConfig:
    """The fit parameters of one ``general_bbq_fit`` run, which a fresh fit on the survivors reuses.

    The stage cap, projected dimension and stage count stay in the trace:
    they depend on deleted and never-queried points.
    """

    delta: float
    rate_bound: float


@dataclass
class GeneralModelState:
    queried: list[tuple[int, LabeledSample]]  # (stage, sample) in fit order
    values: np.ndarray = field(compare=False)  # C-contiguous F x len(queried), derived from queried
    f_hat: int
    config: GeneralConfig

    @property
    def queried_ids(self) -> set[int]:
        return {s.sample_id for _, s in self.queried}


@dataclass(frozen=True)
class GeneralSystemState:
    f_hat: int
    stored_ids: frozenset[int]


def default_rate_bound(class_size: int, pool_size: int, delta: float) -> float:
    """Standard finite-class squared-loss rate, ``log(|F| * T / delta)``.

    A default, not a derived quantity; callers with a known oracle rate should
    pass their own value.
    """
    return math.log(max(class_size, 1) * max(pool_size, 1) / delta)


def general_bbq_trace(
    pool,
    fclass: FiniteFunctionClass,
    delta: float = 0.05,
    rate_bound: float | None = None,
    *,
    exhaust_pool: bool = False,
) -> tuple[GeneralModelState, list[StageRecord]]:
    """Run the staged greedy sampler over ``pool``, fit the final ERM, and log each stage.

    Labels are read only for queried points.  Stages halve the query
    threshold; the loop exits once the unsure residual is small relative to
    the projected dimension of the class on the pool, when nothing in the
    pool separates any pair of functions, or at the hard stage cap,
    ``DEFAULT_STAGE_CAP`` (``EXHAUST_STAGE_CAP`` under ``exhaust_pool=True``).

    ``exhaust_pool=True`` disables the residual-based exit so stages continue
    until every point on which some pair of functions disagrees has been
    queried.  Deletion-equivalence checks use this mode: a pool consisting
    entirely of previously queried points is exactly the degenerate case the
    residual exit was not designed for, and the equivalence guarantee wants
    every survivor re-queried.  ``ValueError`` names a repeated sample id, a
    ``delta`` outside ``(0, 1)`` or a ``rate_bound`` that is not finite and
    positive.
    """
    pool = list(pool)
    if not pool:
        raise ValueError("pool must be nonempty")
    if len({s.sample_id for s in pool}) != len(pool):
        raise ValueError("sample ids repeat within the pool")
    if not 0.0 < delta < 1.0:  # NaN fails too
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if rate_bound is None:
        rate_bound = default_rate_bound(len(fclass), len(pool), delta)
    if not 0.0 < rate_bound < math.inf:
        raise ValueError(f"rate_bound must be finite and > 0, got {rate_bound}")
    stage_cap = EXHAUST_STAGE_CAP if exhaust_pool else DEFAULT_STAGE_CAP

    values = fclass.value_matrix(pool)
    kernel = _PairScores(values)
    ids = np.array([s.sample_id for s in pool])
    # only the residual exit reads the projected dimension
    pdim = None if exhaust_pool else projected_dimension(fclass, pool)

    survivors = list(range(len(pool)))
    queried: list[tuple[int, LabeledSample]] = []
    queried_idx: list[int] = []
    stage_log: list[StageRecord] = []

    for ell in range(1, stage_cap + 1):
        eps2 = 4.0 ** (-ell) / rate_bound
        kernel.reset(revive=False)  # the live points are this stage's pool
        stage_queries: list[int] = []
        stage_scores: list[float] = []
        exit_score = 0.0
        while kernel.m:
            scores, pos = kernel.scores()
            top = float(scores.max())
            if top <= eps2:
                exit_score = top
                break
            tied = np.sort(pos[scores == top])
            chosen = int(tied[np.argmin(ids[tied])])  # ties go to the smallest sample id
            stage_queries.append(chosen)
            stage_scores.append(top)
            kernel.take(chosen)
        candidates = np.sort(kernel.pos[: kernel.m]).tolist()

        if stage_queries:
            stage_erm = _erm_index(np.take(values, stage_queries, axis=1), [pool[i] for i in stage_queries])
            conf_margin = 3.0 * 2.0 ** (-ell)
            confident = [
                i for i in candidates if abs(values[stage_erm, i] - 0.5) > conf_margin
            ]
        else:
            stage_erm = None
            confident = []

        queried += [(ell, pool[i]) for i in stage_queries]
        queried_idx += stage_queries
        dropped = set(stage_queries) | set(confident)
        survivors = [i for i in survivors if i not in dropped]
        stage_log.append(
            StageRecord(
                stage=ell,
                eps=math.sqrt(eps2),
                queried_ids=tuple(int(ids[i]) for i in stage_queries),
                queried_scores=tuple(stage_scores),
                exit_score=exit_score,
                confident_ids=tuple(int(ids[i]) for i in confident),
                pool_ids=tuple(int(ids[i]) for i in candidates),
                survivor_ids=tuple(int(ids[i]) for i in survivors),
                stage_erm=stage_erm,
            )
        )

        if exhaust_pool:
            undecided = float(np.max(kernel.rows[: kernel.m], initial=0.0))
            if undecided == 0.0:
                break  # every separable point is queried
            continue
        if pdim.value * rate_bound / (2.0 ** (-ell + 1)) > 2.0 ** (-ell + 1) * len(survivors):
            break
        if not stage_queries and not confident:
            remaining_gap = float(np.max(kernel.rows[: kernel.m], initial=0.0))
            if remaining_gap == 0.0:
                break  # no pair of functions disagrees anywhere; nothing can change

    kept = np.take(values, queried_idx, axis=1)  # C-contiguous, unlike values[:, queried_idx]
    f_hat = _erm_index(kept, [s for _, s in queried])
    config = GeneralConfig(delta=delta, rate_bound=rate_bound)
    return GeneralModelState(queried=queried, values=kept, f_hat=f_hat, config=config), stage_log


def general_bbq_fit(
    pool, fclass: FiniteFunctionClass, delta: float = 0.05, rate_bound: float | None = None, *,
    exhaust_pool: bool = False,
) -> GeneralModelState:
    """:func:`general_bbq_trace`'s model; its stage log, which names never-queried points, is dropped."""
    return general_bbq_trace(pool, fclass, delta, rate_bound, exhaust_pool=exhaust_pool)[0]


def general_state_of_system(model: GeneralModelState) -> GeneralSystemState:
    return GeneralSystemState(f_hat=model.f_hat, stored_ids=frozenset(model.queried_ids))


def general_deletion_update(model: GeneralModelState, ids, fclass: FiniteFunctionClass) -> GeneralModelState:
    """Drop deleted queried points and their value columns, then retake the ERM argmin, in place.

    The kept columns equal ``fclass.value_matrix`` of the stored samples, so no rule is
    evaluated; ``fclass`` is only checked for size.  Other requests change nothing.
    """
    if len(fclass) != len(model.values):
        raise ValueError(f"function class has {len(fclass)} functions, the model was fit with {len(model.values)}")
    ids = set(ids)
    keep = np.array([s.sample_id not in ids for _, s in model.queried], dtype=bool)
    if not keep.all():
        model.queried = [pair for pair, kept in zip(model.queried, keep) if kept]
        model.values = np.compress(keep, model.values, axis=1)
        model.f_hat = _erm_index(model.values, [s for _, s in model.queried])
    return model

