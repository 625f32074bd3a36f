"""Deletion-capacity arithmetic and Monte Carlo validation.

Three layers:

  * closed-form budgets: how many core-set deletions the fitted model
    tolerates before its margin guarantee on unqueried points can break
    (:func:`coreset_capacity`), the matching weight-drift envelope
    (:func:`drift_bound`), and the expected total-deletion budget under a
    uniform deletion distribution (:func:`expected_capacity_uniform`) with
    its per-deletion time consequence (:func:`expected_deletion_time`);
  * a runtime gate (:func:`capacity_gate`) that accepts core-set deletions
    while both the count budget and the measured drift budget hold; its
    state since the last fit or rebase, drift reference included, is a
    :class:`MetricSet`, and the model keeps none of it;
  * Monte Carlo estimators (:func:`expected_capacity_mc`) that fit random
    stream permutations in lockstep, :data:`FIT_GROUP` to a pass, and draw
    deletions to compare the empirical exhaustion probability against its
    closed-form bound.

Bound checks on probabilistic statements are reported, never hard-asserted;
hard assertions are reserved for identities: algebraic ones such as
:func:`predicted_deletion_drift`, and the lockstep fit's equality with a
single fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .atomic_io import atomic_open
from .bbq_linear import ModelState, bbq_fit, bbq_fit_orders, state_of_system, system_states_equal
from .core_linalg import GramState, as_integer, rank_one_downdate
from .datastreams import DeletionDistribution, as_rows, deletion_stream, deletion_weights, eligible_ids

ACCEPT = "accept"
BUDGET_EXHAUSTED = "budget-exhausted"

DEFAULT_PROBE_SIZE = 512
FIT_GROUP = 32  # trials per lockstep fit, so the Monte Carlo's memory does not grow with its trial count


@dataclass(frozen=True)
class CapacityParams:
    """Inputs to the closed-form capacity and drift formulas.

    All logarithms in the formulas are natural.
    """

    T: int
    d: int
    kappa: float
    delta: float
    eps_bar: float
    K: float

    def __post_init__(self):
        for name in ("T", "d"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, 1))
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1], got {self.kappa}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0 <= self.eps_bar < math.inf:  # NaN fails too
            raise ValueError(f"eps_bar must be finite and nonnegative, got {self.eps_bar}")
        if not 0 < self.K < math.inf:
            raise ValueError(f"K must be finite and positive, got {self.K}")

    @property
    def log_t(self) -> float:
        """``log T`` in the formulas; 1 at the degenerate horizon ``T == 1``, which keeps them finite."""
        return math.log(self.T) if self.T > 1 else 1.0


@dataclass(eq=False)
class MetricSet:
    """The gate's state since the last fit or rebase.

    ``reference`` is the weights at that fit or rebase, the drift reference;
    ``coreset_deletions`` counts the core-set deletions accepted since; and
    ``eps_hat`` is the margin estimate about ``reference``, set by the first
    gate call from that call's probe rows.  A rebase starts a new
    ``MetricSet`` from the weights it leaves.
    """

    reference: np.ndarray
    coreset_deletions: int = 0
    eps_hat: float | None = None


def coreset_capacity(p: CapacityParams) -> int:
    """Core-set deletion budget implied by the margin estimate, floored at zero."""
    raw = (p.eps_bar**2) * (p.T**p.kappa) / (16.0 * math.e * p.d * p.log_t * math.log(1.0 / p.delta))
    return max(math.floor(raw - 1.0), 0)


def drift_bound(K: int, p: CapacityParams) -> float:
    """Envelope on ``|w^T x - w_del^T x|`` after ``K`` core-set deletions, an integer of at least 0."""
    K = as_integer(K, "K", 0)
    return (
        2.0
        * math.sqrt(math.e * (K + 1))
        * (p.T ** (-p.kappa / 2.0))
        * math.sqrt(p.d * p.log_t * math.log(1.0 / p.delta))
    )


def expected_capacity_uniform(p: CapacityParams, c: float) -> int:
    """Total deletions tolerated under uniform requests at exhaustion probability ``c``."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"failure probability c must lie in (0, 1), got {c}")
    return math.floor(c * p.K * p.T / (p.d * (p.T**p.kappa) * p.log_t))


def expected_deletion_time(K: int, k_total: int, core_cost: float) -> float:
    """Average per-deletion cost when only ``K`` of ``k_total`` requests hit the core set; both are integers."""
    k_total = as_integer(k_total, "k_total", 1)
    if not 0 <= K <= k_total:  # NaN fails too
        raise ValueError(f"K must lie in [0, k_total] = [0, {k_total}], got {K}")
    K = as_integer(K, "K")
    if not 0 <= core_cost < math.inf:
        raise ValueError(f"core_cost must be finite and >= 0, got {core_cost}")
    return (K / k_total) * core_cost


def margin_estimate(weight: np.ndarray, probe_x) -> float:
    """Estimated decision margin: twice the smallest ``|w @ x|`` over unqueried probe rows.

    ``probe_x`` is an ``(n, d)`` array of feature vectors of unqueried
    points; only its first ``DEFAULT_PROBE_SIZE`` rows are read.
    """
    xs = np.asarray(probe_x, dtype=np.float64)[:DEFAULT_PROBE_SIZE]
    if xs.size == 0:
        raise ValueError("margin estimation needs at least one probe point")
    return 2.0 * float(np.min(np.abs(xs @ weight)))


def capacity_gate(model: ModelState, history: MetricSet, probe_x, delta: float = 0.05) -> str:
    """Accept or refuse the next core-set deletion.

    Accepts while the core-set deletion count stays below the closed-form
    budget (floored at one, so the first deletion is always admissible) and
    the measured drift of the live weights against ``history.reference``
    over the probe rows ``probe_x`` (an ``(n, d)`` array of unqueried
    points) stays below half the estimated margin.  The margin estimate
    depends only on the reference and the probe rows, so the first call on
    ``history`` computes it and later calls read ``history.eps_hat``.
    """
    xs = np.asarray(probe_x, dtype=np.float64)[:DEFAULT_PROBE_SIZE]
    if history.eps_hat is None:
        history.eps_hat = margin_estimate(history.reference, xs)
    eps_hat = history.eps_hat
    params = CapacityParams(
        T=model.params.horizon,
        d=model.dim,
        kappa=model.params.kappa,
        delta=delta,
        eps_bar=eps_hat,
        K=model.params.cap_k,
    )
    budget = max(coreset_capacity(params), 1)
    if history.coreset_deletions >= budget:
        return BUDGET_EXHAUSTED
    drift = float(np.max(np.abs(xs @ (model.weight - history.reference))))
    if drift >= eps_hat / 2.0:
        return BUDGET_EXHAUSTED
    return ACCEPT


def predicted_deletion_drift(state: GramState, x_i, y_i: float, probe_x) -> float | np.ndarray:
    """Exact rank-one expansion of the weight drift from one more deletion.

    Predicts ``probe_x @ w_new - probe_x @ w`` for removing ``(x_i, y_i)`` from ``state``
    without the downdate, for one probe vector or an ``(n, d)`` matrix of them.  By
    Sherman-Morrison it is ``probe_x @ A^-1 x_i * (w @ x_i - y_i) / (1 - x_i @ A^-1 x_i)``,
    an algebraic identity that must match the observed drift to rounding error.
    """
    x_i = np.asarray(x_i, dtype=np.float64)
    inv_xi = state.gram_inv @ x_i
    scale = (float(state.weight @ x_i) - y_i) / (1.0 - float(x_i @ inv_xi))
    return (np.asarray(probe_x, dtype=np.float64) @ inv_xi) * scale


def drift_identity_gap(model: ModelState, sample_id: int, probe_x) -> float:
    """Take core-set point ``sample_id`` out of ``model``, predict the drift of ``probe_x @ w``, downdate,
    and return the largest gap between the observed and the predicted drift; the counters stay as they are.
    A NaN gap is returned as ``inf``, which no tolerance accepts."""
    x, y = model.coreset.take(sample_id)
    predicted = predicted_deletion_drift(model.gram_state, x, y, probe_x)  # the module global: a wrapper sees it
    before = probe_x @ model.gram_state.weight
    rank_one_downdate(model.gram_state, x, y)
    gap = float(np.abs(probe_x @ model.gram_state.weight - before - predicted).max(initial=0.0))
    return gap if gap == gap else math.inf


@dataclass
class CapacityCurve:
    """Monte Carlo exhaustion probabilities with the matching closed-form bound."""

    k_total: np.ndarray
    empirical: np.ndarray
    bound: np.ndarray
    quadratic_form_mean: float
    trials: int
    K: int

    def to_report_dict(self, params: CapacityParams) -> dict:
        return {
            "report_version": 1,
            "trials": self.trials,
            "K": self.K,
            "quadratic_form_mean": self.quadratic_form_mean,
            "curve": [
                {"k_total": int(k), "empirical": float(e), "bound": float(b)}
                for k, e, b in zip(self.k_total, self.empirical, self.bound)
            ],
            "params": asdict(params),
            "K_max": coreset_capacity(params),
        }


def capacity_report_json(curve: CapacityCurve, path, params: CapacityParams) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(curve.to_report_dict(params), fh, indent=2, sort_keys=True)
        fh.write("\n")


def second_moment(rows, dist: DeletionDistribution) -> np.ndarray:
    """``E[x x^T]`` of a row ``x`` drawn from ``dist`` over ``rows``, as a ``(d, d)`` array.

    ``X^T X / T`` for ``uniform``, ``X_l^T X_l / n_l`` over the rows labelled
    ``dist.target_label`` for ``by-label``, and ``X^T (w * X)`` for
    ``weighted`` with the checked per-row weights ``w``.  For any ``(d, d)``
    matrix ``M``, ``np.vdot(M, S)`` is the expected ``x^T M x`` under ``dist``.
    """
    X = rows.X
    if dist.kind == "weighted":
        return X.T @ (deletion_weights(rows.ids, dist)[:, None] * X)
    sub = X if dist.kind == "uniform" else X[rows.y == dist.target_label]
    return sub.T @ sub / len(sub)


def _trial_fits(rows, children, cap_k: float, kappa: float):
    """Each trial's ``(order, model, mean inverse, draw seed)``, from its seed in ``children``.

    The trials are fitted :data:`FIT_GROUP` at a time, each group's models
    and means from one :func:`~.bbq_linear.bbq_fit_orders` pass, and a group
    is fitted only once the trials before it are consumed.  Trial 0 is
    checked against its single ``bbq_fit``.
    """
    for first in range(0, len(children), FIT_GROUP):
        seqs = [child.spawn(2) for child in children[first : first + FIT_GROUP]]  # (permutation, draws)
        orders = np.stack([np.random.default_rng(perm_seq).permutation(len(rows)) for perm_seq, _ in seqs])
        models, means = bbq_fit_orders(rows, orders, cap_k, kappa)
        if not first:
            single = bbq_fit(rows.take(orders[0]), cap_k=cap_k, kappa=kappa)
            if not system_states_equal(state_of_system(models[0]), state_of_system(single), tol=0.0):
                raise AssertionError("the lockstep fit of trial 0 differs from its single fit")
        yield from zip(orders, models, means, (draw_seq for _, draw_seq in seqs))


def expected_capacity_mc(
    dataset,
    dist: DeletionDistribution,
    K: int,
    trials: int,
    seed: int,
    *,
    cap_k: float = 32.0,
    kappa: float = 0.5,
    k_total_grid=None,
    check_drift_identity: bool = True,
) -> CapacityCurve:
    """Estimate ``Pr(core-set deletions > K)`` as a function of the request budget.

    ``dataset`` is anything :func:`~.datastreams.as_rows` accepts: a
    :class:`~.datastreams.Rows` or ``Dataset``, or a sample list, which is
    stacked once.  Each trial fits an independent random permutation of the
    rows, draws deletion requests from ``dist`` without replacement, and
    counts how many of the first ``k_total`` requests hit that trial's core
    set.  The trials' fits run in lockstep, :data:`FIT_GROUP` trials to a
    pass of :func:`~.bbq_linear.bbq_fit_orders`, which holds the group's
    permutations as indices and stacks no trial's rows; a group's draws and
    checks finish before the next group is fitted.  Trial 0 is also fitted
    alone by ``bbq_fit``, and ``AssertionError`` is raised unless both fits
    store the same rows in fit order with the same state bits.  The
    closed-form bound side is the expected quadratic form ``x^T M x`` of a
    row ``x`` drawn from ``dist``, where ``M`` is the trial's average
    pre-step inverse Gram matrix, which the lockstep fit returns with its
    models.  That expectation is ``<M, S>``, with
    ``S`` the second-moment matrix of ``dist`` over the rows (see
    :func:`second_moment`), built once per call, so a trial's form costs
    ``O(d^2)`` rather than a pass over the rows.
    Each trial draws its permutation and its deletion requests from its own
    seed, spawned from ``seed``.

    ``trials`` must be an integer of at least 1, ``seed`` a nonnegative
    integer, ``K`` an integer of at least 1, and ``k_total_grid`` a nonempty
    set of distinct integers in ``[1, len(dataset)]`` (sorted here) whose
    largest value ``dist`` can draw (:func:`~.datastreams.eligible_ids`);
    anything else raises ``ValueError`` before the first fit.
    """
    trials, seed, K = as_integer(trials, "trials", 1), as_integer(seed, "seed", 0), as_integer(K, "K", 1)
    rows = as_rows(dataset)
    T = len(rows)
    if k_total_grid is None:
        k_total_grid = np.unique(np.linspace(1, max(T // 2, 1), 12).astype(int))
    k_total_grid = np.asarray(sorted(as_integer(k, "each k_total grid value") for k in k_total_grid), dtype=int)
    if len(k_total_grid) == 0:
        raise ValueError("k_total grid must not be empty")
    if (k_total_grid[1:] == k_total_grid[:-1]).any():
        raise ValueError("k_total grid must not repeat a value")
    if k_total_grid[0] < 1 or k_total_grid[-1] > T:
        raise ValueError("k_total grid must lie within [1, len(dataset)]")
    eligible_ids(rows, dist, int(k_total_grid[-1]))  # every trial draws this many: refuse before any fit

    exceed = np.zeros((trials, len(k_total_grid)))
    qf_values = np.zeros(trials)
    moment = second_moment(rows, dist)

    fits = _trial_fits(rows, np.random.SeedSequence(seed).spawn(trials), cap_k, kappa)
    for trial, (order, model, mean_inv, draw_seq) in enumerate(fits):
        stored = model.coreset.ids()
        qf_values[trial] = np.vdot(mean_inv, moment)

        draws = deletion_stream(
            rows, dist, int(k_total_grid[-1]), seed=int(draw_seq.generate_state(1)[0] % (2**31))
        )
        hit_positions = [pos for pos, sid in enumerate(draws) if sid in stored]
        hits_so_far = np.searchsorted(hit_positions, k_total_grid, side="left")
        # searchsorted over positions counts hits strictly before each budget;
        # positions are 0-based so a budget of k covers positions 0..k-1.
        exceed[trial] = hits_so_far > K

        if check_drift_identity and hit_positions:  # the check takes rows out of the trial's model: read last
            probe = rows.X[order[0]]
            gap = max(drift_identity_gap(model, draws[pos], probe) for pos in hit_positions[: K + 1])
            if gap > 1e-8:
                raise AssertionError(f"deletion drift identity violated: predicted and observed differ by {gap}")

    empirical = exceed.mean(axis=0)
    qf_mean = float(qf_values.mean())
    bound = k_total_grid * (T**kappa) / K * qf_mean
    return CapacityCurve(
        k_total=k_total_grid,
        empirical=empirical,
        bound=bound,
        quadratic_form_mean=qf_mean,
        trials=trials,
        K=K,
    )
