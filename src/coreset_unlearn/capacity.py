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
  * Monte Carlo estimators (:func:`expected_capacity_mc`) that refit on
    random stream permutations, one pass each, and draw deletions to compare
    the empirical exhaustion probability against its closed-form bound.

Bound checks on probabilistic statements are reported, never hard-asserted;
hard assertions are reserved for algebraic identities such as
:func:`predicted_deletion_drift`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .atomic_io import atomic_open
from .bbq_linear import ModelState, bbq_fit
from .core_linalg import GramState, rank_one_downdate
from .datastreams import DeletionDistribution, as_rows, deletion_stream, deletion_weights

ACCEPT = "accept"
BUDGET_EXHAUSTED = "budget-exhausted"

DEFAULT_PROBE_SIZE = 512


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
        if self.T < 1 or self.d < 1:
            raise ValueError("T and d must be positive")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1], got {self.kappa}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0 <= self.eps_bar < math.inf:  # NaN fails too
            raise ValueError(f"eps_bar must be finite and nonnegative, got {self.eps_bar}")
        if not 0 < self.K < math.inf:
            raise ValueError(f"K must be finite and positive, got {self.K}")


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
    if p.T == 1:
        log_t = 1.0  # degenerate horizon; keeps the formula finite
    else:
        log_t = math.log(p.T)
    raw = (p.eps_bar**2) * (p.T**p.kappa) / (16.0 * math.e * p.d * log_t * math.log(1.0 / p.delta))
    return max(math.floor(raw - 1.0), 0)


def drift_bound(K: int, p: CapacityParams) -> float:
    """Envelope on ``|w^T x - w_del^T x|`` after ``K`` core-set deletions."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    log_t = math.log(p.T) if p.T > 1 else 1.0
    return (
        2.0
        * math.sqrt(math.e * (K + 1))
        * (p.T ** (-p.kappa / 2.0))
        * math.sqrt(p.d * log_t * math.log(1.0 / p.delta))
    )


def expected_capacity_uniform(p: CapacityParams, c: float) -> int:
    """Total deletions tolerated under uniform requests at exhaustion probability ``c``."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"failure probability c must lie in (0, 1), got {c}")
    log_t = math.log(p.T) if p.T > 1 else 1.0
    return math.floor(c * p.K * p.T / (p.d * (p.T**p.kappa) * log_t))


def expected_deletion_time(K: int, k_total: int, core_cost: float) -> float:
    """Average per-deletion cost when only ``K`` of ``k_total`` requests hit the core set."""
    if k_total < 1:
        raise ValueError(f"k_total must be >= 1, got {k_total}")
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


def predicted_deletion_drift(state: GramState, x_i, y_i: float, probe_x) -> float:
    """Exact rank-one expansion of the weight drift from one more deletion.

    Predicts ``w_new @ probe_x - w @ probe_x`` for removing ``(x_i, y_i)``
    from ``state`` without performing the downdate.  This is an algebraic
    identity and must match the observed drift to rounding error.
    """
    x_i = np.asarray(x_i, dtype=np.float64)
    probe_x = np.asarray(probe_x, dtype=np.float64)
    inv_xi = state.gram_inv @ x_i
    lev_ii = float(x_i @ inv_xi)
    cross = float(probe_x @ inv_xi)
    denom = 1.0 - lev_ii
    w_xi = float(state.weight @ x_i)
    return (w_xi * cross) / denom - y_i * cross - y_i * (lev_ii * cross) / denom


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
            "params": {
                "T": params.T,
                "d": params.d,
                "kappa": params.kappa,
                "delta": params.delta,
                "eps_bar": params.eps_bar,
                "K": params.K,
            },
            "K_max": coreset_capacity(params),
        }


def capacity_report_json(curve: CapacityCurve, path, params: CapacityParams) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(curve.to_report_dict(params), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    stacked once.  Each trial refits on an independent random permutation of
    its rows, draws deletion requests from ``dist`` without replacement, and
    counts how many of the first ``k_total`` requests hit that trial's core
    set.  The closed-form bound side is estimated through the average
    pre-step inverse Gram matrix, formed by the fit in its one pass
    (``bbq_fit``'s ``mean_inverse``).
    Each trial draws its permutation and its deletion requests from its own
    seed, spawned from ``seed``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    rows = as_rows(dataset)
    T = len(rows)
    if k_total_grid is None:
        k_total_grid = np.unique(np.linspace(1, max(T // 2, 1), 12).astype(int))
    k_total_grid = np.asarray(sorted(int(k) for k in k_total_grid), dtype=int)
    if k_total_grid[0] < 1 or k_total_grid[-1] > T:
        raise ValueError("k_total grid must lie within [1, len(dataset)]")

    children = np.random.SeedSequence(seed).spawn(trials)
    exceed = np.zeros((trials, len(k_total_grid)))
    qf_values = np.zeros(trials)
    xs_all = rows.X
    mean_inv = np.empty((xs_all.shape[1],) * 2)  # each trial's fit overwrites it
    if dist.kind == "weighted":
        weights = deletion_weights(rows.ids, dist)

    for trial, child in enumerate(children):
        perm_seq, draw_seq = child.spawn(2)
        rng = np.random.default_rng(perm_seq)
        perm = rng.permutation(T)
        permuted = rows.take(perm)
        model = bbq_fit(permuted, cap_k=cap_k, kappa=kappa, mean_inverse=mean_inv)

        stored = model.coreset.ids()
        if dist.kind == "uniform":
            qf = float(np.mean(np.einsum("ij,jk,ik->i", xs_all, mean_inv, xs_all)))
        elif dist.kind == "by-label":
            sub = xs_all[rows.y == dist.target_label]
            qf = float(np.mean(np.einsum("ij,jk,ik->i", sub, mean_inv, sub)))
        else:
            qf = float(np.einsum("i,ij,jk,ik->", weights, xs_all, mean_inv, xs_all))
        qf_values[trial] = qf

        draws = deletion_stream(
            rows, dist, int(k_total_grid[-1]), seed=int(draw_seq.generate_state(1)[0] % (2**31))
        )
        hit_positions = [pos for pos, sid in enumerate(draws) if sid in stored]
        hits_so_far = np.searchsorted(hit_positions, k_total_grid, side="left")
        # searchsorted over positions counts hits strictly before each budget;
        # positions are 0-based so a budget of k covers positions 0..k-1.
        exceed[trial] = hits_so_far > K

        if check_drift_identity and hit_positions:
            probe_x = xs_all[perm[0]]
            for pos in hit_positions[: K + 1]:
                s = model.coreset.by_id(draws[pos])
                predicted = predicted_deletion_drift(model.gram_state, s.x, s.y, probe_x)
                before = float(model.gram_state.weight @ probe_x)
                rank_one_downdate(model.gram_state, s.x, s.y)
                after = float(model.gram_state.weight @ probe_x)
                if abs((after - before) - predicted) > 1e-8:
                    raise AssertionError(
                        f"deletion drift identity violated: predicted {predicted}, observed {after - before}"
                    )

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
