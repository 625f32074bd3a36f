"""The exactness invariants of both samplers, checked with the library's own comparisons.

A core-set deletion must leave exactly the state of a fresh fit on the
survivors.  Seven suites back that claim: ``coreset-unlearn verify`` runs them
all from a seed, and the acceptance criteria 1-5 and 9 call the same
functions.  For the linear sampler, deletion equals a fresh fit, replay is
monotone and the leverage bounds hold are checked on one set of random fitted
instances (:func:`check_linear_instances`); the maintained inverse and the
drift identity have suites of their own.  Leverages are formed here from the
maintained inverse, not by the sampler's own ``leverage``.  For the
finite-class sampler, deletion equals a fresh fit on the survivors, value
columns included, and the ERM equals a per-sample loss argmin, both on one set
of random fitted instances (:func:`check_general_instances`).

The suites hold no comparison of their own.  "Equals a fresh fit" is
:func:`~.bbq_linear.system_states_equal`, which skips only
``downdates_since_refresh``, a count of past downdates that a fresh fit has
not taken, and ``==`` of :func:`~.general_bbq.general_state_of_system`; the
drift identity is :func:`~.capacity.drift_identity_gap`.  A suite returns a
``(name, passed, detail)`` triple, whose detail counts what was checked, and
a suite that checked nothing fails.
"""

from __future__ import annotations

import math

import numpy as np

from .bbq_linear import bbq_fit, deletion_update, replay_on_coreset, state_of_system, system_states_equal
from .capacity import drift_identity_gap
from .core_linalg import gram_gap, gram_init, rank_one_downdate, rank_one_update
from .datastreams import DatasetSpec, LabeledSample, gen_dataset
from .general_bbq import (
    FiniteFunctionClass, GeneralSystemState, TableRule, ThresholdRule, erm_fit, general_bbq_fit,
    general_deletion_update, general_state_of_system,
)

WEIGHT_TOL = 1e-8  # fresh-fit weights, dense inverses, drift predictions
ROUND_TRIP_TOL = 1e-10
LEVERAGE_SLACK = 1e-12


def random_linear_instance(rng: np.random.Generator, t_max: int = 2000):
    """A fitted sampler on synthetic realizable data with a satisfiable query condition."""
    T = int(rng.integers(200, t_max + 1))
    d = int(rng.integers(2, 21))
    kappa = float(rng.choice((0.3, 0.5, 0.7)))
    cap_k = float(rng.choice([1, 2, 4, 8]))
    while cap_k >= T**kappa:
        cap_k /= 2
    cap_k = max(cap_k, 1.0)
    ds = gen_dataset(
        DatasetSpec(kind="realizable-linear", T=T, d=d, seed=int(rng.integers(0, 2**31)))
    )
    model = bbq_fit(ds, cap_k=cap_k, kappa=kappa)
    return ds, model


def random_deletion_request(rng: np.random.Generator, ds, model) -> set[int]:
    """Mixed deletion set: up to ``cap_k`` core-set hits, plus up to 10 points outside the core set."""
    core_ids = sorted(model.coreset_ids)
    hits = int(rng.integers(0, min(len(core_ids), int(model.params.cap_k)) + 1)) if core_ids else 0
    u = set(rng.choice(core_ids, size=hits, replace=False).tolist()) if hits else set()
    outside = [sid for sid in ds.ids.tolist() if sid not in model.coreset]
    if outside:
        u |= set(rng.choice(outside, size=min(10, len(outside)), replace=False).tolist())
    return u


def unit_vectors(rng, n, d, max_norm=1.0):
    x = rng.standard_normal((n, d))
    x /= np.maximum(np.linalg.norm(x, axis=1, keepdims=True) / max_norm, 1.0)
    return x


def random_function_class(rng, n_funcs, d):
    """Mixture of axis-threshold rules and constants with values in [0, 1].

    Both are declarative rules (a constant is a table with no entries), so
    ``value_matrix`` fills each of their rows with one ``column`` call.
    """
    funcs = []
    for _ in range(n_funcs):
        if rng.random() < 0.8:
            j = int(rng.integers(d))
            cut = float(rng.uniform(-0.5, 0.5))
            below, above = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            funcs.append(ThresholdRule(j, cut, below, above))
        else:
            funcs.append(TableRule({}, float(rng.uniform(0, 1))))
    return FiniteFunctionClass(funcs)


def random_general_instance(rng, pool_max=200, class_max=32, pool_min=20):
    """Pool plus finite class; labels planted from a class member half the time."""
    n = int(rng.integers(min(pool_min, pool_max), pool_max + 1))
    d = int(rng.integers(2, 6))
    nf = int(rng.integers(2, class_max + 1))
    fclass = random_function_class(rng, nf, d)
    planted = int(rng.integers(nf)) if rng.random() < 0.5 else None
    xs = unit_vectors(rng, n, d)
    samples = []
    for i in range(n):
        s = LabeledSample(i, xs[i], 1)
        p = fclass.evaluate(planted, s) if planted is not None else 0.5
        s.y = 1 if rng.random() < p else -1
        samples.append(s)
    return samples, fclass, planted


def _rng(seed: int, suite: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, suite]))


def _max_leverage(model, X: np.ndarray) -> float:
    """Largest ``x^T A^-1 x`` over the rows of ``X`` under the model's maintained inverse."""
    return float(np.max(((X @ model.gram_state.gram_inv) * X).sum(axis=1), initial=0.0))


def check_sherman_morrison(seed: int, trials: int) -> tuple[str, bool, str]:
    """100 updates and downdates (probability 0.45) per trial against dense re-inversion.

    Each trial ends with an update and downdate of one live point, which must
    give back the state it started from.
    """
    rng = _rng(seed, 1)
    worst_dense = worst_trip = 0.0
    ops = trips = 0
    for _ in range(trials):
        d = int(rng.integers(1, 9))
        lam = float(rng.uniform(1.0, 4.0))
        state = gram_init(d, lam)
        live = []
        for _ in range(100):
            if live and rng.random() < 0.45:
                x, y = live.pop(int(rng.integers(len(live))))
                rank_one_downdate(state, x, y)
            else:
                x = rng.standard_normal(d)
                x *= rng.uniform(0.05, 1.0) / np.linalg.norm(x)
                y = int(rng.choice([-1, 1]))
                rank_one_update(state, x, y)
                live.append((x, y))
            X = np.array([x for x, _ in live]).reshape(-1, d)
            worst_dense = max(worst_dense, float(np.max(np.abs(state.gram_inv - np.linalg.inv(lam * np.eye(d) + X.T @ X)))))
            ops += 1
        if live:
            before = state.copy()
            x, y = live[0]
            rank_one_update(state, x, y)
            rank_one_downdate(state, x, y)
            worst_trip = max(worst_trip, gram_gap(state, before))
            trips += 1
    return (
        "sherman-morrison vs dense inversion",
        ops > 0 and worst_dense < WEIGHT_TOL and worst_trip < ROUND_TRIP_TOL,
        f"{ops} operations, max error {worst_dense:.3e}; {trips} round trips, max error {worst_trip:.3e}",
    )


def check_linear_instances(seed: int, trials: int) -> list[tuple[str, bool, str]]:
    """The deletion, replay and leverage-bound suites over one set of ``trials`` instances.

    Each instance gets a :func:`random_deletion_request`.  Before it is applied,
    every stored point must have leverage at most ``1/(lam+1)`` and a replay on
    the survivors must re-query exactly them.  After it, the model must equal
    that replay, a fresh fit on the survivors (within :data:`WEIGHT_TOL`), and
    every point never queried must have leverage at most ``e * T^-kappa``.  Then up to 20 random training
    ids, any number of them core-set hits, are deleted and the model must
    again equal a fresh fit.  The instance and each replay are fitted on rows;
    ``TestRowsFit`` and the both-forms pins of ``TestSamplerDecisions`` in the
    tests compare the rows fit with the sample-list fit.
    """
    rng = _rng(seed, 2)
    diverged, replay_failed, bound_failed = [], [], []
    hits = replayed = stored = post_hit_checks = 0
    for t in range(trials):
        ds, model = random_linear_instance(rng)
        u = random_deletion_request(rng, ds, model)
        queried = model.coreset_ids
        p = model.params

        core_X = model.coreset.rows().X
        stored_ok = _max_leverage(model, core_X) <= 1.0 / (p.lam + 1.0) + LEVERAGE_SLACK
        stored += len(core_X)

        fresh = replay_on_coreset(model, u)
        if fresh.coreset_ids != queried - u:
            replay_failed.append(t)
        replayed += bool(queried)

        deletion_update(model, u)
        exact = system_states_equal(state_of_system(model), state_of_system(fresh), WEIGHT_TOL)
        never_queried = ds.X[~np.isin(ds.ids, np.fromiter(queried, dtype=np.uint64, count=len(queried)))]
        limit = math.e * p.query_threshold + LEVERAGE_SLACK
        if not (stored_ok and _max_leverage(model, never_queried) <= limit):
            bound_failed.append(t)
        post_hit_checks += bool(queried & u)

        extra = set(rng.choice(ds.ids, size=min(len(ds), 20), replace=False).tolist())
        hits += len(queried & u) + len(model.coreset_ids & extra)
        fresh = replay_on_coreset(model, extra)
        deletion_update(model, extra)
        if not (system_states_equal(state_of_system(model), state_of_system(fresh), WEIGHT_TOL) and exact):
            diverged.append(t)
    return [
        (
            "deletion equals fresh fit on survivors",
            trials > 0 and not diverged,
            f"{trials} instances, {2 * trials} requests with {hits} core-set hits, {len(diverged)} diverged",
        ),
        (
            "replay re-queries exactly the survivors",
            replayed > 0 and not replay_failed,
            f"{replayed} instances with a core set, {len(replay_failed)} diverged",
        ),
        (
            "leverage bounds",
            stored > 0 and not bound_failed,
            f"{stored} stored points, {trials} post-deletion checks ({post_hit_checks} after "
            f"core-set hits), {len(bound_failed)} instances out of bounds",
        ),
    ]


def check_drift_identity(seed: int, trials: int) -> tuple[str, bool, str]:
    """``trials`` instances with a non-empty core set, up to ``cap_k`` victims each, 25 probes per victim.

    At most ``10 * trials`` instances are drawn, so a sampler that queries
    nothing fails the suite rather than stalling it.
    """
    rng = _rng(seed, 5)
    worst = 0.0
    instances = probes = 0
    for _ in range(10 * trials):
        if instances == trials:
            break
        ds, model = random_linear_instance(rng, t_max=800)
        if not model.coreset:
            continue
        instances += 1
        victims = list(model.coreset.ids())
        rng.shuffle(victims)
        for sid in victims[: int(model.params.cap_k)]:
            P = ds.X[rng.integers(0, len(ds), size=25)]
            worst = max(worst, drift_identity_gap(model, sid, P))
            probes += len(P)
    return (
        "rank-one deletion drift identity",
        instances == trials and probes > 0 and worst < WEIGHT_TOL,
        f"{probes} probes on {instances} instances, max error {worst:.3e}",
    )


def _values_match(model, fclass) -> bool:
    """Whether the model's value columns are bit for bit ``fclass.value_matrix`` of its stored samples."""
    want = fclass.value_matrix([s for _, s in model.queried])
    return model.values.shape == want.shape and model.values.tobytes() == want.tobytes()


def _loss_argmin(fclass, labeled) -> int:
    """The squared-loss minimizer over ``labeled``, one ``fclass.evaluate`` call per function and sample."""
    losses = [sum(((1 + s.y) / 2 - fclass.evaluate(j, s)) ** 2 for s in labeled) for j in range(len(fclass))]
    return int(np.argmin(losses))


def check_general_instances(seed: int, trials: int) -> list[tuple[str, bool, str]]:
    """The finite-class deletion and ERM suites over one set of ``trials`` instances that query.

    Each :func:`random_general_instance` is fitted by ``general_bbq_fit``.  One
    that queries nothing is redrawn, and at most ``10 * trials`` are drawn, so a
    sampler that queries nothing fails both suites rather than stalling them.
    Each instance gets one request: 1 to 8 queried ids plus 5 pool ids.  The
    survivors are the queried samples outside the request, taken before the
    deletion, as is ``config``.  After it, ``general_state_of_system`` (the
    stored ids, ``f_hat`` and ``config``) must equal that of an exhaustive
    fresh fit on the survivors with that ``config`` or, when none survive,
    store nothing, keep ``config`` and hold ``erm_fit`` on nothing.  The value
    columns, after the fit and after the deletion, must be bit-equal to
    ``fclass.value_matrix`` of the stored samples.  ``erm_fit`` on the pool and
    ``f_hat`` after the deletion must equal :func:`_loss_argmin`.
    """
    rng = _rng(seed, 6)
    instances = hits = value_checks = erm_checks = diverged = erm_wrong = 0
    for _ in range(10 * trials):
        if instances == trials:
            break
        pool, fclass, _ = random_general_instance(rng)
        model = general_bbq_fit(pool, fclass)
        qids = sorted(model.queried_ids)
        if not qids:
            continue
        instances += 1
        columns_ok = _values_match(model, fclass)
        k = int(rng.integers(1, min(len(qids), 8) + 1))
        u = set(rng.choice(qids, size=k, replace=False).tolist())
        u |= set(rng.choice([s.sample_id for s in pool], size=min(5, len(pool)), replace=False).tolist())
        hits += len(model.queried_ids & u)
        survivors = [s for _, s in model.queried if s.sample_id not in u]
        config = model.config  # as the survivors are, read before the deletion
        general_deletion_update(model, u, fclass)
        columns_ok = _values_match(model, fclass) and columns_ok
        value_checks += 2

        if survivors:
            fresh = general_bbq_fit(survivors, fclass, config.delta, config.rate_bound, exhaust_pool=True)
            want = general_state_of_system(fresh)
        else:
            want = GeneralSystemState(f_hat=erm_fit(fclass, []), stored_ids=frozenset(), config=config)
        diverged += not (general_state_of_system(model) == want and columns_ok)

        for labeled, pick in ((pool, erm_fit(fclass, pool)), (survivors, model.f_hat)):
            erm_checks += 1
            erm_wrong += pick != _loss_argmin(fclass, labeled)
    return [
        (
            "finite-class deletion equals fresh fit on survivors",
            trials > 0 and instances == trials and not diverged,
            f"{instances} instances, {instances} requests with {hits} core-set hits, "
            f"{value_checks} value-column comparisons, {diverged} diverged",
        ),
        (
            "finite-class ERM equals per-sample loss argmin",
            trials > 0 and instances == trials and not erm_wrong,
            f"{erm_checks} ERM comparisons on {instances} instances, {erm_wrong} mismatched",
        ),
    ]


def run_all(seed: int, trials: int) -> list[tuple[str, bool, str]]:
    exact, replay, bounds = check_linear_instances(seed, trials)
    general_exact, erm = check_general_instances(seed, trials)
    return [
        check_sherman_morrison(seed, trials), exact, replay, bounds, check_drift_identity(seed, trials),
        general_exact, erm,
    ]
