"""The four benchmark workloads: set-up, one timed pass, and output checks.

Each workload turns the benchmark seed into input files at set-up, then runs
passes that call the library's public API the way an operator or researcher
would.  A pass ends with its output checks, so a pass's wall time is the time
to a checked result.  The library is called through the ``cu`` namespace so
the tracer can swap in wrappers for the traced run.

Why these four (see also perfbench/README.md):

* ``compare-refit`` is the only workload that runs the capacity gate, the
  refit replays, SISA shard retraining, exact downdates and cadence
  evaluation.  ``refit`` rather than ``halt``: under ``halt`` bbq stops after
  two of 6,400 deletions at the desk scale and its timing would be vacuous.
  The dataset is a fifth of the desk scale (T=4,000 rather than 20,000) so
  that a run times many passes, not one.
* ``serve`` is the operator path over files: dataset and model I/O plus the
  per-request deletion path, with reads beside writes.  No gate and no
  baseline runs, so a change there should show no change here.
* ``general-class`` is the only workload that reaches ``general_bbq``.
* ``capacity-mc`` puts the sampler's leverage/rank-one-update loop and the
  Monte Carlo layer at the centre; both are a small share elsewhere.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import coreset_unlearn as cu
from coreset_unlearn import harness

perf = time.perf_counter


@dataclass
class PassResult:
    """What one pass did: operations attempted, caller-seen figures, output digest.

    ``check(**outputs)`` returns the failed output checks.  Checking is kept
    apart from the pass so a traced run can stop tracing before the checks
    call into the library, and so tests can tamper with ``outputs`` first.
    """

    attempted: int
    check: Callable[..., list[str]]
    outputs: dict
    figures: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def failures(self) -> list[str]:
        return self.check(**self.outputs)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def latency_figures(prefix: str, seconds: list[float]) -> dict[str, float]:
    """p50 always; p90/p99 only when at least ten samples lie beyond them (else 0)."""
    us = np.asarray(seconds) * 1e6
    out = {f"{prefix}_p50_us": float(np.median(us)) if len(us) else 0.0}
    if prefix == "delete_hit":
        out["delete_hit_count"] = len(us)
        out["delete_hit_p90_us"] = float(np.percentile(us, 90)) if len(us) >= 100 else 0.0
        out["delete_hit_p99_us"] = float(np.percentile(us, 99)) if len(us) >= 1000 else 0.0
    return out


def check_repeats(digests: list[str]) -> list[str]:
    """Every pass of a run over the same inputs must produce identical outputs."""
    if len(set(digests)) > 1:
        return [f"outputs differ between passes over the same inputs: {sorted(set(digests))}"]
    return []


# ---------------------------------------------------------------- compare-refit

COMPARE_METHODS = ("bbq", "sisa", "retrain")


@dataclass(frozen=True)
class CompareSizes:
    T: int = 4_000
    d: int = 20
    gamma: float = 0.1
    fraction: float = 0.4
    shards: int = 16
    cadence: int = 50


@dataclass
class CompareInputs:
    seed: int
    data: Path
    workdir: Path
    sizes: CompareSizes


@dataclass(frozen=True)
class CompareExpected:
    train_size: int
    n_deletions: int
    retrain_final_accuracy: float


class CompareRefit:
    name = "compare-refit"
    Sizes = CompareSizes
    small = CompareSizes(T=1500, d=5, shards=4, cadence=50)

    def setup(self, seed: int, workdir: Path, sizes: CompareSizes) -> CompareInputs:
        spec = cu.DatasetSpec(kind="margin", T=sizes.T, d=sizes.d, seed=seed, gamma=sizes.gamma)
        path = workdir / "compare.sads"
        cu.save_dataset(cu.gen_dataset(spec), path)
        return CompareInputs(seed=seed, data=path, workdir=workdir, sizes=sizes)

    def config(self, inp: CompareInputs, method: str) -> cu.ExperimentConfig:
        s = inp.sizes
        return cu.ExperimentConfig(
            dataset=str(inp.data), methods=(method,), kappa=0.5, cap_k=32.0, shards=s.shards,
            deletion_kind="by-label", deletion_target_label=-1, deletion_fraction=s.fraction,
            cadence=s.cadence, seed=inp.seed, gate_policy="refit",
        )

    def expect(self, inp: CompareInputs) -> CompareExpected:
        """Oracle from a direct ridge solve on the survivors, computed once, untimed."""
        cfg = self.config(inp, "retrain")
        train, test = harness.stratified_split(cu.load_dataset(inp.data).samples, cfg.test_fraction, cfg.seed)
        n = int(cfg.deletion_fraction * len(train))
        dist = cu.DeletionDistribution(kind=cfg.deletion_kind, target_label=cfg.deletion_target_label)
        gone = set(cu.deletion_stream(train, dist, n, seed=cfg.seed + 1))
        survivors = [s for s in train if s.sample_id not in gone]
        weight = cu.ridge_retrain(survivors, lam=cfg.ridge_lambda)
        return CompareExpected(len(train), n, cu.baselines.weight_accuracy(weight, test))

    def run_pass(self, inp: CompareInputs, expected: CompareExpected) -> PassResult:
        reports, csvs, figures = {}, {}, {}
        for method in COMPARE_METHODS:
            prefix = inp.workdir / f"report_{method}"
            t0 = perf()
            reports[method] = cu.run_experiment(self.config(inp, method))
            cu.emit_report(reports[method], str(prefix))
            figures[f"experiment_s.{method}"] = perf() - t0
            csvs[method] = Path(f"{prefix}_{method}.csv").read_bytes()
        figures["harness.bbq.deletion_time_s"] = reports["bbq"].methods["bbq"].deletion_time
        return PassResult(
            attempted=len(COMPARE_METHODS),
            check=check_compare,
            outputs={"reports": reports, "csvs": csvs, "expected": expected, "cadence": inp.sizes.cadence},
            figures=figures,
            digest=_sha(*(csvs[m] for m in COMPARE_METHODS)),
        )


def check_compare(reports, csvs, expected: CompareExpected, cadence: int) -> list[str]:
    """Every request applied, curves complete and written as reported, retrain exact."""
    failures = []
    for method, report in reports.items():
        rep = report.methods[method]
        n = report.n_deletions
        if (report.train_size, n) != (expected.train_size, expected.n_deletions):
            failures.append(f"{method}: train/deletions {report.train_size}/{n}, "
                            f"expected {expected.train_size}/{expected.n_deletions}")
        checkpoints = list(range(0, n, cadence)) + [n]
        if [k for k, _ in rep.accuracy_curve] != checkpoints:
            failures.append(f"{method}: accuracy curve checkpoints are incomplete")
        if not all(0.0 <= a <= 1.0 for _, a in rep.accuracy_curve):
            failures.append(f"{method}: accuracy outside [0, 1]")
        rows = list(csv.reader(io.StringIO(csvs[method].decode("utf-8"))))
        want = [["deletions", "accuracy", "method"]]
        want += [[str(k), repr(float(a)), method] for k, a in rep.accuracy_curve]
        if rows != want:
            failures.append(f"{method}: CSV does not match the reported accuracy curve")
    bbq = reports["bbq"].methods["bbq"]
    if bbq.halted_at is not None or bbq.coreset_deletions + bbq.free_deletions != reports["bbq"].n_deletions:
        failures.append(
            f"bbq applied {bbq.coreset_deletions}+{bbq.free_deletions} of "
            f"{reports['bbq'].n_deletions} requests (halted_at={bbq.halted_at})"
        )
    final = reports["retrain"].methods["retrain"].accuracy_curve[-1][1]
    if final != expected.retrain_final_accuracy:
        failures.append(f"retrain final accuracy {final} != direct solve {expected.retrain_final_accuracy}")
    return failures


# ---------------------------------------------------------------------- serve

PREDICTS_PER_REQUEST = 4


@dataclass(frozen=True)
class ServeSizes:
    T: int = 100_000
    d: int = 20
    requests: int = 40_000


@dataclass
class ServeInputs:
    data: Path
    workdir: Path
    stream_seed: int
    predict_rows: np.ndarray
    sizes: ServeSizes


class Serve:
    name = "serve"
    Sizes = ServeSizes
    small = ServeSizes(T=3000, d=5, requests=400)

    def setup(self, seed: int, workdir: Path, sizes: ServeSizes) -> ServeInputs:
        path = workdir / "serve.sads"
        cu.save_dataset(cu.gen_dataset(cu.DatasetSpec(kind="realizable-linear", T=sizes.T, d=sizes.d, seed=seed)), path)
        rng = np.random.default_rng([seed, 0x5E])
        rows = rng.integers(0, sizes.T, size=sizes.requests * PREDICTS_PER_REQUEST)
        return ServeInputs(path, workdir, int(rng.integers(0, 2**31)), rows, sizes)

    def expect(self, inp: ServeInputs) -> None:
        return None

    def run_pass(self, inp: ServeInputs, expected=None) -> PassResult:
        t0 = perf()
        ds = cu.load_dataset(inp.data)
        t1 = perf()
        model = cu.bbq_fit(ds.samples, cap_k=32.0, kappa=0.5)
        t2 = perf()
        fitted_ids = cu.state_of_system(model).stored_ids
        model_path = inp.workdir / "serve_model.saul"
        cu.save_model(model, model_path)
        model = cu.load_model(model_path)
        requests = cu.deletion_stream(
            ds.samples, cu.DeletionDistribution(kind="uniform"), inp.sizes.requests, seed=inp.stream_seed
        )
        xs = [ds.samples[i].x for i in inp.predict_rows]
        preds = [0] * len(xs)
        hit_s, free_s, predict_s = [], [], []
        loop_t0 = perf()
        for k, sid in enumerate(requests):
            before = model.coreset_deletions
            a = perf()
            cu.deletion_update(model, [sid])
            b = perf()
            (hit_s if model.coreset_deletions > before else free_s).append(b - a)
            for j in range(k * PREDICTS_PER_REQUEST, (k + 1) * PREDICTS_PER_REQUEST):
                a = perf()
                preds[j] = cu.predict(model, xs[j])
                predict_s.append(perf() - a)
        loop_s = perf() - loop_t0
        cu.save_model(model, model_path)
        last = slice(len(xs) - PREDICTS_PER_REQUEST, len(xs))
        state = cu.state_of_system(model)
        g = model.gram_state
        figures = {
            "load_s": t1 - t0,
            "fit_s": t2 - t1,
            "serve_rps": (len(requests) + len(xs)) / loop_s,
            **latency_figures("delete_hit", hit_s),
            **latency_figures("delete_free", free_s),
            **latency_figures("predict", predict_s),
            "core_linalg.inverse_residual": float(np.max(np.abs(g.gram @ g.gram_inv - np.eye(g.dim)))),
        }
        return PassResult(
            attempted=4 + len(requests) + len(xs),  # load, fit, save+load, final save, requests, predicts
            check=check_serve,
            outputs={
                "model": model, "fitted_ids": fitted_ids, "requests": requests, "saved_path": model_path,
                "last_preds": preds[last], "last_xs": xs[last],
            },
            figures=figures,
            digest=_sha(state.weight.tobytes(), np.array(sorted(state.stored_ids), dtype=np.uint64).tobytes()),
        )


def check_serve(model, fitted_ids, requests, saved_path, last_preds, last_xs) -> list[str]:
    """Final state equals a fresh fit on the survivors; stored set and file agree."""
    failures = []
    state = cu.state_of_system(model)
    if not cu.system_states_equal(state, cu.state_of_system(cu.replay_on_coreset(model, []))):
        failures.append("served state differs from a fresh fit on the surviving core set")
    if state.stored_ids != fitted_ids - set(requests):
        failures.append("stored ids differ from the fitted core set minus the deleted ids")
    if model.free_deletions + model.coreset_deletions != len(requests):
        failures.append(f"{model.free_deletions}+{model.coreset_deletions} deletions counted for {len(requests)} requests")
    loaded = cu.state_of_system(cu.load_model(saved_path))
    if loaded.stored_ids != state.stored_ids or not np.array_equal(loaded.weight, state.weight):
        failures.append("saved model does not round-trip")
    want = [-1 if float(state.weight @ x) < 0.0 else 1 for x in last_xs]
    if list(last_preds) != want:
        failures.append(f"predictions {list(last_preds)} != sign(w @ x) {want}")
    return failures


# -------------------------------------------------------------- general-class


@dataclass(frozen=True)
class GeneralSizes:
    T: int = 200
    d: int = 5
    functions: int = 32
    # Under half of any queried set (159-183 of the 200 points on seeds 1-20),
    # so every seed makes the same number of requests.
    hits: int = 75
    outsiders: int = 15


@dataclass
class GeneralInputs:
    seed: int
    fclass: Path
    pool: list
    sizes: GeneralSizes


class GeneralClass:
    name = "general-class"
    Sizes = GeneralSizes
    small = GeneralSizes(T=60, d=3, functions=10, hits=8, outsiders=4)

    def setup(self, seed: int, workdir: Path, sizes: GeneralSizes) -> GeneralInputs:
        rng = np.random.default_rng([seed, 0x6C])
        functions = [
            {
                "name": f"t{j}", "type": "threshold", "feature": int(rng.integers(0, sizes.d)),
                "cut": float(rng.uniform(-0.5, 0.5)),
                "below": float(rng.uniform(0.0, 1.0)), "above": float(rng.uniform(0.0, 1.0)),
            }
            for j in range(sizes.functions)
        ]
        path = workdir / "threshold_class.json"
        path.write_text(json.dumps({"format": "finite-function-class", "version": 1, "functions": functions}))
        pool = cu.gen_dataset(cu.DatasetSpec(kind="realizable-linear", T=sizes.T, d=sizes.d, seed=seed)).samples
        return GeneralInputs(seed, path, pool, sizes)

    def expect(self, inp: GeneralInputs) -> None:
        return None

    def requests(self, inp: GeneralInputs, queried: frozenset[int]) -> list[int]:
        """About half the queried set plus some never-queried points, in seeded order."""
        rng = np.random.default_rng([inp.seed, 0x72])
        ids = sorted(queried)
        outside = sorted({s.sample_id for s in inp.pool} - queried)
        picks = list(rng.choice(ids, size=min(inp.sizes.hits, len(ids) // 2), replace=False))
        picks += list(rng.choice(outside, size=min(inp.sizes.outsiders, len(outside)), replace=False))
        return [int(picks[i]) for i in rng.permutation(len(picks))]

    def run_pass(self, inp: GeneralInputs, expected=None) -> PassResult:
        t0 = perf()
        fclass = cu.load_function_class(inp.fclass)
        model = cu.general_bbq_fit(inp.pool, fclass)
        fit_s = perf() - t0
        queried_order = [s for _, s in model.queried]
        queried = cu.general_state_of_system(model).stored_ids
        requests = self.requests(inp, queried)
        hit_s, free_s = [], []
        for sid in requests:
            a = perf()
            cu.general_deletion_update(model, [sid], fclass)
            (hit_s if sid in queried else free_s).append(perf() - a)
        state = cu.general_state_of_system(model)
        return PassResult(
            attempted=2 + len(requests),  # class load + fit, then one per request
            check=check_general,
            outputs={"model": model, "queried_order": queried_order, "requests": requests, "fclass": fclass},
            figures={"fit_s": fit_s, **latency_figures("delete_hit", hit_s), **latency_figures("delete_free", free_s)},
            digest=_sha(str((state.f_hat, sorted(state.stored_ids))).encode()),
        )


def check_general(model, queried_order, requests, fclass) -> list[str]:
    """``f_hat`` and stored ids equal those of an exhaustive fresh fit on the survivors."""
    gone = set(requests)
    survivors = [s for s in queried_order if s.sample_id not in gone]
    got = cu.general_state_of_system(model)
    if got.stored_ids != frozenset(s.sample_id for s in survivors):
        return ["stored ids differ from the queried set minus the deleted ids"]
    if not survivors:
        return []
    fresh = cu.general_state_of_system(
        cu.general_bbq_fit(survivors, fclass, rate_bound=model.config.rate_bound, exhaust_pool=True)
    )
    if (fresh.f_hat, fresh.stored_ids) != (got.f_hat, got.stored_ids):
        return [f"state after deletion (f_hat={got.f_hat}) differs from a fresh fit (f_hat={fresh.f_hat})"]
    return []


# ---------------------------------------------------------------- capacity-mc


@dataclass(frozen=True)
class CapacitySizes:
    T: int = 2000
    d: int = 10
    K: int = 10
    cap_k: float = 10.0
    trials: int = 20


@dataclass
class CapacityInputs:
    seed: int
    data: Path
    sizes: CapacitySizes


class CapacityMC:
    name = "capacity-mc"
    Sizes = CapacitySizes
    small = CapacitySizes(T=200, d=4, K=2, cap_k=4.0, trials=5)

    def setup(self, seed: int, workdir: Path, sizes: CapacitySizes) -> CapacityInputs:
        path = workdir / "capacity.sads"
        cu.save_dataset(cu.gen_dataset(cu.DatasetSpec(kind="realizable-linear", T=sizes.T, d=sizes.d, seed=seed)), path)
        return CapacityInputs(seed, path, sizes)

    def expect(self, inp: CapacityInputs) -> None:
        return None

    def run_pass(self, inp: CapacityInputs, expected=None) -> PassResult:
        s = inp.sizes
        samples = cu.load_dataset(inp.data).samples
        try:
            curve = cu.expected_capacity_mc(
                samples, cu.DeletionDistribution(kind="uniform"), K=s.K, trials=s.trials, seed=inp.seed,
                cap_k=s.cap_k, kappa=0.5, check_drift_identity=True,
            )
        except AssertionError as exc:  # the library's own hard check of the drift identity
            return PassResult(attempted=1, check=lambda failure: [failure], outputs={"failure": f"drift identity: {exc}"})
        return PassResult(
            attempted=1,
            check=check_capacity,
            outputs={"curve": curve, "T": len(samples), "trials": s.trials},
            digest=_sha(curve.k_total.tobytes(), curve.empirical.tobytes(), curve.bound.tobytes()),
        )


def check_capacity(curve, T: int, trials: int) -> list[str]:
    """Curve well formed: default grid, probabilities, monotone in the request budget."""
    failures = []
    grid = np.unique(np.linspace(1, max(T // 2, 1), 12).astype(int))
    if curve.trials != trials or not np.array_equal(curve.k_total, grid):
        failures.append("curve grid or trial count differs from the request")
    elif not (curve.empirical.shape == curve.bound.shape == grid.shape):
        failures.append("curve arrays have mismatched lengths")
    else:
        e, b = curve.empirical, curve.bound
        if np.any(e < 0) or np.any(e > 1) or np.any(np.diff(e) < 0):
            failures.append("empirical exhaustion probabilities are not monotone in [0, 1]")
        if np.any(b < 0) or np.any(np.diff(b) < 0):
            failures.append("closed-form bound is negative or decreasing")
        # every trial's hit count is an integer, so each probability is a multiple of 1/trials
        if not np.allclose(e * trials, np.round(e * trials), atol=1e-9):
            failures.append("empirical probabilities are not multiples of 1/trials")
    return failures


WORKLOADS = {w.name: w for w in (CompareRefit(), Serve(), GeneralClass(), CapacityMC())}
