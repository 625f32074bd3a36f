"""Seeded instance generators shared by the test modules."""

import numpy as np

from coreset_unlearn import DatasetSpec, FiniteFunctionClass, LabeledSample, bbq_fit, gen_dataset
from coreset_unlearn.general_bbq import _Table, _Threshold


def unit_vectors(rng, n, d, max_norm=1.0):
    x = rng.standard_normal((n, d))
    x /= np.maximum(np.linalg.norm(x, axis=1, keepdims=True) / max_norm, 1.0)
    return x


def random_samples(rng, n, d):
    xs = unit_vectors(rng, n, d)
    ys = rng.choice([-1, 1], size=n)
    return [LabeledSample(i, xs[i], int(ys[i])) for i in range(n)]


def random_linear_instance(rng, t_max=2000, d_max=20, kappas=(0.3, 0.5, 0.7)):
    """A fitted sampler on synthetic realizable data with a satisfiable query condition."""
    T = int(rng.integers(200, t_max + 1))
    d = int(rng.integers(2, d_max + 1))
    kappa = float(rng.choice(kappas))
    cap_k = float(rng.choice([1, 2, 4, 8]))
    while cap_k >= T**kappa:
        cap_k /= 2
    cap_k = max(cap_k, 1.0)
    ds = gen_dataset(
        DatasetSpec(kind="realizable-linear", T=T, d=d, seed=int(rng.integers(0, 2**31)))
    )
    model = bbq_fit(ds.samples, cap_k=cap_k, kappa=kappa)
    return ds, model


def random_deletion_request(rng, ds, model, max_hits=None):
    """Mixed deletion set: up to the capacity budget inside the core set, plus outsiders."""
    core_ids = sorted(model.coreset_ids)
    if max_hits is None:
        max_hits = int(model.params.cap_k)
    hits = int(rng.integers(0, min(len(core_ids), max_hits) + 1)) if core_ids else 0
    u = set(rng.choice(core_ids, size=hits, replace=False).tolist()) if hits else set()
    outside = [s.sample_id for s in ds.samples if s.sample_id not in model.coreset_ids]
    if outside:
        u |= set(rng.choice(outside, size=min(10, len(outside)), replace=False).tolist())
    return u


def random_function_class(rng, n_funcs, d):
    """Mixture of axis-threshold rules and constants with values in [0, 1].

    Both are declarative rules (a constant is a table with no entries), so
    ``value_matrix`` takes its column path.
    """
    funcs = []
    for _ in range(n_funcs):
        if rng.random() < 0.8:
            j = int(rng.integers(d))
            cut = float(rng.uniform(-0.5, 0.5))
            below, above = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            funcs.append(_Threshold(j, cut, below, above))
        else:
            funcs.append(_Table({}, float(rng.uniform(0, 1))))
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
