"""Seeded sample lists for the test modules.

The instance generators the invariant suites draw from (fitted linear
instances, finite function classes and general-class pools) live in
``coreset_unlearn.verify``, and the tests import them from there.
"""

from coreset_unlearn import LabeledSample
from coreset_unlearn.verify import unit_vectors


def random_samples(rng, n, d):
    xs = unit_vectors(rng, n, d)
    ys = rng.choice([-1, 1], size=n)
    return [LabeledSample(i, xs[i], int(ys[i])) for i in range(n)]
