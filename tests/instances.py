"""Seeded sample lists and state walkers for the test modules.

The instance generators the invariant suites draw from (fitted linear
instances, finite function classes and general-class pools) live in
``coreset_unlearn.verify``, and the tests import them from there.
"""

import numpy as np

from coreset_unlearn import LabeledSample
from coreset_unlearn.verify import unit_vectors


def random_samples(rng, n, d):
    xs = unit_vectors(rng, n, d)
    ys = rng.choice([-1, 1], size=n)
    return [LabeledSample(i, xs[i], int(ys[i])) for i in range(n)]


def ints_reachable(obj):
    """Every integer an object holds: sample ids, integer arrays, and ints in
    any container, ``__slots__`` entry or ``__dict__`` value, dataclass fields
    included.  A ``range`` has neither and holds no ids.
    """
    if hasattr(obj, "sample_id"):
        return {obj.sample_id}
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return {int(obj)}
    if isinstance(obj, np.ndarray):
        return set(obj.ravel().tolist()) if obj.dtype.kind in "iu" else set()
    if isinstance(obj, dict):
        return ints_reachable(list(obj.items()))
    if isinstance(obj, (list, tuple, set, frozenset)):
        return set().union(*map(ints_reachable, obj))
    slots = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
    held = [getattr(obj, name) for name in slots if hasattr(obj, name)]
    held += getattr(obj, "__dict__", {}).values()
    return set().union(*map(ints_reachable, held))
