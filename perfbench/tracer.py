"""Opt-in span tracer installed around the library's public functions.

Wrappers are installed wherever a traced function can be looked up: the
module that defines it, every other ``coreset_unlearn`` module that imported
it by name (``harness.bbq_fit``, ``capacity.bbq_fit``,
``bbq_linear.leverage``, ...) and the package namespace, through which the
benchmark's workloads call.  ``uninstall`` puts the originals back, so an
untraced pass runs the library exactly as shipped.

Spans live in flat arrays (name code, start, end, parent span, run id) so a
pass with a million calls stays a few tens of megabytes; they are written
out once, when the run ends.  Self time is a span's duration minus the part
covered by its child spans.  Counts are taken in pre/post hooks that run
outside the function's own span, so they land in the caller's self time.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

# (layer module, function) pairs that get a span; "Class.method" wraps a method.
TRACED = {
    "datastreams": ("gen_dataset", "save_dataset", "load_dataset", "deletion_stream"),
    "core_linalg": ("leverage", "rank_one_update", "rank_one_downdate", "refresh_inverse"),
    "bbq_linear": ("bbq_fit", "deletion_update", "predict", "save_model", "load_model"),
    "capacity": ("capacity_gate", "expected_capacity_mc", "predicted_deletion_drift"),
    "baselines": (
        "ridge_fit", "exact_unlearn", "sisa_fit", "sisa_unlearn", "weight_accuracy", "sisa_accuracy_batch",
    ),
    "general_bbq": (
        "load_function_class", "FiniteFunctionClass.value_matrix", "projected_dimension",
        "erm_fit", "general_bbq_fit", "general_deletion_update",
    ),
    "harness": ("run_experiment", "emit_report"),
}

PACKAGE = "coreset_unlearn"


def span_names() -> list[str]:
    """Metric prefix of every traced function, e.g. ``general_bbq.value_matrix``."""
    return [f"{mod}.{fn.split('.')[-1]}" for mod, fns in TRACED.items() for fn in fns]


def _as_collection(ids):
    return ids if isinstance(ids, (list, tuple, set, frozenset)) else None


# Hooks: name -> (pre(tracer, args, kwargs) -> state, post(tracer, state, result, seconds)).
# Either side may be None.

def _bbq_fit_pre(t, args, kwargs):
    return kwargs.get("horizon") is not None  # harness refits and replay_on_coreset pass it


def _bbq_fit_post(t, replay, result, seconds):
    t.add("bbq_linear.bbq_fit.points", len(result.query_log))
    if replay:
        t.add("bbq_linear.bbq_fit.replays", 1)
        t.add("bbq_linear.bbq_fit.replay_s", seconds)


def _deletion_update_pre(t, args, kwargs):
    model = args[0]
    return model.coreset_deletions, len(model.coreset)


def _deletion_update_post(t, state, result, seconds):
    before, size = state
    if result.coreset_deletions > before:
        t.add("bbq_linear.deletion_update.hits", 1)
        t.add("bbq_linear.deletion_update.hit_coreset_sum", size)
    else:
        t.add("bbq_linear.deletion_update.free", 1)


def _gate_post(t, state, result, seconds):
    t.add("capacity.capacity_gate.accept" if result == "accept" else "capacity.capacity_gate.exhausted", 1)


def _save_model_post(t, path, result, seconds):
    t.add("bbq_linear.save_model.bytes", os.path.getsize(path))


def _first_arg_size(key):
    def pre(t, args, kwargs):
        t.add(key, os.path.getsize(args[0]))
    return pre


def _load_dataset_post(t, state, result, seconds):
    t.add("datastreams.load_dataset.rows", len(result.samples))


def _sisa_unlearn_pre(t, args, kwargs):
    model, ids = args[0], _as_collection(args[1])
    if ids is not None:
        t.add("baselines.sisa_unlearn.shards_retrained",
              len({model.assignment[i] for i in ids if i in model.assignment}))


def _value_matrix_pre(t, args, kwargs):
    fclass, samples = args[0], args[1]
    t.add("general_bbq.value_matrix.evaluations", len(fclass) * len(samples))


def _general_deletion_pre(t, args, kwargs):
    model, ids = args[0], _as_collection(args[1])
    if ids is not None:
        hit = bool(set(ids) & model.queried_ids)
        t.add("general_bbq.general_deletion_update.hits" if hit else "general_bbq.general_deletion_update.free", 1)


HOOKS = {
    "bbq_linear.bbq_fit": (_bbq_fit_pre, _bbq_fit_post),
    "bbq_linear.deletion_update": (_deletion_update_pre, _deletion_update_post),
    "capacity.capacity_gate": (None, _gate_post),
    "bbq_linear.save_model": (lambda t, args, kwargs: args[1], _save_model_post),
    "bbq_linear.load_model": (_first_arg_size("bbq_linear.load_model.bytes"), None),
    "datastreams.load_dataset": (_first_arg_size("datastreams.load_dataset.bytes"), _load_dataset_post),
    "baselines.sisa_unlearn": (_sisa_unlearn_pre, None),
    "general_bbq.value_matrix": (_value_matrix_pre, None),
    "general_bbq.general_deletion_update": (_general_deletion_pre, None),
}


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names = span_names()
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("H")
        self.run_id = 0
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name: str):
        code = self.names.index(name)
        pre, post = HOOKS.get(name, (None, None))
        stack, perf = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            state = pre(self, args, kwargs) if pre else None
            idx = len(self.code)
            self.code.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self.end[idx] = t1
                stack.pop()
            if post:
                post(self, state, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function wherever it is bound; returns an uninstaller."""
        originals = {}  # id(original) -> (original, wrapper)
        patched = []  # (namespace, attribute, original)
        for mod_name, fns in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name in fns:
                owner, _, attr = fn_name.rpartition(".")
                holder = getattr(module, owner) if owner else module
                original = getattr(holder, attr)
                wrapper = self.wrap(original, f"{mod_name}.{attr}")
                originals[id(original)] = (original, wrapper)
                if owner:
                    setattr(holder, attr, wrapper)
                    patched.append((holder, attr, original))
        namespaces = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    patched.append((ns, attr, value))

        def uninstall():
            for ns, attr, original in reversed(patched):
                setattr(ns, attr, original)

        return uninstall

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "code": np.frombuffer(self.code, dtype=np.uint16).copy() if self.code else np.zeros(0, np.uint16),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "run": np.array(self.run, dtype=np.uint16),
        }

    def aggregate(self) -> dict[str, float]:
        """Per-function ``calls``, ``s`` and ``self_s`` over every recorded span."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(sp["code"], minlength=n)
        total = np.bincount(sp["code"], weights=dur, minlength=n)
        self_total = np.bincount(sp["code"], weights=dur - child, minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(total[i])
            out[f"{name}.self_s"] = float(self_total[i])
        return out

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())
