"""Incrementally maintained regularized Gram matrices.

The central object is :class:`GramState`: the matrix ``A = lam * I + sum(x x^T)``
over a set of contributing feature vectors, together with an explicitly
maintained inverse, the label-weighted sum ``b = sum(y * x)``, and the ridge
weight vector ``w = A^-1 b``.  Rank-one updates and downdates keep the inverse
in sync in O(d^2) time via the Sherman-Morrison identity; a periodic refresh
by direct factorization bounds floating-point drift across long downdate
chains.

The kernels sit on the sampler's per-point loop, so they do only the
arithmetic the identity needs.  Outer products are formed by broadcasting
(``x[:, None] * x``), which multiplies the same pairs in the same order as
``np.outer`` and so gives the same bits without its wrapper; ``as_vector``
hands back an array that already is a float64 vector of the right shape, and
:func:`leverage`, called once per streamed point, tests for such an array
inline before it calls ``as_vector`` at all.
:func:`update_with_product` is the one Sherman-Morrison update step; it takes
``A^-1 x`` from its caller, so the fit on rows reuses its exact test's product.

All vectors are assumed to satisfy ``||x|| <= 1`` and states are single-writer:
callers serialize mutations, concurrent read-only leverage queries are safe
between mutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Denominators of the Sherman-Morrison downdate below this are treated as a
# caller error: with lam >= 1 a legitimately stored point always has
# leverage <= 1/(lam+1), keeping the true denominator >= lam/(lam+1).
DOWNDATE_DENOM_TOL = 1e-10

# Downdates between automatic inverse refreshes.
DEFAULT_REFRESH_PERIOD = 1024

# Slack on the unit-norm input contract.
NORM_SLACK = 1e-9

# Native float64; any other dtype object, equal or not, takes the np.asarray path.
FLOAT64 = np.dtype(np.float64)


class SingularDowndateError(RuntimeError):
    """Raised when a downdate denominator is non-positive or below tolerance.

    This signals removal of a vector that was never added (or was already
    removed), not a numerical failure of a legal operation.
    """


class CorruptedStateError(RuntimeError):
    """Raised when the maintained Gram matrix is no longer positive definite."""


@dataclass
class GramState:
    """Regularized Gram matrix with maintained inverse and ridge weights.

    Attributes:
        dim: dimension d.
        lam: regularization strength, > 0.
        gram: d x d symmetric matrix ``lam*I + sum(x x^T)``.
        gram_inv: maintained inverse of ``gram``.
        b_vec: accumulated ``sum(y * x)``.
        weight: ``gram_inv @ b_vec``, kept in sync by every mutation.
        downdates_since_refresh: downdates since the last refresh; one every
            ``DEFAULT_REFRESH_PERIOD`` downdates is forced.  The one numerical-health
            count that depends on deletion history; not serialized.
    """

    dim: int
    lam: float
    gram: np.ndarray
    gram_inv: np.ndarray
    b_vec: np.ndarray
    weight: np.ndarray
    downdates_since_refresh: int = 0

    def copy(self) -> "GramState":
        return GramState(
            dim=self.dim,
            lam=self.lam,
            gram=self.gram.copy(),
            gram_inv=self.gram_inv.copy(),
            b_vec=self.b_vec.copy(),
            weight=self.weight.copy(),
            downdates_since_refresh=self.downdates_since_refresh,
        )


def as_vector(x, dim: int) -> np.ndarray:
    """``x`` as a float64 vector of shape ``(dim,)``; ``ValueError`` on any other shape.

    A plain ndarray that already is one comes back as the same object, as
    ``np.asarray`` would return it.
    """
    if type(x) is np.ndarray and x.dtype is FLOAT64 and x.shape == (dim,):
        return x
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (dim,):
        raise ValueError(f"expected vector of shape ({dim},), got {v.shape}")
    return v


def gram_init(dim: int, lam: float) -> GramState:
    """Fresh state: ``gram = lam*I``, zero b and weight."""
    if dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim}")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    return GramState(
        dim=int(dim),
        lam=float(lam),
        gram=np.eye(dim) * float(lam),
        gram_inv=np.eye(dim) / float(lam),
        b_vec=np.zeros(dim),
        weight=np.zeros(dim),
    )


def gram_from_rows(X: np.ndarray, y: np.ndarray, lam: float) -> GramState:
    """Gram state of a fresh ridge fit on the rows of ``X``, formed in one step.

    ``lam*I + X^T X`` and ``X^T y`` are one product each, the inverse is one
    dense inversion (``lam > 0`` keeps the matrix positive definite) and the
    weights are ``inv @ b``.  The same rows, in the same order and memory
    layout, give the same bits, which is what lets a model file carry only
    its records.
    """
    state = gram_init(X.shape[1], lam)
    state.gram += X.T @ X
    state.b_vec += X.T @ y.astype(np.float64)
    state.gram_inv = np.linalg.inv(state.gram)
    state.weight = state.gram_inv @ state.b_vec
    return state


def update_with_product(state: GramState, x: np.ndarray, y: float, v: np.ndarray, lev) -> None:
    """:func:`rank_one_update`'s step given ``v = A^-1 x`` and ``lev = v.x``; the weight is the caller's.

    Nothing is checked: ``x`` must be a valid float64 vector and ``v`` and
    ``lev`` must come from the current inverse.  Not part of the package API.
    """
    state.gram += x[:, None] * x
    state.gram_inv -= (v[:, None] * v) / (1.0 + lev)
    state.b_vec += y * x


def rank_one_update(state: GramState, x, y: float) -> GramState:
    """Add the contribution of a labeled point, in place.

    ``gram += x x^T``, ``b += y x``; the inverse is updated with the
    Sherman-Morrison identity and the weight vector recomputed.
    """
    x = as_vector(x, state.dim)
    nrm = math.sqrt(x.dot(x))  # bit-identical to np.linalg.norm of a real vector
    if nrm > 1.0 + NORM_SLACK:
        raise ValueError(f"||x|| = {nrm} exceeds the unit-norm contract")
    v = state.gram_inv.dot(x)
    update_with_product(state, x, y, v, v.dot(x))
    state.weight = state.gram_inv.dot(state.b_vec)
    return state


def rank_one_downdate(state: GramState, x, y: float) -> GramState:
    """Remove a previously added labeled point, in place.

    The caller guarantees that ``(x, y)`` contributed through
    :func:`rank_one_update`; removing anything else makes the denominator
    ``1 - x^T A^-1 x`` collapse and raises :class:`SingularDowndateError`.
    """
    x = as_vector(x, state.dim)
    v = state.gram_inv.dot(x)
    denom = 1.0 - v.dot(x)
    if denom < DOWNDATE_DENOM_TOL:
        raise SingularDowndateError(
            f"downdate denominator {denom:.3e} below tolerance; "
            "the point is not part of the maintained state"
        )
    state.gram -= x[:, None] * x
    state.gram_inv += (v[:, None] * v) / denom
    state.b_vec -= y * x
    state.weight = state.gram_inv.dot(state.b_vec)
    state.downdates_since_refresh += 1
    if state.downdates_since_refresh >= DEFAULT_REFRESH_PERIOD:
        refresh_inverse(state)
    return state


def leverage(state: GramState, x) -> float:
    """Quadratic form ``x^T A^-1 x``; lies in ``[0, ||x||^2 / lam]``."""
    if not (type(x) is np.ndarray and x.dtype is FLOAT64 and x.shape == (state.dim,)):
        x = as_vector(x, state.dim)  # the fast-path test is inlined: this runs once per streamed point
    return float(state.gram_inv.dot(x).dot(x))


def refresh_inverse(state: GramState) -> GramState:
    """Recompute the inverse from ``gram`` by direct factorization, in place.

    Uses a Cholesky factorization both as the positive-definiteness check and
    as the solver; resets the downdate counter.
    """
    try:
        chol = np.linalg.cholesky(state.gram)
    except np.linalg.LinAlgError as exc:
        raise CorruptedStateError("maintained Gram matrix is not positive definite") from exc
    ident = np.eye(state.dim)
    half = np.linalg.solve(chol, ident)
    inv = half.T @ half
    state.gram_inv = (inv + inv.T) / 2.0
    state.weight = state.gram_inv @ state.b_vec
    state.downdates_since_refresh = 0
    return state


def log_det_ratio(state: GramState) -> float:
    """``log det(gram) - d * log(lam)``, clamped at zero.

    Grows by ``log(1 + leverage(x))`` with every rank-one update, which makes
    it the natural budget for how many high-leverage directions have been
    absorbed.
    """
    sign, logdet = np.linalg.slogdet(state.gram)
    if sign <= 0:
        raise CorruptedStateError("maintained Gram matrix has non-positive determinant")
    return max(float(logdet) - state.dim * np.log(state.lam), 0.0)
