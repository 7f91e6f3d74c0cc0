"""Per-sample losses and the convex-analytic pieces the direction solvers need.

Two loss kinds:

* ``squared``:  l(f) = 0.5 ||f - y||^2
* ``logistic``: l(f) = logsumexp(f) - <f, y> with one-hot ``y``

Beyond value/gradient/Hessian-vector products, this module exposes the
projector onto the range of the curvature (``constraint_project``) and the
convex conjugate value.  On that range the curvature pseudo-inverse is the
identity (squared) or division by the softmax (logistic), which the dual
solver applies inline.

All functions operate on a single sample ``f`` of shape (k,), and broadcast
row-wise when given a block of shape (m, k) with matching targets.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossOracle",
    "softmax",
    "loss_value",
    "loss_grad",
    "loss_hvp",
    "constraint_project",
    "conjugate_value",
]

LOSS_KINDS = ("squared", "logistic")

# Softmax entries are floored at this value before any division by them, so
# the curvature pseudo-inverse stays finite for very confident predictions.
SOFTMAX_FLOOR = 1e-12

# Feasibility slack when deciding whether mu = y + alpha lies on the simplex.
SIMPLEX_TOL = 1e-9


def _check_kind(kind):
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")


@dataclass
class LossOracle:
    """A loss kind bound to its target(s).

    ``y`` has shape (k,) for a single sample or (m, k) for a batch; the
    functions below follow whichever shape ``f`` comes in with.
    """

    kind: str
    y: np.ndarray

    def __post_init__(self):
        _check_kind(self.kind)
        self.y = np.asarray(self.y, dtype=np.float64)


def logsumexp(f):
    """Row-wise log(sum(exp)), shifted by the max for stability."""
    f = np.asarray(f, dtype=np.float64)
    fmax = f.max(axis=-1, keepdims=True)
    return (fmax + np.log(np.sum(np.exp(f - fmax), axis=-1, keepdims=True)))[..., 0]


def softmax(f):
    """Row-wise softmax, shifted by the max for stability."""
    f = np.asarray(f, dtype=np.float64)
    e = np.exp(f - f.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def loss_value(loss, f):
    """Loss value; scalar for a (k,) input, (m,) for a block."""
    f = np.asarray(f, dtype=np.float64)
    if loss.kind == "squared":
        return 0.5 * np.sum((f - loss.y) ** 2, axis=-1)
    return logsumexp(f) - np.sum(f * loss.y, axis=-1)


def loss_grad(loss, f):
    """Gradient in f: ``f - y`` (squared) or ``softmax(f) - y`` (logistic)."""
    f = np.asarray(f, dtype=np.float64)
    if loss.kind == "squared":
        return f - loss.y
    return softmax(f) - loss.y


def loss_hvp(loss, f, v):
    """Hessian-vector product at ``f`` applied to ``v``.

    Squared loss has identity curvature.  The logistic Hessian is
    ``diag(s) - s s^T`` with ``s = softmax(f)``, applied without
    materializing it: ``s*v - <v, s> s`` per sample.
    """
    v = np.asarray(v, dtype=np.float64)
    if loss.kind == "squared":
        return v.copy()
    s = softmax(f)
    return s * v - np.sum(v * s, axis=-1, keepdims=True) * s


def constraint_project(loss, beta):
    """Orthogonal projection onto the range of the loss curvature.

    Identity for the squared loss; per-sample mean removal for logistic
    (the curvature range is the zero-sum subspace).  Idempotent and
    self-adjoint.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if loss.kind == "squared":
        return beta
    # sum / k is what mean computes, without mean's per-call overhead
    return beta - beta.sum(axis=-1, keepdims=True) / beta.shape[-1]


def conjugate_value(loss, alpha):
    """Convex conjugate l*(alpha); scalar for (k,), (m,) row-wise for blocks.

    Squared: ``0.5 ||alpha||^2 + <alpha, y>``.  Logistic: the negative
    entropy of ``mu = y + alpha`` when ``mu`` lies on the probability
    simplex (within ``SIMPLEX_TOL``), else ``+inf``; ``0 log 0 := 0``.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if loss.kind == "squared":
        return 0.5 * np.sum(alpha**2, axis=-1) + np.sum(alpha * loss.y, axis=-1)
    mu = loss.y + alpha
    feasible = (np.abs(mu.sum(axis=-1) - 1.0) <= SIMPLEX_TOL) & np.all(
        mu >= -SIMPLEX_TOL, axis=-1
    )
    mu_clip = np.maximum(mu, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mu_clip > 0.0, mu_clip * np.log(mu_clip), 0.0)
    return np.where(feasible, terms.sum(axis=-1), np.inf)
