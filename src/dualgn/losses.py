"""Per-sample losses and the convex-analytic pieces the direction solvers need.

Two loss kinds:

* ``squared``:  l(f) = 0.5 ||f - y||^2
* ``logistic``: l(f) = logsumexp(f) - <f, y> with one-hot ``y``

Beyond value/gradient/Hessian-vector products, this module exposes the
projector onto the range of the curvature (``constraint_project``).  On that
range the curvature pseudo-inverse is the identity (squared) or division by
the softmax (logistic), which the dual solver applies inline.

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
]

LOSS_KINDS = ("squared", "logistic")

# Softmax entries are floored at this value before any division by them, so
# the curvature pseudo-inverse stays finite for very confident predictions.
SOFTMAX_FLOOR = 1e-12

# Row reductions call the ufunc's reduce directly: np.sum, np.max and their
# ndarray methods reach the same reduce, with the same result, through Python
# wrappers that cost more than the reduction itself on a batch of outputs.


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


def softmax(f):
    """Row-wise softmax, shifted by the max for stability."""
    f = np.asarray(f, dtype=np.float64)
    e = np.exp(f - np.maximum.reduce(f, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def loss_eval(loss, f):
    """``(values, grad, soft)`` at ``f`` from one pass over the block.

    ``values`` is the loss (scalar for a (k,) input, (m,) for a block),
    ``grad`` its gradient in ``f`` (``f - y`` or ``softmax(f) - y``), and
    ``soft`` is ``softmax(f)`` for the logistic loss, bit for bit, and None
    for the squared one.  The logistic pieces share one max, ``exp`` and row
    sum, and the squared ones the residual ``f - y``.
    """
    f = np.asarray(f, dtype=np.float64)
    if loss.kind == "squared":
        r = f - loss.y
        return 0.5 * np.add.reduce(r**2, axis=-1), r, None
    fmax = np.maximum.reduce(f, axis=-1, keepdims=True)
    e = np.exp(f - fmax)
    esum = np.add.reduce(e, axis=-1, keepdims=True)
    values = (fmax + np.log(esum))[..., 0] - np.add.reduce(f * loss.y, axis=-1)
    soft = np.divide(e, esum, out=e)
    return values, soft - loss.y, soft


def loss_value(loss, f):
    """Loss value; scalar for a (k,) input, (m,) for a block."""
    return loss_eval(loss, f)[0]


def loss_grad(loss, f):
    """Gradient in f: ``f - y`` (squared) or ``softmax(f) - y`` (logistic)."""
    return loss_eval(loss, f)[1]


def loss_hvp(loss, f, v, soft=None):
    """Hessian-vector product at ``f`` applied to ``v``.

    Squared loss has identity curvature.  The logistic Hessian is
    ``diag(s) - s s^T`` with ``s = softmax(f)``, applied without
    materializing it: ``s*v - <v, s> s`` per sample.  ``soft``, if given, is
    ``softmax(f)``, which a caller making several products at one ``f``
    computes once.
    """
    v = np.asarray(v, dtype=np.float64)
    if loss.kind == "squared":
        return v.copy()
    s = softmax(f) if soft is None else soft
    return s * v - np.add.reduce(v * s, axis=-1, keepdims=True) * s


def constraint_project(loss, beta, out=None):
    """Orthogonal projection onto the range of the loss curvature.

    Identity for the squared loss; per-sample mean removal for logistic
    (the curvature range is the zero-sum subspace).  Idempotent and
    self-adjoint.  ``out``, if given, receives the projection and is
    returned; it may be ``beta`` itself.  The squared loss returns ``beta``
    without a copy when ``out`` is None.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if loss.kind == "squared":
        if out is not None:
            out[...] = beta
        return beta if out is None else out
    # sum / k is what mean computes, without mean's per-call overhead
    return np.subtract(beta, np.add.reduce(beta, axis=-1, keepdims=True) / beta.shape[-1], out=out)
