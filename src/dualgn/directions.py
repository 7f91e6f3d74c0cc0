"""Prox-linear search directions for finite-sum compositions.

For a minibatch ``S`` of size ``m`` with residual map outputs ``f_i``,
Jacobian ``J`` (stacked, accessed matrix-free) and convex per-sample losses
``l_i``, the subproblem at regularization weight ``gamma`` is

    d = argmin_d  (1/m) sum_i l_i(f_i - (J d)_i)  +  (1/(2 gamma)) ||d||^2 .

Two matrix-free routes to (approximately) the same ``d`` are provided:

* ``primal_gn_direction`` runs CG in parameter space on the normal equations
  ``(J^T H J + (m/gamma) I) d = J^T g`` where ``g`` and ``H`` are the batch
  loss gradient and (generalized) Hessian at ``f``.
* ``dual_gn_direction`` runs CG on the output-space dual: with ``mu = m/gamma``
  the dual variable ``beta`` solves ``P(H^+ + mu^{-1} J J^T)P beta = c``,
  ``c = mu^{-1} P J J^T g``, subject to ``P beta = beta``; then
  ``alpha = g - beta`` and ``d = (gamma/m) J^T alpha``.  For squared loss
  ``P = I`` and ``H^+ = I``; for the softmax/cross-entropy loss ``H^+`` is the
  diagonal ``1/sigma`` and ``P`` removes per-sample row means, with a
  ``sqrt(sigma)`` Jacobi preconditioner.

Both routes run the one CG kernel, :func:`dualgn.cgsolver.cg_kernel`, whose
docstring gives the dual route's cost schedule (``tau`` JVPs and ``tau + 1``
VJPs).

``regularized_dual_direction`` extends the dual route to composite objectives
with an l1 or l2 penalty on the parameters via a prox step on the mapped-back
candidate; with no penalty it reproduces ``dual_gn_direction`` bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .cgsolver import CGReport, cg_kernel, cg_solve
from .losses import (
    SOFTMAX_FLOOR,
    constraint_project,
    loss_grad,
    loss_hvp,
    softmax,
)

__all__ = [
    "SubproblemSpec",
    "Regularizer",
    "DirectionResult",
    "soft_threshold",
    "batch_gradient",
    "primal_gn_direction",
    "dual_gn_direction",
    "regularized_dual_direction",
    "sdca_closed_form_squared",
]

PATHS = ("primal", "dual")
REG_KINDS = ("none", "l1", "l2")


def _integer(name, value, low=0):
    if value < low or int(value) != value:
        kind = "positive" if low else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value}")
    return int(value)


def _finite(name, value, positive=True):
    if not (np.isfinite(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be a finite {kind} number, got {value}")


@dataclass
class SubproblemSpec:
    """How to solve one minibatch subproblem.

    Parameters
    ----------
    gamma : float
        Regularization weight (prox stepsize), > 0.
    tau : int
        Inner CG iteration budget, >= 0.
    path : str
        "primal" or "dual".
    tol : float
        Relative residual tolerance for early CG exit.  The default 0.0
        always runs the full ``tau`` iterations, which keeps per-step cost
        fixed during training.
    """

    gamma: float = 1.0
    tau: int = 2
    path: str = "dual"
    tol: float = 0.0

    def __post_init__(self):
        _finite("gamma", self.gamma)
        self.tau = _integer("tau", self.tau)
        if self.path not in PATHS:
            raise ValueError(f"path must be one of {PATHS}, got {self.path!r}")
        _finite("tol", self.tol, positive=False)


def soft_threshold(z, t):
    """Elementwise soft-thresholding ``sign(z) * max(|z| - t, 0)``, t >= 0."""
    if t < 0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    z = np.asarray(z, dtype=np.float64)
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


@dataclass
class Regularizer:
    """Separable penalty on the parameters: none, l1 or l2 (0.5*lam*||w||^2)."""

    kind: str = "none"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in REG_KINDS:
            raise ValueError(f"kind must be one of {REG_KINDS}, got {self.kind!r}")
        _finite("lam", self.lam, positive=False)

    def prox(self, z, step):
        """prox of ``step * penalty`` at ``z``."""
        if self.kind == "l1":
            return soft_threshold(z, step * self.lam)
        if self.kind == "l2":
            return np.asarray(z, dtype=np.float64) / (1.0 + step * self.lam)
        return np.asarray(z, dtype=np.float64)


@dataclass
class DirectionResult:
    """A computed direction plus its audit trail.

    ``d`` is the update direction (subtract from the parameters), ``alpha``
    the dual variable ``g - beta`` (None on the primal path), ``report`` the
    inner-solver :class:`CGReport`, and ``descent_inner_product`` the value
    ``<d, grad>`` against the batch gradient, nonnegative for the
    unregularized routes at any iteration budget.
    """

    d: np.ndarray
    alpha: object
    report: CGReport
    descent_inner_product: float


def _check_outputs(opr, loss, f):
    f = np.asarray(f, dtype=np.float64)
    _, m, k = opr.dims
    if f.shape != (m, k):
        raise ValueError(f"outputs have shape {f.shape}, expected {(m, k)}")
    if loss.y.shape != (m, k):
        raise ValueError(
            f"loss targets have shape {loss.y.shape}, expected {(m, k)}"
        )
    return f


def batch_gradient(opr, loss, f):
    """Batch gradient ``(1/m) J^T (dl/df)`` of the mean loss at ``f``."""
    f = _check_outputs(opr, loss, f)
    m = opr.dims[1]
    return opr.vjp(loss_grad(loss, f)) / m


def primal_gn_direction(opr, loss, f, spec):
    """Direction via CG on the parameter-space normal equations.

    Each CG iteration applies ``d -> J^T H (J d) + (m/gamma) d``: one forward
    product, one batched loss Hessian product and one transposed product.
    Starting from zero, every truncation is a descent direction for the batch
    objective.

    The report's ``vector_op_scalar_count`` covers all vector arithmetic
    outside the jvp/vjp/Hessian oracles, including the ridge-shift scale and
    add inside the operator, so primal and dual counters measure the same
    class of work.
    """
    f = _check_outputs(opr, loss, f)
    p, m, _ = opr.dims
    gamma = spec.gamma

    g = loss_grad(loss, f)
    u = opr.vjp(g)
    grad = u / m

    shift = m / gamma

    def apply(d):
        return opr.vjp(loss_hvp(loss, f, opr.jvp(d))) + shift * d

    d, rep = cg_solve(apply, u, max_iter=spec.tau, tol=spec.tol)
    rep.vector_op_scalar_count += 2 * p * rep.operator_calls
    return DirectionResult(
        d=d,
        alpha=None,
        report=rep,
        descent_inner_product=float(np.vdot(d, grad)),
    )


def dual_gn_direction(opr, loss, f, spec, callback=None):
    """Direction via CG on the output-space dual system.

    ``callback``, if given, receives the feasible dual iterate ``beta`` after
    each CG update.  At ``tau = 0`` the returned direction is exactly
    ``gamma`` times the batch gradient (same floating-point values).
    """
    return _dual_direction(
        opr, loss, f, spec.gamma, spec.tau, spec.tol, callback=callback
    )


def regularized_dual_direction(opr, loss, f, spec, w, reg, callback=None):
    """Dual-route direction for the composite objective with penalty ``reg``.

    The candidate parameter point is ``w - d``.  For ``reg.kind == "none"``
    this matches :func:`dual_gn_direction` exactly.  For l2 the curvature
    shift becomes ``m/gamma + m*lam``; for both penalties the mapped-back
    direction is ``d = w - prox(w - (gamma/m) J^T alpha)`` so that a full
    inner solve makes ``w - d`` a fixed point of the composite subproblem.
    """
    w = np.asarray(w, dtype=np.float64)
    p = opr.dims[0]
    if w.shape != (p,):
        raise ValueError(f"parameters have shape {w.shape}, expected {(p,)}")
    if reg.kind == "none":
        reg = None
    return _dual_direction(
        opr, loss, f, spec.gamma, spec.tau, spec.tol, w=w, reg=reg, callback=callback
    )


def _dual_direction(opr, loss, f, gamma, tau, tol, w=None, reg=None, callback=None):
    """Shared dual-route core: the CG kernel on the scaled dual system.

    The kernel iterates on ``x`` with ``beta = P(sqrt(sigma) * x)``, where
    ``sigma`` is the floored softmax for the logistic loss and 1 for the
    squared loss.  Its product is the transposed product ``v = J^T beta``
    (curvature ``<beta, beta / sigma> + ||v||^2 / mu``); its residual product
    adds the forward product ``J v``, which is handed ``beta`` as the
    cotangent of ``v`` so that the operator can take it through per-layer
    Gram matrices.  The scaled system ``S P (H^+ + J J^T / mu) P S`` is
    singular for the logistic loss, so each residual update is re-projected
    onto its range ``S P``.  See :func:`cg_kernel` for the cost schedule.
    """
    f = _check_outputs(opr, loss, f)
    p, m, k = opr.dims
    blk = m * k

    g = loss_grad(loss, f)
    u = opr.vjp(g)
    grad = u / m

    mu = m / gamma
    if reg is not None and reg.kind == "l2":
        mu = m / gamma + m * reg.lam
    mu_inv = 1.0 / mu

    logistic = loss.kind == "logistic"
    if logistic:
        sig = np.maximum(softmax(f), SOFTMAX_FLOOR)
        sroot = np.sqrt(sig)
    else:
        sig = sroot = 1.0

    def to_beta(x):
        return constraint_project(loss, sroot * x)

    def scaled(z):
        return sroot * constraint_project(loss, z)

    wblk = hw = None  # w and H^+ w of the latest product, which advance reuses

    def product(x):
        nonlocal wblk, hw
        wblk = to_beta(x)
        hw = wblk / sig
        v = opr.vjp(wblk)
        return float(np.vdot(wblk, hw)) + mu_inv * float(np.vdot(v, v)), v

    def advance(v):
        return scaled(hw + mu_inv * opr.jvp(v, cotangent=wblk))

    # Right-hand side in one forward product: c = S P J (u/mu + shift), where
    # shift folds the prox displacement of the penalty into the same product.
    pre = mu_inv * u
    if reg is not None:
        pre = pre + (w - reg.prox(w, gamma))

    # Vector work outside the kernel is counted in passes over p-vectors and
    # output blocks, with q one pass of to_beta or scaled.
    q = (3 if logistic else 1) * blk
    if tau > 0 and np.any(pre):
        x, rep, zsum = cg_kernel(
            product,
            scaled(opr.jvp(pre)),
            tau,
            tol,
            advance=advance,
            project=lambda r: scaled(r / sroot),
            callback=None if callback is None else (lambda x: callback(to_beta(x))),
            label="dual CG",
        )
        # the right-hand side; P(s x), w / sigma and the curvature dots per
        # product; the shifted forward product, S P and the re-projection
        # S P S^-1 per residual update
        rep.vector_op_scalar_count += (
            q
            + rep.operator_calls * (p + q + 2 * blk)
            + (len(rep.residual_norms) - 1) * (2 * q + 3 * blk)
        )
    else:
        x, rep, zsum = np.zeros((m, k)), CGReport(), 0.0
    alpha = g - to_beta(x)

    zpar = u - zsum
    if reg is None:
        d = gamma * (zpar / m)
    else:
        d = w - reg.prox(w - (gamma / m) * zpar, gamma)
    # gradient, penalty and map-back; sigma, beta and alpha
    rep.vector_op_scalar_count += (5 if reg is None else 10) * p + 2 * q
    return DirectionResult(
        d=d,
        alpha=alpha,
        report=rep,
        descent_inner_product=float(np.vdot(d, grad)),
    )


def sdca_closed_form_squared(x, f, y, gamma):
    """Exact dual solution for a single-sample linear/squared subproblem.

    For one sample with features ``x`` (so ``J u = (U x)`` for the weight
    matrix ``U``), squared loss and regularization ``gamma``, the dual system
    is scalar per output and solves in closed form: with
    ``sigma = 1 / (gamma ||x||^2)``,

        alpha = sigma (f - y) / (1 + sigma),    d = gamma * vec(alpha x^T).

    When ``||x||^2 == 0`` the residual cannot be moved: ``alpha = f - y`` and
    ``d = 0``.

    Returns
    -------
    (alpha, d) : arrays of shape (k,) and (k * len(x),)
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    x = np.asarray(x, dtype=np.float64).ravel()
    f = np.asarray(f, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if f.shape != y.shape:
        raise ValueError(f"f shape {f.shape} does not match y shape {y.shape}")
    sq = float(np.vdot(x, x))
    if sq == 0.0:
        return f - y, np.zeros(f.size * x.size)
    sigma = 1.0 / (gamma * sq)
    alpha = sigma * (f - y) / (1.0 + sigma)
    d = gamma * np.outer(alpha, x).ravel()
    return alpha, d
