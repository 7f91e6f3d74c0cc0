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

Both routes run the one CG kernel, :func:`dualgn.cgsolver.cg_kernel`, on its
one product protocol: a product returns its curvature and an update, which
hands ``Q p`` to the kernel's residual update once the step is known.  Both
routes' updates skip the last iteration, so ``tau`` iterations cost ``tau``
JVPs and ``tau + 1`` VJPs on either, and both take their JVPs of transposed
products through per-layer Gram matrices.  While its output-space shadow
is live, a primal CG product makes no parameter-length pass beside its two
model products, and the primal route streams every transposed product into
the CG state a chunk at a time, so it holds no parameter vector of one.  The
dual route carries ``J^T beta`` and the
gradient's ``J^T g`` as compact per-layer stand-ins: the ``m x out``
cotangent of each layer whose fan-in exceeds the batch size ``m``, the
layer's parameter block otherwise.  Without a penalty it pushes its
right-hand side from the gradient's stand-in, maps back and takes its
descent inner product in stand-in space, and after a CG update returns the
direction as the stand-in of ``J^T alpha`` scaled by ``gamma/m``.  When every
layer's fan-in exceeds ``m`` it makes no parameter-length array: the
direction is expanded when read, or streamed a bounded block at a time into
the update (:meth:`DirectionResult.pieces`,
:func:`dualgn.trainer.outer_update`).

``regularized_dual_direction`` extends the dual route to composite objectives
with an l1 or l2 penalty on the parameters via a prox step on the mapped-back
candidate; with no penalty it reproduces ``dual_gn_direction`` bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .cgsolver import (
    CGReport, _axpy, _finite, _integer, _one_block, cg_kernel, cg_solve, cg_workspace,
)
from .exceptions import NumericError
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
PROX_PASSES = {"l1": 4, "l2": 1}  # p-length passes of Regularizer.prox
EPS = np.finfo(np.float64).eps


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
    if not t >= 0:  # nan fails; inf, where gamma * lam overflows, gives 0
        raise ValueError(f"threshold must be nonnegative, got {t}")
    z = np.asarray(z, dtype=np.float64)
    out = np.abs(z, out=np.empty_like(z))  # the one array it makes
    out -= t
    np.maximum(out, 0.0, out=out)
    return np.copysign(out, z, out=out)


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


class DirectionResult:
    """A computed direction plus its audit trail.

    ``d`` is the update direction (subtract from the parameters), ``alpha``
    the dual variable ``g - beta`` (None on the primal path), ``report`` the
    inner-solver :class:`CGReport`, and ``descent_inner_product`` the value
    ``<d, grad>`` against the batch gradient, nonnegative for the
    unregularized routes at any iteration budget.

    An unpenalized dual direction whose solve made an update is kept as its
    stand-in on its operator, ``J^T alpha`` already scaled by ``gamma / m``,
    until something reads ``d``; :meth:`pieces` streams it without building
    ``d``.
    """

    def __init__(self, d, alpha, report, descent_inner_product, standin=None):
        self._d, self._standin = d, standin  # standin: (opr, s)
        self.alpha, self.report = alpha, report
        self.descent_inner_product = descent_inner_product

    @property
    def d(self):
        """The direction as one parameter vector, built on the first read."""
        if self._d is None:
            opr, s = self._standin
            self.d = opr.compact_expand(s)  # may be s itself
        return self._d

    @d.setter
    def d(self, value):
        self._d, self._standin = value, None

    @property
    def streams(self):
        """Whether :meth:`pieces` expands ``d`` from a shorter stand-in: a
        layer on the Gram route keeps its ``m x out`` cotangent, so an update
        that streams the pieces holds no direction vector.  Otherwise ``d``
        is built, or building it allocates nothing: it is the stand-in
        itself."""
        return self._standin is not None and self._standin[1].size < self._standin[0].dims[0]

    def pieces(self):
        """Yield ``(lo, hi, block)``, the direction on ``[lo, hi)``, in parameter order.

        If the direction :attr:`streams`, each block is expanded from the
        stand-in when it is asked for (see
        :meth:`~dualgn.linop.JacobianOperator.compact_pieces`), in a scratch
        that the next block reuses; otherwise the one block is ``d``.  The
        blocks are the caller's to overwrite.
        """
        if not self.streams:
            yield 0, self.d.size, self.d
            return
        opr, s = self._standin
        yield from opr.compact_pieces(s)


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


def _at_outputs(loss, f, at):
    """The loss gradient at ``f`` and, for the logistic loss, the softmax.

    ``at`` is the caller's ``(values, grad, soft)`` from
    :func:`dualgn.losses.loss_eval` at ``f``, which the trainer has from the
    step's batch loss; None evaluates both here.
    """
    if at is not None:
        return at[1], at[2]
    return loss_grad(loss, f), softmax(f) if loss.kind == "logistic" else None


def batch_gradient(opr, loss, f, at=None):
    """Batch gradient ``(1/m) J^T (dl/df)`` of the mean loss at ``f``.

    ``at`` is :func:`dualgn.losses.loss_eval` at ``f``, if the caller has it.
    """
    f = _check_outputs(opr, loss, f)
    m = opr.dims[1]
    return opr.vjp(loss_grad(loss, f) if at is None else at[1]) / m


def primal_gn_direction(opr, loss, f, spec, work=None, at=None):
    """Direction via CG on the parameter-space normal equations.

    Each CG iteration applies ``d -> J^T H (J d) + (m/gamma) d``: one forward
    product, one batched loss Hessian product and one transposed product.
    Starting from zero, every truncation is a descent direction for the batch
    objective, and ``<d, grad>`` is the kernel's ``<d, J^T g>`` over ``m``.

    Every CG vector lies in the range of ``J^T``: ``c = J^T g``, and the
    operator maps ``J^T D`` to ``J^T (H J d + (m/gamma) D)``.  So the kernel
    carries the output-space shadow ``D`` of each direction ``d = J^T D``
    (see :func:`dualgn.cgsolver.cg_kernel`), and the forward product ``J d``
    is handed ``D`` as its cotangent, which takes it through per-layer Gram
    matrices where the batch is smaller than a layer's fan-in.  While the
    shadow is live a product makes no parameter-length pass of its own: the
    shadow of ``Q d`` is ``Y = H J d + (m/gamma) D``, ``Q d`` is the one
    transposed product ``J^T Y``, ridge shift included, and the curvature
    ``<d, Q d>`` is ``<J d, Y>``.  Once the residual is at ``eps^(3/4)`` of
    its start the kernel drops the shadow and the product is the plain one,
    ``J^T H J d + (m/gamma) d`` with curvature ``<J d, H J d> + (m/gamma)
    <d, d>``.

    No transposed product is made whole.  Each is streamed (see
    :meth:`dualgn.linop.JacobianOperator.vjp`): ``J^T g`` into the kernel's
    residual and direction, and, by each product's update, ``Q d`` into the
    kernel's ``subtract`` a block at a time once the kernel knows its step,
    with a plain product's ridge shift added to each block through the
    kernel's scratch.  The update skips the final iteration, and the product
    it saves streams ``J^T g`` again for the exact ``<d, J^T g>``, so ``tau`` iterations cost ``tau`` forward and
    ``tau + 1`` transposed products (one more when ``spec.tol`` stops the
    solve early), and ``d`` has the bits of the solve with whole products.

    The report's ``vector_op_scalar_count`` covers all vector arithmetic
    outside the jvp/vjp/Hessian oracles, including the operator's ridge
    shift and curvature dots and the shadow's block arithmetic, so primal
    and dual counters measure the same class of work.

    ``work`` is the CG workspace ``(r, p, tmp)`` from
    :func:`dualgn.cgsolver.cg_workspace` of shape ``(p,)``: the kernel's
    residual and direction, and a scratch (a vector up to ``BLOCK``
    parameters, one block past that); None allocates one for this call.  Its
    layout is checked before any product is made.  Nothing in it outlives
    the call, and the operator keeps neither the residual nor the
    direction, so a caller may pass one workspace to every step of a run (as
    :func:`dualgn.trainer.train` does).  ``d`` never lies in it.

    ``at`` is :func:`dualgn.losses.loss_eval` at ``f``, if the caller has it;
    every product reuses its softmax.  A ``spec`` whose ``path`` is not
    "primal" raises a ValueError.
    """
    if spec.path != "primal":
        raise ValueError(f"the primal route needs path='primal', got {spec.path!r}")
    f = _check_outputs(opr, loss, f)
    p, m, _ = opr.dims
    work = cg_workspace((p,), work)

    g, soft = _at_outputs(loss, f, at)
    shift = m / spec.gamma
    plain = shifted = 0  # plain products, and those whose update ran

    def product(d, D):
        nonlocal plain
        jd = opr.jvp(d, cotangent=D)
        hjd = loss_hvp(loss, f, jd, soft)
        if D is not None:
            ys = hjd + shift * D
            return float(np.vdot(jd, ys)), streamed(ys), ys
        plain += 1
        return float(np.vdot(jd, hjd)) + shift * float(np.vdot(d, d)), streamed(hjd, d), None

    def streamed(V, d=None):
        """The update that streams ``J^T V`` into the kernel's ``subtract``,
        with a plain product's ``(m/gamma) d`` added to each block, and skips
        the last iteration's."""

        def update(a, subtract, last):
            nonlocal shifted
            if last:  # the VJP it saves streams J^T g again for <d, J^T g>
                return False

            def add_shift(lo, hi, blk):
                _axpy(blk, shift, d[lo:hi], work[2])  # the kernel's free scratch
                subtract(lo, hi, blk)

            shifted += d is not None
            opr.vjp(V, subtract if d is None else add_shift)
            return True

        return update

    rhs = lambda consume: opr.vjp(g, consume)
    d, rep = cg_solve(product, rhs, max_iter=spec.tau, tol=spec.tol, shadow=g, work=work)
    # shadowed: the shift-add and <J d, Y>; plain: <d, d> and <J d, H J d>,
    # and the shift-add where its update ran
    shadowed = rep.operator_calls - plain
    rep.vector_op_scalar_count += 3 * g.size * shadowed + (p + g.size) * plain + 2 * p * shifted
    return DirectionResult(
        d=d,
        alpha=None,
        report=rep,
        descent_inner_product=rep.inner_product_with_rhs / m,
    )


def dual_gn_direction(opr, loss, f, spec, callback=None, at=None):
    """Direction via CG on the output-space dual system.

    ``callback``, if given, receives the feasible dual iterate ``beta`` after
    each CG update.  At ``tau = 0`` the returned direction is exactly
    ``gamma`` times the batch gradient (same floating-point values).  Raises
    :class:`NumericError` on a non-finite solve, and when the solve's
    ``alpha = g - beta`` is at or below the round-off of ``g``.  ``at`` is
    :func:`dualgn.losses.loss_eval` at ``f``, if the caller has it.
    """
    return _dual_direction(opr, loss, f, spec, callback=callback, at=at)


def regularized_dual_direction(opr, loss, f, spec, w, reg, callback=None, at=None):
    """Dual-route direction for the composite objective with penalty ``reg``.

    The candidate parameter point is ``w - d``.  For ``reg.kind == "none"``
    this matches :func:`dual_gn_direction` exactly.  For l2 the curvature
    shift becomes ``m/gamma + m*lam``; for both penalties the mapped-back
    direction is ``d = w - prox(w - (gamma/m) J^T alpha)`` so that a full
    inner solve makes ``w - d`` a fixed point of the composite subproblem.
    ``at`` is :func:`dualgn.losses.loss_eval` at ``f``, if the caller has it.
    """
    w = np.asarray(w, dtype=np.float64)
    p = opr.dims[0]
    if w.shape != (p,):
        raise ValueError(f"parameters have shape {w.shape}, expected {(p,)}")
    if reg.kind == "none":
        reg = None
    return _dual_direction(opr, loss, f, spec, w=w, reg=reg, callback=callback, at=at)


def _dual_direction(opr, loss, f, spec, w=None, reg=None, callback=None, at=None):
    """Shared dual-route core: the CG kernel on the scaled dual system.

    The kernel iterates on ``x`` with ``beta = P(sqrt(sigma) * x)``, where
    ``sigma`` is the floored softmax for the logistic loss and 1 for the
    squared loss.  Its product is the operator's compact transposed product
    (:meth:`~dualgn.linop.JacobianOperator.compact_vjp`): a stand-in ``s``
    for ``J^T beta``, of at most ``p`` scalars, and ``||J^T beta||^2`` from
    the same backward pass, giving the curvature ``<beta, beta / sigma> +
    ||J^T beta||^2 / mu``.  Its update, made once per solve, pushes the
    forward product ``J J^T beta`` from ``s`` and the per-layer Gram products
    the backward pass left into the residual, except on the final iteration,
    and adds ``a_t s`` into the sum of stand-ins.  The scaled system ``S P (H^+ + J J^T / mu) P S`` is
    singular for the logistic loss, so residual updates near round-off are
    re-projected onto its range ``S P`` (see :func:`cg_kernel`), and only
    those that run are counted.  See :func:`cg_kernel` for the cost schedule.

    The gradient's transposed product is taken in the same compact form.
    Without a penalty every parameter-space vector of the step lies in the
    range of ``J^T``, so the right-hand side ``J J^T g / mu`` is pushed from
    the gradient's stand-in, the stand-in of ``J^T alpha`` is formed as the
    gradient's minus the updates' sum of stand-ins.  After a CG update that
    stand-in takes the scale ``gamma / m`` in place, so ``d`` is its
    expansion with no parameter-length scaling pass, and the descent inner
    product ``(1 / m) <d, J^T g>`` is taken from the scaled stand-in and the
    gradient's; the result keeps ``d`` as the scaled stand-in, which it
    expands when ``d`` is read or streams in pieces (see
    :class:`DirectionResult`).  A solve that made no update (``tau = 0``, a
    zero right-hand side, or breakdown at the first product) returns ``d =
    gamma * batch_gradient``, formed in :func:`batch_gradient`'s order, so
    it is that bit for bit.  A penalty's prox step leaves the range of
    ``J^T``, so the penalized route expands the gradient's stand-in into
    ``J^T g``, pushes the right-hand side from it and takes the descent inner
    product against ``J^T g / m``, formed in its buffer.  Both map back from
    the stand-in of ``J^T alpha``; the penalty then takes its prox step from
    the expanded, scaled direction.

    ``alpha = g - beta`` is formed by cancellation: once the solve has run,
    an ``alpha`` at or below the round-off of ``g``, ``||alpha|| <= eps
    ||g||``, carries no digits of the direction and raises
    :class:`NumericError`.  A ``spec`` whose ``path`` is not "dual" raises a
    ValueError.
    """
    if spec.path != "dual":
        raise ValueError(f"the dual route needs path='dual', got {spec.path!r}")
    f = _check_outputs(opr, loss, f)
    p, m, k = opr.dims
    blk = m * k

    g, soft = _at_outputs(loss, f, at)
    sg, _, gterms = opr.compact_vjp(g)
    u = None if reg is None else opr.compact_expand(sg)

    gamma, tau = spec.gamma, spec.tau
    mu = m / gamma
    if reg is not None and reg.kind == "l2":
        mu = m / gamma + m * reg.lam
    mu_inv = 1.0 / mu

    # The squared loss has sigma = 1 and P = I, so its maps are identities.
    logistic = loss.kind == "logistic"
    if logistic:
        sig = np.maximum(soft, SOFTMAX_FLOOR)
        sroot = np.sqrt(sig)

    def to_beta(x):
        """``P(sqrt(sigma) x)``, a fresh array."""
        if not logistic:
            return x.copy()
        beta = np.multiply(sroot, x)
        return constraint_project(loss, beta, out=beta)

    def scaled(z):
        """``S P z``, in place."""
        if logistic:
            constraint_project(loss, z, out=z)
            z *= sroot
        return z

    # H^+ beta, the stand-in and the forward terms of the latest product, and
    # the sum of a_t times the stand-ins
    hw = s = terms = zsum = None
    projected = 0  # residual updates the kernel re-projected

    def product(x, _):
        nonlocal hw, s, terms
        beta = to_beta(x)
        hw = beta / sig if logistic else beta
        s, sq, terms = opr.compact_vjp(beta)
        return float(np.vdot(beta, hw)) + mu_inv * sq, update, None

    def update(a, subtract, last):
        """Push ``J J^T beta`` from the stand-in into ``subtract`` unless
        ``last``, and add ``a s`` to the sum."""
        nonlocal s, zsum
        if not last:
            y = mu_inv * opr.compact_jvp(s, terms)
            y += hw
            subtract(0, blk, scaled(y).reshape(-1))
        s *= a
        zsum = s if zsum is None else np.add(zsum, s, out=zsum)
        s = None  # freed before the next product is made
        return not last

    def reproject(r):
        """``S P S^-1 r``, in the kernel's own residual ``r``."""
        nonlocal projected
        projected += 1
        return scaled(np.divide(r, sroot, out=r))

    # Right-hand side c = S P J (J^T g / mu + shift) in one forward product,
    # where shift is the prox displacement of the penalty.  Without one it is
    # pushed from the gradient's stand-in; with one, from the p-vector.
    # Vector work outside the kernel is counted in passes over p-vectors,
    # stand-ins and output blocks, with q one pass of to_beta (a copy on the
    # squared route) and h one pass that only the logistic route makes:
    # beta / sigma, the re-projection's division, and S P takes three.
    q = (3 if logistic else 1) * blk
    h = blk if logistic else 0
    ops = 0
    rhs = None
    if tau > 0 and reg is None:
        ops += sg.size
        if sg.any():
            rhs = mu_inv * opr.compact_jvp(sg, gterms)
            ops += blk
    elif tau > 0:
        pre = mu_inv * u
        shift = reg.prox(w, gamma)
        pre += np.subtract(w, shift, out=shift)
        del shift
        # mu^-1 u, the prox, w - prox, the add and the check
        ops += (4 + PROX_PASSES[reg.kind]) * p
        if np.any(pre):
            rhs = opr.jvp(pre).copy()  # scaled in place below
            ops += blk
        del pre  # freed before the kernel's products are made
    if rhs is not None:
        x, rep = cg_kernel(
            product,
            _one_block(scaled(rhs)),
            cg_workspace((m, k)),
            tau,
            spec.tol,
            project=reproject if logistic else None,
            callback=None if callback is None else (lambda x: callback(to_beta(x))),
            label="dual CG",
        )
        # S P of the right-hand side; P(s x), beta / sigma and the curvature
        # dots per product; a s into the sum per update; the shifted forward
        # product and S P per residual update; S P S^-1 per re-projection
        ops += (
            3 * h
            + rep.operator_calls * (sg.size + q + blk + h)
            + rep.iterations * sg.size
            + (len(rep.residual_norms) - 1) * (2 * blk + 3 * h)
            + 4 * blk * projected
        )
    else:
        x, rep = np.zeros((m, k)), CGReport()
    beta = to_beta(x)
    alpha = np.subtract(g, beta, out=beta)
    aa, gg = float(np.vdot(alpha, alpha)), float(np.vdot(g, g))
    if rep.iterations and aa <= EPS * EPS * gg:
        raise NumericError(
            f"dual variable alpha = g - beta at the round-off of g (||alpha|| = "
            f"{np.sqrt(aa):.3e}, ||g|| = {np.sqrt(gg):.3e}) in dual CG"
        )

    # The map-back: the stand-in of J^T alpha is the gradient's less the
    # kernel's sum.  After an update it takes the scale gamma / m in place,
    # and d is its expansion, which an unpenalized result makes only when
    # read.  Without one, d is gamma times the batch gradient, formed in
    # batch_gradient's order.  A penalty then takes its prox step from w - d.
    sa = sg.copy() if zsum is None else np.subtract(sg, zsum, out=zsum)
    # alpha's stand-in; sigma, beta and alpha
    ops += sg.size + 2 * q
    if rep.iterations:
        sa *= gamma / m
        res, scale = DirectionResult(None, alpha, rep, None, standin=(opr, sa)), 1.0
        ops += sa.size
    else:
        d = opr.compact_expand(sa)  # may be sa itself
        d /= m
        d *= gamma
        res = DirectionResult(d, alpha, rep, None)
        # alpha's stand-in is the gradient's, whose dot carries the scale
        sa, scale = sg, gamma / m
        ops += 2 * p
    if reg is None:
        res.descent_inner_product = opr.compact_dot(sa, sg, gterms) * scale / m
        rep.vector_op_scalar_count += ops + sg.size
        return res
    d = res.d
    z = reg.prox(np.subtract(w, d, out=d), gamma)
    res.d = np.subtract(w, z, out=z)
    u /= m
    res.descent_inner_product = float(np.vdot(res.d, u))
    # w - d, the prox, w - z, J^T g / m and the dot
    rep.vector_op_scalar_count += ops + (4 + PROX_PASSES[reg.kind]) * p
    return res


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
    _finite("gamma", gamma)
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
