"""Conjugate gradient on matrix-free operators.

:func:`cg_kernel` is the one CG iteration in the package: :func:`cg_solve`,
:func:`projected_cg_solve` and the output-space dual solve in
:mod:`dualgn.directions` run on it.  Reports carry residual norms per
iteration, the inner product of the solution with the right-hand side
(nonnegative for CG started at zero on a PSD system, which is what makes
truncated solutions usable as descent directions), a count of scalar
operations spent on vector arithmetic, and the number of operator
applications.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NumericError

__all__ = ["CGReport", "cg_solve", "projected_cg_solve"]

# A curvature inner product at or below this is treated as breakdown: the
# solver stops and returns the last iterate (every prefix is still usable).
BREAKDOWN_EPS = 1e-300


@dataclass
class CGReport:
    """What a CG run did.

    Attributes
    ----------
    iterations : int
        Completed iterations.
    residual_norms : list of float
        ``residual_norms[0]`` is the initial residual norm ``||c||``; one
        entry is appended per residual update (see :func:`cg_kernel`).
    inner_product_with_rhs : float
        ``<x, c>`` at exit.  On a PSD system this is nonnegative up to
        round-off for every iteration count.
    vector_op_scalar_count : int
        Scalar operations spent on vector arithmetic (model products and
        caller-supplied operators excluded).
    operator_calls : int
        Number of times the operator was applied.
    """

    iterations: int = 0
    residual_norms: list = field(default_factory=list)
    inner_product_with_rhs: float = 0.0
    vector_op_scalar_count: int = 0
    operator_calls: int = 0


def cg_kernel(
    product, c, max_iter, tol, advance=None, project=None, callback=None, label="CG"
):
    """The CG iteration every solver in the package runs.

    Standard recurrences from ``x^0 = 0`` with ``r^0 = p^0 = c``:

        a_t = <r_{t-1}, r_{t-1}> / <p_{t-1}, Q p_{t-1}>
        x_t = x_{t-1} + a_t p_{t-1}
        r_t = r_{t-1} - a_t Q p_{t-1}
        b_t = <r_t, r_t> / <r_{t-1}, r_{t-1}>
        p_t = r_t + b_t p_{t-1}

    ``product(p)`` returns ``(<p, Q p>, y)`` for one product ``y`` of ``p``,
    and ``y`` is ``Q p`` unless ``advance`` is given.  Then ``advance(y)`` is
    ``Q p`` for the latest ``p``, skipped on iteration ``max_iter`` (its
    residual would feed no iteration), and the kernel returns ``ysum =
    sum_t a_t y_t`` (else ``0.0``).  The dual route uses that split so that
    ``tau`` iterations cost exactly ``tau`` Jacobian-vector products and
    ``tau + 1`` transposed products, the same counts as the primal route:
    curvature inner products come from the transposed product alone
    (``<p, J J^T p> = ||J^T p||^2``), the forward product that advances the
    residual is skipped on the final iteration, and ``J^T beta`` is
    accumulated from the per-iteration transposed products instead of being
    recomputed at the end.  Each forward product in ``advance`` is of a
    transposed product ``J^T beta``, so it is taken from ``beta`` through
    per-layer Gram matrices on layers with more inputs than batch samples
    (see :mod:`dualgn.models`), which makes it cheaper than the primal
    route's.  In particular ``tau = 0`` performs no CG work and returns
    exactly ``gamma`` times the batch gradient.

    ``project(r)`` maps each updated residual back onto the range of a
    singular ``Q``: past convergence, null-space round-off in the recursive
    residual otherwise grows until ``a_t`` blows up (Kaasschieter 1988; Gould,
    Hribar and Nocedal 2001 re-project the same way in projected CG).

    Stops after ``max_iter`` iterations (``None``: the problem size), when
    ``||r|| <= tol * max(1, ||c||)``, or on curvature breakdown (``<p, Qp> <=
    BREAKDOWN_EPS``), returning the current iterate.  A non-finite initial
    residual, curvature or residual raises :class:`NumericError` naming
    ``label``.  ``callback(x)`` is invoked after each iterate update.  The
    report counts the kernel's own vector arithmetic; callers add their
    operator's.

    Returns ``(x, CGReport, ysum)``.
    """
    n = c.size
    if max_iter is None:
        max_iter = n
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    x, r = np.zeros_like(c), c.copy()
    p = r.copy()
    rr = float(np.vdot(r, r))
    if not np.isfinite(rr):
        raise NumericError(f"non-finite initial residual in {label}")
    # r0, p0 and <r0, r0>
    rep = CGReport(residual_norms=[float(np.sqrt(rr))], vector_op_scalar_count=3 * n)
    threshold = tol * max(1.0, rep.residual_norms[0])
    ysum = 0.0

    while rep.iterations < max_iter and rep.residual_norms[-1] > threshold:
        it = rep.iterations + 1
        quad, y = product(p)
        rep.operator_calls += 1
        if not np.isfinite(quad):
            raise NumericError(f"non-finite curvature product at {label} iteration {it}")
        if quad <= BREAKDOWN_EPS:
            break
        a = rr / quad
        x += a * p
        rep.vector_op_scalar_count += n
        rep.iterations = it
        if callback is not None:
            callback(x)
        if advance is not None:
            ysum += a * y
            rep.vector_op_scalar_count += y.size
            if it == max_iter:
                break
            y = advance(y)
        r -= a * y
        if project is not None:
            r = project(r)
        rr_new = float(np.vdot(r, r))
        rep.vector_op_scalar_count += 2 * n
        if not np.isfinite(rr_new):
            raise NumericError(f"non-finite residual at {label} iteration {it}")
        rep.residual_norms.append(float(np.sqrt(rr_new)))
        b = rr_new / rr
        rr = rr_new
        p = r + b * p
        rep.vector_op_scalar_count += n

    rep.inner_product_with_rhs = float(np.vdot(x, c))
    rep.vector_op_scalar_count += n
    return x, rep, ysum


def _curvature_product(q_apply):
    def product(p):
        qp = q_apply(p)
        return float(np.vdot(p, qp)), qp

    return product


def cg_solve(q_apply, c, max_iter=None, tol=1e-10, callback=None):
    """Solve ``Q x = c`` for symmetric PSD ``Q`` given as a callable.

    Runs :func:`cg_kernel` from zero for at most ``max_iter`` iterations
    (default: the problem size), stopping early when ``||r|| <= tol *
    max(1, ||c||)``.  On curvature breakdown the current
    iterate is returned; a non-finite intermediate raises
    :class:`NumericError` naming the iteration.

    ``c`` may have any array shape; the operator must map that shape to
    itself.  ``callback(x)`` is invoked after each iterate update.

    Returns
    -------
    (x, CGReport)
    """
    c = np.asarray(c, dtype=np.float64)
    x, rep, _ = cg_kernel(_curvature_product(q_apply), c, max_iter, tol, callback=callback)
    rep.vector_op_scalar_count += c.size * rep.operator_calls  # <p, Qp>
    return x, rep


def projected_cg_solve(
    q_apply, c, p_apply, max_iter=None, tol=1e-10, diag_precond=None, callback=None
):
    """Minimize ``0.5 <x, Qx> - <x, c>`` over the subspace ``{x : P x = x}``.

    ``p_apply`` must be an orthogonal projector; idempotence is probed on the
    right-hand side and a ValueError is raised if ``P(Pc)`` differs from
    ``Pc`` by more than 1e-8 (relative to ``max(1, ||Pc||)``).

    The solve runs CG on the projected operator ``x -> P Q P x`` with
    right-hand side ``P c``, started at zero, so every iterate (and hence the
    returned solution) lies in the constraint subspace.  With a positive
    ``diag_precond`` vector ``s`` the system is solved in the scaled
    variables ``x = P(s * z)`` using the operator ``z -> s * (P Q P)(s * z)``
    and right-hand side ``s * P c`` (without one, ``s = 1``).  Each residual
    update is re-projected onto the operator's range ``{s * P y}``, so budgets
    past convergence stay at the solution, and the projector is re-applied on
    the way back so feasibility survives the scaling.  The report's
    ``inner_product_with_rhs`` equals ``<x, c>`` in either parametrization.

    ``callback`` receives original-space iterates.

    Returns
    -------
    (x, CGReport)
    """
    c = np.asarray(c, dtype=np.float64)
    pc = p_apply(c)
    ppc = p_apply(pc)
    gap = float(np.linalg.norm(ppc - pc))
    if gap > 1e-8 * max(1.0, float(np.linalg.norm(pc))):
        raise ValueError(
            f"projector failed the idempotence probe: ||P(Pc) - Pc|| = {gap:.3e}"
        )

    s = 1.0
    if diag_precond is not None:
        s = np.asarray(diag_precond, dtype=np.float64)
        if s.shape != c.shape:
            raise ValueError(
                f"diag_precond shape {s.shape} does not match rhs shape {c.shape}"
            )
        if np.any(s <= 0):
            raise ValueError("diag_precond entries must be strictly positive")

    op = lambda z: s * p_apply(q_apply(p_apply(s * z)))
    cb = None if callback is None else (lambda z: callback(p_apply(s * z)))
    project = lambda r: s * p_apply(r / s)
    z, rep, _ = cg_kernel(
        _curvature_product(op), s * pc, max_iter, tol, project=project, callback=cb
    )
    rep.vector_op_scalar_count += c.size * rep.operator_calls
    return p_apply(s * z), rep
