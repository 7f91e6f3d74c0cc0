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

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NumericError

__all__ = ["CGReport", "cg_solve", "projected_cg_solve"]

# A curvature inner product at or below this is treated as breakdown: the
# solver stops and returns the last iterate (every prefix is still usable).
BREAKDOWN_EPS = 1e-300

# Once ||r||^2 <= SHADOW_EPS ||r^0||^2 the kernel drops the output-space
# shadow of its residual and direction, and products go back to the
# parameter-space vector.  The shadow drifts from them by about eps ||r^0||,
# so a shadowed product's relative error is about eps ||r^0|| / ||r||, and
# CG tolerates product errors that grow like 1 / ||r|| as it converges
# (relaxed inexact Krylov methods: Simoncini and Szyld 2003; van den Eshof
# and Sleijpen 2004).  The shadow is dropped where that error reaches
# eps^(1/4), at ||r|| = eps^(3/4) ||r^0||.  Margin: the test suite passes at
# eps^(3/2), and the direction, acceptance and trainer tests at eps^(7/4);
# at eps^2 test_primal_direction_descends finds an ascent.
SHADOW_EPS = np.finfo(np.float64).eps ** 1.5

# From the first residual update with ||r||^2 <= PROJECT_EPS ||r^0||^2 on,
# the kernel re-projects every residual update: above it, null-space
# round-off is small against the residual.
PROJECT_EPS = np.finfo(np.float64).eps

# The kernel's recurrences stream their vectors a block of this many float64
# (128 KiB) at a time, so each block of a scaled operand is still in cache
# when it is accumulated.  A right-hand side longer than one block gets a
# scratch of one block, which every block of an update reuses, so an update
# touches 384 KiB of cache and its workspace holds two vectors and a block,
# not three vectors.  On the mlp784 primal direction (p = 203,530; a 2-core
# Xeon with 2 MiB of L2 per core), 4096 timed 15% slower, 32768 and 65536
# 2-3% faster, and one whole-vector block 3% slower.
BLOCK = 16384


def _integer(name, value, low=0):
    try:
        ok = value >= low and int(value) == value
    except OverflowError:  # int(inf)
        ok = False
    if not ok:
        kind = "positive" if low else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value}")
    return int(value)


def _finite(name, value, positive=True):
    if not (np.isfinite(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be a finite {kind} number, got {value}")


def _axpy(y, a, x, tmp):
    """``y += a * x`` a block at a time, with ``a * x`` formed in ``tmp``.

    Elementwise the same arithmetic as ``y += np.multiply(a, x, out=tmp)``.
    ``tmp`` has ``y``'s shape, or is a flat scratch of at least ``min(y.size,
    BLOCK)`` scalars that every block reuses.  ``y`` must be C-contiguous,
    so that its flat view writes through to it; ``x`` may have any layout.
    """
    if tmp.shape == y.shape:  # one pass: no flat views or slices to make
        y += np.multiply(a, x, out=tmp)
        return
    y, x = y.reshape(-1), x.reshape(-1)
    for i in range(0, y.size, BLOCK):
        j = i + BLOCK
        blk = y[i:j]  # a view: y[i:j] += ... would copy the block back onto itself
        blk += np.multiply(a, x[i:j], out=tmp[: blk.size])


def _aypx(y, a, x):
    """``y = a * y + x`` in place, a block at a time; ``y`` is C-contiguous.

    Elementwise the same arithmetic as ``y *= a; y += x``.
    """
    if y.size <= BLOCK:
        y *= a
        y += x
        return
    y, x = y.reshape(-1), x.reshape(-1)
    for i in range(0, y.size, BLOCK):
        j = i + BLOCK
        blk = y[i:j]
        blk *= a
        blk += x[i:j]


def cg_workspace(shape, work=None):
    """A workspace for :func:`cg_kernel` on right-hand sides of ``shape``:
    the residual, the direction and a scratch.

    It is the tuple ``(r, p, tmp)``: ``r`` and ``p`` are the rows of one
    ``(2, *shape)`` block, and ``tmp`` has ``shape`` up to ``BLOCK`` scalars
    and is one block of ``BLOCK`` scalars past that.  With ``work`` None the
    workspace is new and uninitialized; else ``work`` is returned, and a
    ValueError is raised unless it has that layout, in C-contiguous float64
    arrays.
    """
    want = (shape, shape, shape if math.prod(shape) <= BLOCK else (BLOCK,))
    if work is None:
        return (*np.empty((2, *shape)), np.empty(want[2]))
    if _layout(work) != want:
        raise ValueError(f"work must be a tuple of float64 arrays of shapes {want}, "
                         f"C-contiguous, got {_layout(work)}")
    return work


def _layout(work):
    """A tuple's items' layouts, a C-contiguous float64 array's shape, or
    else a description of ``work``."""
    if isinstance(work, tuple):
        return tuple(map(_layout, work))
    if isinstance(work, np.ndarray) and work.dtype == np.float64 and work.flags.c_contiguous:
        return work.shape
    return f"{work.dtype} {work.shape}" if isinstance(work, np.ndarray) else type(work).__name__


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
    product, c, max_iter, tol, advance=None, project=None, callback=None, label="CG",
    shadow=None, work=None,
):
    """The CG iteration every solver in the package runs.

    Standard recurrences from ``x^0 = 0`` with ``r^0 = p^0 = c``:

        a_t = <r_{t-1}, r_{t-1}> / <p_{t-1}, Q p_{t-1}>
        x_t = x_{t-1} + a_t p_{t-1}
        r_t = r_{t-1} - a_t Q p_{t-1}
        b_t = <r_t, r_t> / <r_{t-1}, r_{t-1}>
        p_t = r_t + b_t p_{t-1}

    ``p_t`` is formed only when iteration ``t + 1`` runs.  ``product(p, ps)``
    returns ``(<p, Q p>, y, ys)`` for one product ``y`` of ``p``, and ``y``
    is ``Q p`` unless ``advance`` is given (``ys`` serves the shadow
    below).  Then ``advance(y)`` is ``Q p`` for
    the latest ``p``, skipped on iteration ``max_iter`` (its residual would
    feed no iteration), and the kernel returns ``ysum = sum_t a_t y_t`` (else
    ``0.0``).  On the dual route ``y`` is a compact stand-in for ``J^T
    beta``, linear in ``beta``: per layer, the cotangent where the layer's
    fan-in exceeds the batch size, else the layer's share of ``J^T beta``
    (see :mod:`dualgn.models`).  So it is shorter than the parameter vector
    once a layer takes that Gram route, and as long as it when none does.
    ``tau`` iterations cost exactly ``tau`` Jacobian-vector products and
    ``tau + 1`` transposed products, the same counts as the primal route:
    one backward pass per product gives the stand-in and the curvature
    ``<p, J J^T p> = ||J^T p||^2``, the forward product that advances the
    residual is pushed from the stand-in and skipped on the final iteration,
    and ``ysum`` sums stand-ins, which the caller expands into ``J^T beta``
    once, after the solve.  Without a penalty the route's gradient,
    right-hand side and descent inner product are stand-ins too, and its one
    parameter-length array, the direction, is expanded after the solve.

    The state ``x``, ``r`` and ``p`` is updated in place, so ``callback``
    and ``product`` must copy what they keep of it.  The three recurrences
    stream their vectors ``BLOCK`` scalars at a time, on flat views of the
    C-contiguous state, with the same elementwise arithmetic as unblocked
    updates.  ``r`` and ``p`` live in ``work``, from :func:`cg_workspace` of
    ``c``'s shape (None: a fresh one), which holds the residual and the
    direction, the two rows of one block, and a scratch that receives ``a_t
    p`` and ``a_t y`` on their way into ``x`` and ``r``: whole when ``c`` is
    one block, and a block at a time, in a scratch of one block, when it is
    longer.  ``work`` holds nothing from one solve to the next, so a caller
    that owns it can reuse it for every solve of a run; a ``product`` or
    ``callback`` must then not keep ``r`` or ``p`` across solves either.
    The scratch holds nothing while ``product`` or a stream (below) runs, so
    an operator may pass ``work[2]`` to :func:`_axpy` for its own
    arithmetic, but must not return it.  ``x`` is always a fresh C-ordered
    array, whatever ``c``'s layout.  Outside the ``advance`` path the kernel
    never writes into ``y``, so an operator may return its argument or a
    stored array.  The ``advance`` path consumes each ``y``: after
    ``advance(y)`` the kernel scales ``y`` by ``a_t`` in place and adds it
    into ``ysum``, which is the first scaled ``y``, so ``product`` must
    return a fresh ``y`` each time.

    ``shadow``, if given, is an output-space block ``S`` with ``c = J^T S``
    for the caller's transposed product ``J^T``, on a ``Q`` that maps ``J^T
    V`` into the range of ``J^T``.  The kernel then carries shadows ``rs``
    and ``ps`` with ``r = J^T rs`` and ``p = J^T ps``, updated with the same
    ``a_t`` and ``b_t``; ``product`` receives ``ps`` and returns the shadow
    ``ys`` of ``Q p`` as its third value (else ``ys`` is ignored and ``ps`` is
    None).  It may take ``Q p = J^T ys`` and ``<p, Q p> = <J J^T ps, ys>``
    from the shadows as well, as the primal route does.  Both routes' forward
    products are then of transposed products and go through per-layer Gram
    matrices on layers with more inputs than batch samples (see
    :mod:`dualgn.models`).  The shadow holds only up to round-off, so it is
    dropped, and ``ps`` is None from then on, once ``||r||^2 <= SHADOW_EPS
    ||c||^2``.  In particular ``tau = 0`` performs no CG work and, on the
    dual route, returns exactly ``gamma`` times the batch gradient.  The
    report's ``inner_product_with_rhs`` is ``vdot(x, c)`` with or without a
    shadow: a sum of ``a_t <J J^T ps, S>`` over shadowed products would
    follow the shadow, not ``x``, and miss ``<x, c>`` by the drift.  So an
    array ``c`` is kept, and must not lie in ``work``; a streamed one is
    formed again.

    ``c`` may be streamed: a callable ``c(consume)`` that hands the blocks of
    a flat right-hand side to ``consume(lo, hi, block)``, which may overwrite
    each block, as :meth:`~dualgn.linop.JacobianOperator.vjp` streams a
    transposed product.  ``work`` is then required, the blocks are written
    straight into its residual and direction, and each ``y`` is streamed
    too.  Once ``a_t`` is known the kernel subtracts ``a_t`` times each
    block of ``y`` from the residual, bit for bit the update by an array
    ``y``, and it skips this deferred update on iteration ``max_iter``, as
    it skips ``advance``.  So ``product`` gives ``<p, Q p>`` without ``Q
    p``, as a shadow does; the stream must read ``p`` as it was when
    ``product`` returned, and the kernel leaves it so until the stream has
    run.  Once an iteration has moved ``x``, ``<x, c>`` is summed a block at
    a time over ``c`` streamed again: the product that iteration
    ``max_iter`` does not make pays for it.  On the primal route ``tau`` iterations then
    still cost ``tau`` forward products and ``tau + 1`` transposed ones.  A
    solve that stops on its residual (``tol``, or a residual of exactly 0)
    makes one transposed product more, as its last residual update ran, and
    one that breaks down at its first product one fewer.  At full budget the report holds ``tau`` residual
    norms, as on the dual route, not ``tau + 1``.

    ``project(r)`` maps a residual update back onto the range of a singular
    ``Q``: past convergence, null-space round-off in the recursive residual
    otherwise grows until ``a_t`` blows up (Kaasschieter 1988; Gould, Hribar
    and Nocedal 2001 re-project the same way in projected CG).  It runs on
    each update from the first with ``||r||^2 <= PROJECT_EPS ||c||^2`` on,
    and ``<r, r>`` is then taken again.  The kernel keeps a C-ordered copy
    of a projection returned in another layout.

    Stops after ``max_iter`` iterations, when ``||r|| <= tol * max(1,
    ||c||)``, or on curvature breakdown (``<p, Qp> <= BREAKDOWN_EPS``),
    returning the current iterate.  The kernel does not check its arguments:
    ``max_iter`` is a nonnegative integer, ``tol`` a finite nonnegative
    number and ``work`` of the right layout, as the public solvers and
    :class:`~dualgn.directions.SubproblemSpec` check them.  A non-finite initial
    residual, curvature or residual raises :class:`NumericError` naming
    ``label``.  ``callback(x)`` is invoked after each iterate update.  The
    report counts the kernel's own vector arithmetic, the shadow's included;
    callers add their operator's.

    Returns ``(x, CGReport, ysum)``.
    """
    stream = callable(c)
    r, p, tmp = cg_workspace(c.shape) if work is None else work
    n = r.size
    x = np.zeros(r.shape)  # C order, so the blocked updates write through
    if stream:

        def fill(lo, hi, blk):
            r[lo:hi] = blk
            p[lo:hi] = blk

        c(fill)
    else:
        np.copyto(r, c)
        np.copyto(p, r)
    rr = rr0 = float(np.vdot(r, r))
    if not math.isfinite(rr):
        raise NumericError(f"non-finite initial residual in {label}")
    # r0, p0 and <r0, r0>
    rep = CGReport(residual_norms=[math.sqrt(rr)], vector_op_scalar_count=3 * n)
    threshold = tol * max(1.0, rep.residual_norms[0])
    ysum = 0.0
    reproject = None  # project, from the first residual at round-off on
    rs = ps = shadow  # never updated in place

    while rep.iterations < max_iter and rep.residual_norms[-1] > threshold:
        it = rep.iterations + 1
        if it > 1:
            _aypx(p, b, r)
            rep.vector_op_scalar_count += n
            if ps is not None:
                ps = rs + b * ps
                rep.vector_op_scalar_count += ps.size
        quad, y, ys = product(p, ps)
        rep.operator_calls += 1
        if not math.isfinite(quad):
            raise NumericError(f"non-finite curvature product at {label} iteration {it}")
        if quad <= BREAKDOWN_EPS:
            break
        a = rr / quad
        _axpy(x, a, p, tmp)
        rep.vector_op_scalar_count += n
        rep.iterations = it
        if callback is not None:
            callback(x)
        if advance is not None:
            qp = advance(y) if it < max_iter else None
            y *= a
            if it == 1:
                ysum = y
            else:
                ysum += y
            rep.vector_op_scalar_count += y.size
            if qp is None:
                break
            y = qp
        if not stream:
            _axpy(r, -a, y, tmp)  # r - a y, bit for bit
        elif it == max_iter:  # this residual would feed no iteration
            break
        else:  # r - a y a block at a time, with a y formed in the block: bit for bit
            y(lambda lo, hi, blk: np.add(r[lo:hi], np.multiply(-a, blk, out=blk), out=r[lo:hi]))
        del y  # freed before the next product is made
        rr_new = float(np.vdot(r, r))
        rep.vector_op_scalar_count += 2 * n
        if rr_new <= PROJECT_EPS * rr0:
            reproject = project
        if reproject is not None:
            r = np.ascontiguousarray(reproject(r))
            rr_new = float(np.vdot(r, r))
            rep.vector_op_scalar_count += n
        if not math.isfinite(rr_new):
            raise NumericError(f"non-finite residual at {label} iteration {it}")
        rep.residual_norms.append(math.sqrt(rr_new))
        if ps is not None and rr_new > SHADOW_EPS * rr0:
            rs = rs - a * ys
            rep.vector_op_scalar_count += rs.size
        else:
            rs = ps = None
        b = rr_new / rr
        rr = rr_new

    if stream and rep.iterations:  # r has left c: stream c again
        parts = []
        c(lambda lo, hi, blk: parts.append(float(np.vdot(x[lo:hi], blk))))
        rep.inner_product_with_rhs = math.fsum(parts)
    else:
        rep.inner_product_with_rhs = float(np.vdot(x, r if stream else c))
    rep.vector_op_scalar_count += n
    return x, rep, ysum


def _budget(max_iter, tol, n):
    """Check a public solver's ``max_iter`` and ``tol``; returns the iteration
    budget, which is ``n`` for ``max_iter=None``."""
    max_iter = n if max_iter is None else _integer("max_iter", max_iter)
    _finite("tol", tol, positive=False)
    return max_iter


def _curvature_product(q_apply):
    def product(p, _):
        qp = q_apply(p)
        return float(np.vdot(p, qp)), qp, None

    return product


def cg_solve(
    q_apply, c, max_iter=None, tol=1e-10, callback=None, shadow=None, work=None
):
    """Solve ``Q x = c`` for symmetric PSD ``Q`` given as a callable.

    Runs :func:`cg_kernel` from zero for at most ``max_iter`` iterations
    (default: the problem size), stopping early when ``||r|| <= tol *
    max(1, ||c||)``.  On curvature breakdown the current
    iterate is returned; a non-finite intermediate raises
    :class:`NumericError` naming the iteration.

    ``c`` may have any array shape and layout; the operator must map that
    shape to itself.  ``callback(x)`` is invoked after each iterate update.
    With a ``shadow`` ``S`` of ``c`` (see :func:`cg_kernel`), ``q_apply(p,
    ps)`` is the kernel's ``product``: it returns ``(<p, Q p>, Q p, shadow of
    Q p)``, where ``ps`` is the shadow of ``p`` or None (the shadow of ``Q
    p`` is then ignored), and the caller counts its curvature's vector work.
    Without one, ``q_apply(p)`` returns ``Q p`` and the solver takes and
    counts ``<p, Q p>``.  ``work`` is the kernel's residual, direction and
    scratch ``(r, p, tmp)``, from :func:`cg_workspace` of ``c``'s shape (see
    :func:`cg_kernel`); None allocates one for this solve.

    ``c`` may also be a stream ``c(consume)`` of a flat right-hand side (see
    :func:`cg_kernel`), as the primal route passes it.  It then needs a
    ``shadow`` and a ``work``, whose shape it takes, and ``q_apply(p, ps)``
    returns ``Q p`` as a stream as well.

    Returns
    -------
    (x, CGReport)
    """
    if not callable(c):
        c = np.asarray(c, dtype=np.float64)
    elif shadow is None or work is None:
        raise ValueError("a streamed right-hand side needs a shadow and a work tuple")
    shape = np.shape(work[0]) if callable(c) else c.shape
    max_iter = _budget(max_iter, tol, math.prod(shape))
    work = cg_workspace(shape, work)
    product = q_apply if shadow is not None else _curvature_product(q_apply)
    x, rep, _ = cg_kernel(
        product, c, max_iter, tol, callback=callback, shadow=shadow, work=work
    )
    if shadow is None:
        rep.vector_op_scalar_count += x.size * rep.operator_calls  # <p, Qp>
    return x, rep


def projected_cg_solve(q_apply, c, p_apply, max_iter=None, tol=1e-10):
    """Minimize ``0.5 <x, Qx> - <x, c>`` over the subspace ``{x : P x = x}``.

    ``p_apply`` must be an orthogonal projector; idempotence is probed on the
    right-hand side and a ValueError is raised if ``P(Pc)`` differs from
    ``Pc`` by more than 1e-8 (relative to ``max(1, ||Pc||)``).

    The solve runs CG on the projected operator ``x -> P Q P x`` with
    right-hand side ``P c``, started at zero, so every iterate (and hence the
    returned solution) lies in the constraint subspace.  Residual updates
    near round-off are re-projected (see :func:`cg_kernel`), so budgets past
    convergence stay at the solution, and the projector is re-applied to the
    returned solution.  The report's
    ``inner_product_with_rhs`` is ``<x, c>``.

    Returns
    -------
    (x, CGReport)
    """
    c = np.asarray(c, dtype=np.float64)
    max_iter = _budget(max_iter, tol, c.size)
    pc = p_apply(c)
    ppc = p_apply(pc)
    gap = float(np.linalg.norm(ppc - pc))
    if gap > 1e-8 * max(1.0, float(np.linalg.norm(pc))):
        raise ValueError(
            f"projector failed the idempotence probe: ||P(Pc) - Pc|| = {gap:.3e}"
        )

    op = lambda x: p_apply(q_apply(p_apply(x)))
    x, rep, _ = cg_kernel(_curvature_product(op), pc, max_iter, tol, project=p_apply)
    rep.vector_op_scalar_count += c.size * rep.operator_calls
    return p_apply(x), rep
