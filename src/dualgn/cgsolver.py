"""Conjugate gradient on matrix-free operators.

:func:`cg_kernel` is the one CG iteration in the package: :func:`cg_solve`,
:func:`projected_cg_solve` and the output-space dual solve in
:mod:`dualgn.directions` run on it.  It takes one right-hand-side form, a
stream of blocks, and one product protocol: a product returns its curvature
and an update, which hands ``Q p`` to the kernel's residual update a block at
a time once the step is known, or, on the last iteration, may skip it.
Reports carry residual norms per iteration, the inner product of the solution
with the right-hand side (nonnegative for CG started at zero on a PSD system,
which is what makes truncated solutions usable as descent directions), a
count of scalar operations spent on vector arithmetic, and the number of
operator applications.
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
    ``(2, *shape)`` block, 0-d arrays where ``shape`` is ``()``, and ``tmp``
    has ``shape`` up to ``BLOCK`` scalars and is one block of ``BLOCK``
    scalars past that.  With ``work`` None the workspace is new and
    uninitialized; else ``work`` is returned, and a ValueError is raised
    unless it has that layout, in C-contiguous float64 arrays.
    """
    want = (shape, shape, shape if math.prod(shape) <= BLOCK else (BLOCK,))
    if work is None:
        rp = np.empty((2, *shape))
        return rp[0, ...], rp[1, ...], np.empty(want[2])  # views, also of 0-d rows
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


def cg_kernel(product, c, work, max_iter, tol, project=None, callback=None, label="CG", shadow=None):
    """The CG iteration every solver in the package runs.

    Standard recurrences from ``x^0 = 0`` with ``r^0 = p^0 = c``:

        a_t = <r_{t-1}, r_{t-1}> / <p_{t-1}, Q p_{t-1}>
        x_t = x_{t-1} + a_t p_{t-1}
        r_t = r_{t-1} - a_t Q p_{t-1}
        b_t = <r_t, r_t> / <r_{t-1}, r_{t-1}>
        p_t = r_t + b_t p_{t-1}

    ``p_t`` is formed only when iteration ``t + 1`` runs.

    ``c`` is a stream: ``c(consume)`` hands the blocks of the flat
    right-hand side to ``consume(lo, hi, block)`` in order, as
    :meth:`~dualgn.linop.JacobianOperator.vjp` streams a transposed product,
    and an array is one block (:func:`_one_block`).  The blocks are written
    into the residual and direction, and once an iteration has moved ``x``,
    ``<x, c>`` is summed a block at a time over ``c`` streamed again, so an
    array ``c`` must not lie in ``work``.

    ``product(p, ps)`` returns ``(<p, Q p>, update, ys)``.  Once ``a_t`` is
    known the kernel calls ``update(a_t, subtract, last)``, with ``last``
    true on iteration ``max_iter``, whose residual would feed no iteration.
    ``update`` hands ``Q p`` to ``subtract(lo, hi, block)`` a block at a time
    in order, or not at all, and returns whether it did; the
    kernel stops after an update that did not.  ``subtract`` forms ``r -
    a_t block`` on ``[lo, hi)`` of the flat residual in one multiply into
    the block and one add, so the blocks are the kernel's to overwrite.
    ``update`` must read ``p`` as it was when ``product`` returned, and the
    kernel leaves it so until then.

    The array products of :func:`cg_solve` and :func:`projected_cg_solve`
    hand over a copy of ``Q p`` as one block and always update, so their
    reports hold ``tau + 1`` residual norms at full budget.  The primal and
    dual routes in :mod:`dualgn.directions` skip the update when ``last``,
    so ``tau`` iterations cost ``tau`` forward and ``tau + 1`` transposed
    products on both, and a full-budget report holds ``tau`` norms.  The
    primal's update streams the transposed product ``Q p = J^T Y`` into
    ``subtract``, and the product it saves streams ``J^T g`` again for
    ``<x, c>``: a solve that stops on its residual (``tol``, or a residual
    of exactly 0) makes one transposed product more, and one that breaks
    down at its first product one fewer.  The dual's product is a compact
    transposed product ``s`` of ``beta`` (see :mod:`dualgn.models`): one
    backward pass gives ``s`` and the curvature ``<p, J J^T p> = ||J^T
    p||^2``, and its update pushes the forward product that advances the
    residual from ``s`` and keeps ``sum_t a_t s_t``, which the caller expands
    into ``J^T beta`` once, after the solve.

    The state ``x``, ``r`` and ``p`` is updated in place, so ``callback``
    and ``product`` must copy what they keep of it.  The recurrences stream
    their vectors ``BLOCK`` scalars at a time, on flat views of the
    C-contiguous state, with the same elementwise arithmetic as unblocked
    updates.  ``work`` is :func:`cg_workspace` of the right-hand side's
    shape: the residual and the direction, the two rows of one block, and a
    scratch that receives ``a_t p`` on its way into ``x``.  It holds nothing
    from one solve to the next, so a caller that owns it can reuse it for
    every solve of a run; a ``product`` or ``callback`` must then not keep
    ``r`` or ``p`` across solves either.  The scratch holds nothing while
    ``product``, ``update`` or a stream runs, so an operator may pass
    ``work[2]`` to :func:`_axpy` for its own arithmetic.  ``x`` is always a
    fresh C-ordered array.

    ``shadow``, if given, is an output-space block ``S`` with ``c = J^T S``
    for the caller's transposed product ``J^T``, on a ``Q`` that maps ``J^T
    V`` into the range of ``J^T``.  The kernel then carries shadows ``rs``
    and ``ps`` with ``r = J^T rs`` and ``p = J^T ps``, updated with the same
    ``a_t`` and ``b_t``; ``product`` receives ``ps`` and returns the shadow
    ``ys`` of ``Q p`` as its third value (else ``ys`` is ignored and ``ps`` is
    None).  It may take ``Q p = J^T ys`` and ``<p, Q p> = <J J^T ps, ys>``
    from the shadows, as the primal route does.  Both routes' forward
    products are then of transposed products and go through per-layer Gram
    matrices on layers with more inputs than batch samples (see
    :mod:`dualgn.models`).  The shadow holds only up to round-off, so it is
    dropped, and ``ps`` is None from then on, once ``||r||^2 <= SHADOW_EPS
    ||c||^2``.  ``<x, c>`` is summed over ``c``, not over the shadow: a sum of
    ``a_t <J J^T ps, S>`` would follow the shadow and miss ``<x, c>`` by its
    drift.

    ``project(r)`` maps a residual update back onto the range of a singular
    ``Q``: past convergence, null-space round-off in the recursive residual
    otherwise grows until ``a_t`` blows up (Kaasschieter 1988; Gould, Hribar
    and Nocedal 2001 re-project the same way in projected CG).  It runs on
    each update from the first with ``||r||^2 <= PROJECT_EPS ||c||^2`` on,
    its result is copied into the residual, and ``<r, r>`` is then taken
    again.

    Stops after ``max_iter`` iterations, when ``||r|| <= tol * max(1,
    ||c||)``, or on curvature breakdown (``<p, Qp> <= BREAKDOWN_EPS``),
    returning the current iterate.  In particular ``max_iter = 0`` performs
    no CG work.  The kernel does not check its arguments: ``max_iter`` is a
    nonnegative integer, ``tol`` a finite nonnegative number and ``work`` of
    the right layout, as the public solvers and
    :class:`~dualgn.directions.SubproblemSpec` check them.  A non-finite
    initial residual, curvature or residual raises :class:`NumericError`
    naming ``label``.  ``callback(x)`` is invoked after each iterate update.
    The report counts the kernel's own vector arithmetic, the shadow's
    included; callers add their operator's.

    Returns ``(x, CGReport)``.
    """
    r, p, tmp = work
    n = r.size
    x = np.zeros(r.shape)  # C order, so the blocked updates write through
    rf, pf, xf = r.reshape(-1), p.reshape(-1), x.reshape(-1)  # views: all are C-contiguous

    def fill(lo, hi, blk):
        rf[lo:hi] = blk
        pf[lo:hi] = blk

    def subtract(lo, hi, blk):  # r - a Qp, with a Qp formed in the block: bit for bit
        np.add(rf[lo:hi], np.multiply(-a, blk, out=blk), out=rf[lo:hi])

    c(fill)
    rr = rr0 = float(np.vdot(r, r))
    if not math.isfinite(rr):
        raise NumericError(f"non-finite initial residual in {label}")
    # r0, p0 and <r0, r0>
    rep = CGReport(residual_norms=[math.sqrt(rr)], vector_op_scalar_count=3 * n)
    threshold = tol * max(1.0, rep.residual_norms[0])
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
        quad, update, ys = product(p, ps)
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
        if not update(a, subtract, it == max_iter):
            break
        del update  # freed before the next product is made
        rr_new = float(np.vdot(r, r))
        rep.vector_op_scalar_count += 2 * n
        if rr_new <= PROJECT_EPS * rr0:
            reproject = project
        if reproject is not None:
            np.copyto(r, reproject(r))
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

    if rep.iterations:  # x has moved: stream c again for <x, c>
        parts = []
        c(lambda lo, hi, blk: parts.append(float(np.vdot(xf[lo:hi], blk))))
        rep.inner_product_with_rhs = math.fsum(parts)
    else:
        rep.inner_product_with_rhs = float(np.vdot(x, r))
    rep.vector_op_scalar_count += n
    return x, rep


def _budget(max_iter, tol, n):
    """Check a public solver's ``max_iter`` and ``tol``; returns the iteration
    budget, which is ``n`` for ``max_iter=None``."""
    max_iter = n if max_iter is None else _integer("max_iter", max_iter)
    _finite("tol", tol, positive=False)
    return max_iter


def _one_block(c):
    """An array right-hand side as a stream of one block (see :func:`cg_kernel`)."""
    flat = np.asarray(c, dtype=np.float64).reshape(-1)  # a view of a C-contiguous c
    return lambda consume: consume(0, flat.size, flat)


def _curvature_product(q_apply):
    """The kernel's ``product`` for ``q_apply(p) = Q p``: it takes ``<p, Q
    p>``, and its update hands a copy of ``Q p`` over as one block."""

    def product(p, _):
        qp = q_apply(p)
        blk = np.array(qp, dtype=np.float64).reshape(-1)  # the kernel's to overwrite

        def update(a, subtract, last):
            subtract(0, blk.size, blk)
            return True

        return float(np.vdot(p, qp)), update, None

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

    ``c`` may have any array shape and layout, 0-d included; the operator
    must map that shape to itself.  ``c`` may also be a stream
    ``c(consume)`` of a flat right-hand side (see :func:`cg_kernel`), as the
    primal route passes it; it then needs a ``work``, whose shape it takes.
    ``callback(x)`` is invoked after each iterate update.  Without a
    ``shadow``, ``q_apply(p)`` returns ``Q p`` and the solver takes and counts
    ``<p, Q p>`` and subtracts a copy of ``Q p`` from the residual on every
    iteration, so a report at full budget holds ``max_iter + 1`` residual
    norms; ``q_apply`` may return its argument or a stored array.  With a
    ``shadow`` ``S`` of ``c`` (see :func:`cg_kernel`), ``q_apply(p, ps)`` is
    the kernel's ``product``: it returns ``(<p, Q p>, update, shadow of Q
    p)``, where ``ps`` is the shadow of ``p`` or None (the shadow of ``Q p``
    is then ignored), and the caller counts its curvature's vector work.
    ``work`` is the kernel's residual, direction and scratch ``(r, p,
    tmp)``, from :func:`cg_workspace` of ``c``'s shape (see
    :func:`cg_kernel`); None allocates one for this solve.

    Returns
    -------
    (x, CGReport)
    """
    if callable(c) and work is None:
        raise ValueError("a streamed right-hand side needs a work tuple")
    shape = np.shape(work[0] if callable(c) else c)
    c = c if callable(c) else _one_block(c)
    max_iter = _budget(max_iter, tol, math.prod(shape))
    work = cg_workspace(shape, work)
    product = q_apply if shadow is not None else _curvature_product(q_apply)
    x, rep = cg_kernel(product, c, work, max_iter, tol, callback=callback, shadow=shadow)
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
    returned solution.  ``c`` may have any array shape, 0-d included.  The
    report's ``inner_product_with_rhs`` is ``<x, c>``.

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
    work = cg_workspace(c.shape)
    x, rep = cg_kernel(_curvature_product(op), _one_block(pc), work, max_iter, tol, project=p_apply)
    rep.vector_op_scalar_count += c.size * rep.operator_calls
    return p_apply(x), rep
