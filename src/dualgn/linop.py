"""The Jacobian operator of a model at a fixed point and batch.

A :class:`JacobianOperator` bundles the batched Jacobian-vector product
(parameter space -> output block) and its adjoint (output block -> parameter
space) for a model linearized at ``params`` on a batch, without ever forming
the Jacobian matrix.  :func:`make_jacobian_operator` builds it from one traced
forward pass, and it holds the model outputs and the model's
:class:`~dualgn.models.Linearization`: the parameter layer views, the layer
inputs and SiLU slopes, the batch size's Gram route and stand-in slice table,
and the Gram matrices built so far.  Its products read that state, and it is
freed with the operator, so nothing of a step outlives it on the model.

Every product increments a counter, so solver cost contracts can be checked
against what actually ran.  A forward product of a tangent that is a
transposed product ``u = J^T V`` may be given ``V`` as well, and is then
evaluated through per-layer Gram matrices where that is cheaper (see
:mod:`dualgn.models`).  A transposed product may also be taken in a compact
form, a stand-in for ``J^T V`` that is linear in ``V`` and holds no more
scalars than ``p``: it can be pushed forward, dotted with another stand-in and
expanded into the parameter vector, whole or a bounded block at a time, so a
caller whose vectors all lie in the range of ``J^T`` makes no ``p``-length
pass but the last expansion, and need not hold its result.  A plain transposed
product can be streamed a block at a time in the same way.
"""

import numpy as np

__all__ = ["JacobianOperator", "make_jacobian_operator"]


class JacobianOperator:
    """Batched Jacobian of a model at a fixed (params, batch) pair.

    Built by :func:`make_jacobian_operator` only.  :meth:`jvp` and :meth:`vjp`
    call the model's own ``jvp`` and ``vjp`` at the linearization, so a
    wrapper on those methods (such as a profiler's) sees every such product;
    the ``compact_*`` products go to the linearization directly.

    Attributes
    ----------
    dims : tuple (p, m, k)
        Parameter count, batch size, output dimension.
    model
        The model whose ``jvp`` and ``vjp`` take the plain products.
    outputs : ndarray, shape (m, k)
        Model outputs at the linearization point.
    lin : Linearization
        The model linearized at the parameters and batch, from the same
        forward pass: every product is taken at it.
    jvp_calls, vjp_calls : int
        Number of batched product evaluations so far; each forward or
        transposed product, plain or compact, adds exactly one.
    """

    def __init__(self, model, outputs, lin):
        self.model, self.outputs, self.lin = model, outputs, lin
        self.dims = (model.n_params, outputs.shape[0], model.out_dim)
        self.jvp_calls = 0
        self.vjp_calls = 0

    def _block(self, V):
        _, m, k = self.dims
        V = np.asarray(V, dtype=np.float64)
        if V.shape != (m, k):
            raise ValueError(f"cotangent must have shape ({m}, {k}), got {V.shape}")
        return V

    def jvp(self, u, cotangent=None):
        """Map a flat parameter tangent (p,) to an output block (m, k).

        ``cotangent``, if given, must be a block ``V`` with ``u = J^T V``, such
        as the argument of the :meth:`vjp` call that returned ``u``.  Either
        way the call counts as one forward product.  Layers that take the
        Gram route compute their terms from ``V``, so the result matches ``J
        u`` only as closely as ``u = J^T V`` holds: a ``V`` carried through
        recurrences beside ``u`` drifts from it by round-off, which is why the
        primal CG stops passing its shadow once that drift is no longer small
        against its residual (see :data:`dualgn.cgsolver.SHADOW_EPS`).
        """
        if cotangent is not None:
            cotangent = self._block(cotangent)
        out = self.model.jvp(self.lin, u, cotangent)
        self.jvp_calls += 1
        return out

    def vjp(self, V, consume=None):
        """Map an output cotangent block (m, k) to a fresh flat parameter vector (p,).

        This is the sum over samples of the per-sample adjoint products.
        With ``consume`` no vector is made: the model's ``vjp`` hands each
        block of it to ``consume(lo, hi, block)`` in parameter order, in one
        scratch of at most a chunk, and None is returned (see
        :meth:`~dualgn.models.MLPModel.vjp`).  Either way the call counts as
        one transposed product.
        """
        V = self._block(V)
        self.vjp_calls += 1
        return self.model.vjp(self.lin, V, consume)

    def compact_vjp(self, V):
        """A stand-in ``s`` for ``J^T V``, with ``||J^T V||^2`` and forward terms.

        Returns ``(s, sq, terms)``.  ``s`` is a flat array, linear in ``V``;
        :meth:`compact_jvp` pushes it forward with ``terms`` and
        :meth:`compact_expand` turns it, or a linear combination of such
        stand-ins, into the parameter vector.  Counts as one transposed
        product.
        """
        V = self._block(V)
        self.vjp_calls += 1
        return self.lin.compact_vjp(V)

    def compact_jvp(self, s, terms):
        """``J J^T V`` from the ``(s, terms)`` of :meth:`compact_vjp` ``(V)``.

        Counts as one forward product.
        """
        self.jvp_calls += 1
        return self.lin.compact_jvp(s, terms)

    def compact_expand(self, s):
        """The parameter vector behind a stand-in or a sum of scaled stand-ins.

        Counts no product, and may return ``s`` itself.
        """
        return self.lin.compact_expand(s)

    def compact_pieces(self, s):
        """``(lo, hi, block)`` of the parameter vector behind a stand-in ``s``.

        The blocks cover it once in parameter order, and each is the
        caller's until it asks for the next (see
        :meth:`~dualgn.models.Linearization.compact_pieces`).  Counts no
        product.
        """
        return self.lin.compact_pieces(s)

    def compact_dot(self, a, b, terms):
        """``<J^T A, J^T B>`` from stand-ins ``a`` and ``b`` (or sums of them).

        ``terms`` are those of :meth:`compact_vjp` ``(B)``.  Counts no product.
        """
        return self.lin.compact_dot(a, b, terms)


def make_jacobian_operator(model, params, batch):
    """Build the Jacobian operator of ``model`` at ``params`` on ``batch``.

    Parameters
    ----------
    model : LinearModel or MLPModel
    params : ndarray, shape (p,)
    batch : ndarray, shape (m, d)
        Batch inputs; must be nonempty.

    Returns
    -------
    JacobianOperator with ``dims == (p, m, k)``, holding the model outputs
    and the model's linearization from one traced forward pass.
    """
    X = np.asarray(batch, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"batch must be a nonempty (m, d) array, got shape {X.shape}")
    if X.shape[1] != model.in_dim:
        raise ValueError(
            f"batch feature dim {X.shape[1]} does not match model input dim {model.in_dim}"
        )
    return JacobianOperator(model, *model.forward_trace(params, X))
