"""Matrix-free Jacobian operators for a model at a fixed point and batch.

A :class:`JacobianOperator` bundles the batched Jacobian-vector product
(parameter space -> output block) and its adjoint (output block -> parameter
space) for a model linearized at ``params`` on a batch, without ever forming
the Jacobian matrix.  Every jvp/vjp call increments a counter, so solver cost
contracts can be checked against what actually ran.  A forward product of a
tangent that is a transposed product ``u = J^T V`` may be given ``V`` as
well, and the model operator then evaluates it through per-layer Gram
matrices where that is cheaper (see :mod:`dualgn.models`).  A transposed
product may also be taken in a compact form, a stand-in for ``J^T V`` that is
linear in ``V`` and holds no more scalars than ``p``: it can be pushed
forward, dotted with another stand-in and expanded into the parameter vector,
whole or a bounded block at a time, so a caller whose vectors all lie in the
range of ``J^T`` makes no ``p``-length pass but the last expansion, and need
not hold its result.

An operator built by :func:`make_jacobian_operator` holds the one per-step
state of its products, the model's :class:`~dualgn.models.Linearization`
from one forward pass: the parameter layer views, the layer inputs and SiLU
slopes, the batch size's Gram route and stand-in slice table, and the Gram
matrices built so far.  Its products read that state directly, and it is
freed with the operator, so nothing of a step outlives it on the model.
Other operators take the parameter vector itself as their stand-in.
"""

from functools import partial

import numpy as np

from .cgsolver import _finite, _integer

__all__ = [
    "JacobianOperator",
    "make_jacobian_operator",
    "adjoint_dot_test",
    "finite_diff_jvp",
]


class JacobianOperator:
    """Batched Jacobian of a model at a fixed (params, batch) pair.

    Attributes
    ----------
    dims : tuple (p, m, k)
        Parameter count, batch size, output dimension.
    outputs : ndarray, shape (m, k), or None
        Model outputs at the linearization point, when the builder has them.
    jvp_calls, vjp_calls : int
        Number of batched product evaluations so far; each call to
        :meth:`jvp` / :meth:`vjp` adds exactly one.
    lin : Linearization or None
        The model's per-step state, on an operator built by
        :func:`make_jacobian_operator`.  ``apply(u, cotangent=V)`` then
        takes the Gram route given ``u = adjoint(V)``, and the ``compact_*``
        products come from it; without it the stand-in for ``J^T V`` is
        ``adjoint(V)`` itself and cotangents are ignored.
    """

    def __init__(self, apply, adjoint, dims, lin=None):
        self.apply = apply
        self.adjoint = adjoint
        self.lin = lin
        self.dims = tuple(int(x) for x in dims)
        self.outputs = None
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
        as the argument of the :meth:`vjp` call that returned ``u``.  A model
        operator uses it; others ignore it.  Either way the call counts as one
        forward product.  Layers that take the Gram route compute their terms
        from ``V``, so the result matches ``J u`` only as closely as ``u = J^T
        V`` holds: a ``V`` carried through recurrences beside ``u`` drifts
        from it by round-off, which is why the primal CG stops passing its
        shadow once that drift is no longer small against its residual (see
        :data:`dualgn.cgsolver.SHADOW_EPS`).
        """
        p, m, k = self.dims
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (p,):
            raise ValueError(f"tangent must have shape ({p},), got {u.shape}")
        if cotangent is not None:
            cotangent = self._block(cotangent)
        self.jvp_calls += 1
        if self.lin is not None:
            return self.apply(u, cotangent=cotangent)
        out = self.apply(u)
        if out.shape != (m, k):
            raise ValueError(f"jvp produced shape {out.shape}, expected ({m}, {k})")
        return out

    def vjp(self, V, out=None):
        """Map an output cotangent block (m, k) to a flat parameter vector (p,).

        This is the sum over samples of the per-sample adjoint products.
        ``out``, if given, is a C-contiguous float64 vector of length ``p``
        that receives the product and is returned: a model operator writes
        into it, and another copies its adjoint's result into it.
        """
        p = self.dims[0]
        V = self._block(V)
        self.vjp_calls += 1
        if self.lin is not None:
            return self.adjoint(V, out=out)
        v = self.adjoint(V)
        if v.shape != (p,):
            raise ValueError(f"vjp produced shape {v.shape}, expected ({p},)")
        if out is None:
            return v
        np.copyto(out, v)
        return out

    def compact_vjp(self, V):
        """A stand-in ``s`` for ``J^T V``, with ``||J^T V||^2`` and forward terms.

        Returns ``(s, sq, terms)``.  ``s`` is a flat array, linear in ``V``
        (the :meth:`vjp` result itself on an operator without ``lin``);
        :meth:`compact_jvp` pushes it forward with ``terms`` and
        :meth:`compact_expand` turns it, or a linear combination of such
        stand-ins, into the parameter vector.  Counts as one transposed
        product.
        """
        if self.lin is None:
            v = self.vjp(V)
            return v, float(np.vdot(v, v)), None
        V = self._block(V)
        self.vjp_calls += 1
        return self.lin.compact_vjp(V)

    def compact_jvp(self, s, terms):
        """``J J^T V`` from the ``(s, terms)`` of :meth:`compact_vjp` ``(V)``.

        Counts as one forward product.
        """
        if self.lin is None:
            return self.jvp(s)
        self.jvp_calls += 1
        return self.lin.compact_jvp(s, terms)

    def compact_expand(self, s):
        """The parameter vector behind a stand-in or a sum of scaled stand-ins.

        Counts no product, and may return ``s`` itself.
        """
        return s if self.lin is None else self.lin.compact_expand(s)

    def compact_pieces(self, s):
        """``(lo, hi, block)`` of the parameter vector behind a stand-in ``s``.

        The blocks cover it once in parameter order, and each is the
        caller's until it asks for the next (see
        :meth:`~dualgn.models.Linearization.compact_pieces`).  Only an
        operator with ``lin`` has them: another's stand-in is the parameter
        vector.  Counts no product.
        """
        return self.lin.compact_pieces(s)

    def compact_dot(self, a, b, terms):
        """``<J^T A, J^T B>`` from stand-ins ``a`` and ``b`` (or sums of them).

        ``terms`` are those of :meth:`compact_vjp` ``(B)``.  Counts no product.
        """
        if self.lin is None:
            return float(np.vdot(a, b))
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
    and the model's linearization from one traced forward pass.  Its
    ``apply`` and ``adjoint`` are the model's ``jvp`` and ``vjp`` at that
    linearization.
    """
    X = np.asarray(batch, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"batch must be a nonempty (m, d) array, got shape {X.shape}")
    if X.shape[1] != model.in_dim:
        raise ValueError(
            f"batch feature dim {X.shape[1]} does not match model input dim {model.in_dim}"
        )
    params = np.asarray(params, dtype=np.float64)
    dims = (model.n_params, X.shape[0], model.out_dim)
    outputs, lin = model.forward_trace(params, X)
    opr = JacobianOperator(
        partial(model.jvp, params, X, trace=lin),
        partial(model.vjp, params, X, trace=lin),
        dims,
        lin,
    )
    opr.outputs = outputs
    return opr


def adjoint_dot_test(opr, seed=0, trials=20):
    """Check <J u, V> == <u, J* V> on random probes.

    Draws ``trials`` Gaussian pairs (u, V) from a Philox stream keyed on
    ``seed`` and returns the worst relative discrepancy
    ``|<Ju, V> - <u, J*V>| / (1 + |<Ju, V>|)``.  Deterministic per seed.
    """
    trials = _integer("trials", trials, low=1)
    p, m, k = opr.dims
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(p)
        V = rng.standard_normal((m, k))
        lhs = float(np.vdot(opr.jvp(u), V))
        rhs = float(np.vdot(u, opr.vjp(V)))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def finite_diff_jvp(model, params, batch, u, eps=1e-6):
    """Central-difference estimate ``(f(w + eps u) - f(w - eps u)) / (2 eps)``.

    Independent of the analytic jvp rule; used to cross-check it.
    """
    _finite("eps", eps)
    params = np.asarray(params, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    hi = model.forward(params + eps * u, batch)
    lo = model.forward(params - eps * u, batch)
    return (hi - lo) / (2.0 * eps)
