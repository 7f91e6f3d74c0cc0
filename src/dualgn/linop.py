"""Matrix-free Jacobian operators for a model at a fixed point and batch.

A :class:`JacobianOperator` bundles the batched Jacobian-vector product
(parameter space -> output block) and its adjoint (output block -> parameter
space) for a model linearized at ``params`` on a batch, without ever forming
the Jacobian matrix, from one forward pass whose trace every product reuses.
Every jvp/vjp call increments a counter, so solver cost contracts can be
checked against what actually ran.  A forward product of a tangent that is a
transposed product ``u = J^T V`` may be given ``V`` as well, and the model
operator then evaluates it through per-layer Gram matrices where that is
cheaper (see :mod:`dualgn.models`).
"""

import numpy as np

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

    ``apply_cotangent(u, V)``, if given, returns ``apply(u)`` for a tangent
    ``u = adjoint(V)``, computed with the help of ``V``.
    """

    def __init__(self, apply, adjoint, dims, apply_cotangent=None):
        self.apply = apply
        self.adjoint = adjoint
        self.apply_cotangent = apply_cotangent
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
        as the argument of the :meth:`vjp` call that returned ``u``.  An
        operator built with ``apply_cotangent`` uses it; others ignore it.
        Either way the call counts as one forward product.
        """
        p, m, k = self.dims
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (p,):
            raise ValueError(f"tangent must have shape ({p},), got {u.shape}")
        if cotangent is not None:
            cotangent = self._block(cotangent)
        self.jvp_calls += 1
        if cotangent is None or self.apply_cotangent is None:
            out = self.apply(u)
        else:
            out = self.apply_cotangent(u, cotangent)
        if out.shape != (m, k):
            raise ValueError(f"jvp produced shape {out.shape}, expected ({m}, {k})")
        return out

    def vjp(self, V):
        """Map an output cotangent block (m, k) to a flat parameter vector (p,).

        This is the sum over samples of the per-sample adjoint products.
        """
        p = self.dims[0]
        V = self._block(V)
        self.vjp_calls += 1
        out = self.adjoint(V)
        if out.shape != (p,):
            raise ValueError(f"vjp produced shape {out.shape}, expected ({p},)")
        return out


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
    JacobianOperator with ``dims == (p, m, k)``, holding the model outputs.
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
    outputs, trace = model.forward_trace(params, X)
    grams = {}  # per-layer Gram matrices, built by the first product that needs them
    opr = JacobianOperator(
        lambda u: model.jvp(params, X, u, trace=trace),
        lambda V: model.vjp(params, X, V, trace=trace),
        dims,
        lambda u, V: model.jvp(params, X, u, trace=trace, cotangent=V, grams=grams),
    )
    opr.outputs = outputs
    return opr


def adjoint_dot_test(opr, seed=0, trials=20):
    """Check <J u, V> == <u, J* V> on random probes.

    Draws ``trials`` Gaussian pairs (u, V) from a Philox stream keyed on
    ``seed`` and returns the worst relative discrepancy
    ``|<Ju, V> - <u, J*V>| / (1 + |<Ju, V>|)``.  Deterministic per seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
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
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    params = np.asarray(params, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    hi = model.forward(params + eps * u, batch)
    lo = model.forward(params - eps * u, batch)
    return (hi - lo) / (2.0 * eps)
