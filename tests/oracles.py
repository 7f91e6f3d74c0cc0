"""Independent references the tests check against.

Everything here goes through dense numpy linear algebra, plain textbook
recursions or the model's plain products, never through the package's CG
loops, dual solvers or Gram-route products, so agreement between the two is
meaningful.  Two exceptions: :func:`adjoint_dot_test`, a probe that pits an
operator's forward products against its own transposed ones, and
:func:`kept_vector_primal`, the primal route's solve as it was with whole
transposed products, which pins the streamed route to it.
"""

import numpy as np

from dualgn import cg_solve, loss_grad, loss_hvp, softmax
from dualgn.cgsolver import cg_workspace

# Feasibility slack when deciding whether mu = y + alpha lies on the simplex.
SIMPLEX_TOL = 1e-9


class PlainOperator:
    """The plain products of a model operator, with its product protocol.

    Takes every forward product from the parameter tangent alone, ignoring a
    cotangent, so no layer takes the Gram route; the stand-in for ``J^T V``
    is the :meth:`vjp` result itself, with no ``terms``.  :meth:`vjp` streams
    its blocks to a ``consume`` as the model operator's does.  Counts calls as
    the model operator does, one per product, plain, streamed or compact.
    """

    def __init__(self, opr):
        self.lin, self.dims, self.outputs = opr.lin, opr.dims, opr.outputs
        self.jvp_calls = self.vjp_calls = 0

    def jvp(self, u, cotangent=None):
        self.jvp_calls += 1
        return self.lin.jvp(u)

    def vjp(self, V, consume=None):
        self.vjp_calls += 1
        return self.lin.vjp(V, consume)

    def compact_vjp(self, V):
        v = self.vjp(V)
        return v, float(np.vdot(v, v)), None

    def compact_jvp(self, s, terms):
        return self.jvp(s)

    def compact_expand(self, s):
        return s

    def compact_dot(self, a, b, terms):
        return float(np.vdot(a, b))


def kept_vector_primal(opr, loss, f, spec):
    """The primal direction from whole transposed products: ``(d, report)``.

    The algorithm of :func:`dualgn.primal_gn_direction` before it streamed
    its transposed products: ``c = J^T g`` is made whole and kept for ``<d,
    c>``, and each product returns ``Q d`` whole, from ``opr.vjp`` of the
    shadow ``Y = H J d + (m/gamma) D`` while the kernel keeps it, else of
    ``H J d`` with ``(m/gamma) d`` added, for ``cg_solve`` to subtract.  Its
    report's ``inner_product_with_rhs / m`` is the descent inner product.
    """
    p, m, _ = opr.dims
    g = loss_grad(loss, f)
    soft = softmax(f) if loss.kind == "logistic" else None
    shift = m / spec.gamma

    def product(d, D):
        jd = opr.jvp(d, cotangent=D)
        hjd = loss_hvp(loss, f, jd, soft)
        if D is not None:
            ys = hjd + shift * D
            return float(np.vdot(jd, ys)), opr.vjp(ys), ys
        qd = opr.vjp(hjd)
        qd += shift * d
        return float(np.vdot(jd, hjd)) + shift * float(np.vdot(d, d)), qd, None

    c = opr.vjp(g)
    return cg_solve(product, c, max_iter=spec.tau, tol=spec.tol, shadow=g, work=cg_workspace((p,)))


def materialize_jacobian(model, w, X):
    """Dense (m*k, p) Jacobian, one forward product per basis vector."""
    p = model.n_params
    cols = []
    for j in range(p):
        e = np.zeros(p)
        e[j] = 1.0
        cols.append(model.jvp(w, X, e).ravel())
    return np.stack(cols, axis=1)


def fd_jacobian(model, w, X, eps=1e-6):
    """Dense Jacobian by central differences on the forward map."""
    p = model.n_params
    cols = []
    for j in range(p):
        e = np.zeros(p)
        e[j] = eps
        fp = model.forward(w + e, X)
        fm = model.forward(w - e, X)
        cols.append(((fp - fm) / (2 * eps)).ravel())
    return np.stack(cols, axis=1)


def adjoint_dot_test(opr, seed=0):
    """Check <J u, V> == <u, J* V> on random probes.

    Draws 20 Gaussian pairs (u, V) from a Philox stream keyed on ``seed``
    and returns the worst relative discrepancy
    ``|<Ju, V> - <u, J*V>| / (1 + |<Ju, V>|)``.  Deterministic per seed.
    """
    p, m, k = opr.dims
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(p)
        V = rng.standard_normal((m, k))
        lhs = float(np.vdot(opr.jvp(u), V))
        rhs = float(np.vdot(u, opr.vjp(V)))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def finite_diff_jvp(model, params, batch, u):
    """Central-difference estimate ``(f(w + eps u) - f(w - eps u)) / (2 eps)``
    with the step ``eps = 1e-6``.

    Independent of the analytic jvp rule; used to cross-check it.
    """
    params = np.asarray(params, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    hi = model.forward(params + 1e-6 * u, batch)
    lo = model.forward(params - 1e-6 * u, batch)
    return (hi - lo) / 2e-6


def logsumexp(f):
    """Row-wise log(sum(exp)), shifted by the max for stability."""
    f = np.asarray(f, dtype=np.float64)
    fmax = np.maximum.reduce(f, axis=-1, keepdims=True)
    return (fmax + np.log(np.add.reduce(np.exp(f - fmax), axis=-1, keepdims=True)))[..., 0]


def softmax_rows(F):
    Z = F - F.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def dense_loss_pieces(kind, F, Y):
    """Gradient and block-diagonal Hessian of the summed per-sample loss."""
    m, k = F.shape
    if kind == "squared":
        return F - Y, np.eye(m * k)
    S = softmax_rows(F)
    H = np.zeros((m * k, m * k))
    for i in range(m):
        s = S[i]
        H[i * k : (i + 1) * k, i * k : (i + 1) * k] = np.diag(s) - np.outer(s, s)
    return S - Y, H


def dense_direction(model, w, X, Y, kind, gamma):
    """Exact subproblem direction via dense damped normal equations."""
    J = materialize_jacobian(model, w, X)
    F = model.forward(w, X)
    m = X.shape[0]
    g, H = dense_loss_pieces(kind, F, Y)
    A = J.T @ H @ J + (m / gamma) * np.eye(J.shape[1])
    return np.linalg.solve(A, J.T @ g.ravel())


def dense_kkt_zero_sum(Q, c, m, k):
    """min 0.5 x'Qx - x'c s.t. per-sample zero row sums, via dense KKT."""
    C = np.zeros((m, m * k))
    for i in range(m):
        C[i, i * k : (i + 1) * k] = 1.0
    K = np.block([[Q, C.T], [C, np.zeros((m, m))]])
    rhs = np.concatenate([np.asarray(c).ravel(), np.zeros(m)])
    sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    return sol[: m * k].reshape(m, k)


def ista_l1(A, y, lam, iters=10**4):
    """Proximal gradient on (1/(2m))||A w - y||^2 + lam ||w||_1, step 1/L."""
    m = A.shape[0]
    L = float(np.linalg.eigvalsh(A.T @ A / m).max())
    step = 1.0 / L
    w = np.zeros(A.shape[1])
    for _ in range(iters):
        grad = A.T @ (A @ w - y) / m
        z = w - step * grad
        w = np.sign(z) * np.maximum(np.abs(z) - step * lam, 0.0)
    return w


def gd_softmax_accuracy(X, Y, steps=2000, lr=0.5):
    """Plain full-batch softmax-regression gradient descent; returns accuracy."""
    n = X.shape[0]
    W = np.zeros((Y.shape[1], X.shape[1]))
    for _ in range(steps):
        S = softmax_rows(X @ W.T)
        W -= lr * (S - Y).T @ X / n
    pred = np.argmax(X @ W.T, axis=1)
    return float(np.mean(pred == np.argmax(Y, axis=1)))


def sgd_trajectory(w0, grad_fn, eta, steps):
    """Textbook SGD recursion, direction recomputed at each iterate."""
    w = np.array(w0, dtype=float)
    out = []
    for _ in range(steps):
        w = w - eta * grad_fn(w)
        out.append(w.copy())
    return out


def momentum_trajectory(w0, grad_fn, eta, steps, mu=0.9):
    w = np.array(w0, dtype=float)
    v = np.zeros_like(w)
    out = []
    for _ in range(steps):
        v = mu * v + grad_fn(w)
        w = w - eta * v
        out.append(w.copy())
    return out


def adam_trajectory(w0, grad_fn, eta, steps, b1=0.9, b2=0.999, eps=1e-8):
    w = np.array(w0, dtype=float)
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    out = []
    for t in range(1, steps + 1):
        d = grad_fn(w)
        m = b1 * m + (1 - b1) * d
        v = b2 * v + (1 - b2) * d * d
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        w = w - eta * mhat / (np.sqrt(vhat) + eps)
        out.append(w.copy())
    return out


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


def assembled(pieces, p):
    """The blocks of ``pieces``, ``(lo, hi, block)`` as
    :meth:`dualgn.directions.DirectionResult.pieces` yields them, copied into
    one vector, after checking that they cover ``[0, p)`` once, in order."""
    out = np.full(p, np.nan)
    pos = 0
    for lo, hi, blk in pieces:
        assert lo == pos < hi and blk.shape == (hi - lo,)
        out[lo:hi] = blk
        pos = hi
    assert pos == p
    return out
