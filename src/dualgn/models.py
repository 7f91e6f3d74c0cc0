"""Differentiable prediction models with hand-written JVP/VJP rules.

Two model families are provided:

* ``LinearModel`` -- multiclass linear predictor ``f(x) = W x`` with the
  weight matrix stored flat.
* ``MLPModel`` -- fully connected network with SiLU activations between
  affine layers and an affine output layer.

Both expose the same interface: ``n_params``, ``init_params(seed)``,
``forward(params, X)``, ``forward_trace(params, X)`` (outputs and a trace),
and Jacobian products ``jvp`` / ``vjp`` with respect to the flat parameter
vector, which reuse that trace.  All arithmetic is float64.

A tangent that is itself a transposed product, ``u = vjp(V)``, can be pushed
forward from ``V`` instead (``jvp(..., cotangent=V)``).  A layer with input
``Z`` (m x fan_in) and backpropagated cotangent ``G`` has parameter tangent
``dW = G^T Z``, ``db = G^T 1``, so its forward term ``Z dW^T + 1 db^T`` is
``K G`` with the m x m Gram matrix ``K = Z Z^T + 1 1^T``: ``m^2 out``
multiply-adds in place of ``m fan_in out``.  Layers with ``m < fan_in`` take
that route, where ``K`` is also smaller than the layer input the trace already
holds; the others keep the plain product.

Parameter flattening convention: layer by layer, each layer's weight matrix
(row-major) followed by its bias vector.  The linear model has no bias.
"""

import numpy as np

__all__ = [
    "LinearModel",
    "MLPModel",
    "make_model",
    "sigmoid",
]


def sigmoid(z):
    """Numerically stable logistic sigmoid, elementwise; ``exp`` sees only ``-|z|``."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _gram(grams, i, Z, bias):
    """Layer ``i``'s Gram matrix ``Z Z^T`` (plus ``1 1^T`` with a bias), cached in ``grams``."""
    if i not in grams:
        grams[i] = Z @ Z.T + 1.0 if bias else Z @ Z.T
    return grams[i]


def _cotangents(layers, slopes, V, lowest=0):
    """Yield ``(i, G_i)``, the cotangent at layer ``i``'s output, from the top down to ``lowest``."""
    G = np.asarray(V, dtype=np.float64)
    for i in range(len(layers) - 1, lowest - 1, -1):
        yield i, G
        if i > lowest:
            G = (G @ layers[i][0]) * slopes[i - 1]


def _param_rng(seed):
    # Philox is counter based, so the stream is reproducible across platforms.
    return np.random.Generator(np.random.Philox(key=seed))


class LinearModel:
    """Multiclass linear model ``f(x) = W x`` with ``W`` of shape (k, d)."""

    def __init__(self, in_dim, out_dim):
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"model dims must be positive, got ({in_dim}, {out_dim})")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.n_params = self.out_dim * self.in_dim

    def init_params(self, seed=0):
        """Uniform(-a, a) init with ``a = 1/sqrt(fan_in)``, seeded."""
        a = 1.0 / np.sqrt(self.in_dim)
        return _param_rng(seed).uniform(-a, a, size=self.n_params)

    def _weights(self, params):
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.n_params,):
            raise ValueError(
                f"expected flat parameter vector of length {self.n_params}, "
                f"got shape {params.shape}"
            )
        return params.reshape(self.out_dim, self.in_dim)

    def forward(self, params, X):
        out, _ = self.forward_trace(params, X)
        return out

    def forward_trace(self, params, X):
        """Forward pass; the model is linear, so the trace is ``None``."""
        return np.asarray(X, dtype=np.float64) @ self._weights(params).T, None

    def jvp(self, params, X, u, trace=None, cotangent=None, grams=None):
        """Directional derivative of ``forward`` along the parameter tangent ``u``.

        With ``cotangent`` ``V`` such that ``u = vjp(params, X, V)`` and fewer
        samples than inputs, this is ``(X X^T) V``; ``grams`` caches ``X X^T``
        under key 0 across calls.
        """
        U = self._weights(u)
        X = np.asarray(X, dtype=np.float64)
        if cotangent is None or X.shape[0] >= self.in_dim:
            return X @ U.T
        grams = {} if grams is None else grams
        return _gram(grams, 0, X, bias=False) @ np.asarray(cotangent, dtype=np.float64)

    def vjp(self, params, X, V, trace=None):
        """Adjoint product: maps an output cotangent block (m, k) to parameter space."""
        V = np.asarray(V, dtype=np.float64)
        return (V.T @ np.asarray(X, dtype=np.float64)).ravel()


class MLPModel:
    """Fully connected network, SiLU between layers, affine output layer.

    Parameters
    ----------
    dims : sequence of int
        Layer widths including input and output, e.g. ``[2, 16, 3]``.
    """

    def __init__(self, dims):
        dims = [int(d) for d in dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"need at least [in, out] positive dims, got {dims}")
        self.dims = dims
        self.in_dim = dims[0]
        self.out_dim = dims[-1]
        self._shapes = [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
        self.n_params = sum(o * i + o for o, i in self._shapes)

    def init_params(self, seed=0):
        """Uniform(-a, a) init per layer with ``a = 1/sqrt(fan_in)``, seeded."""
        rng = _param_rng(seed)
        chunks = []
        for out, fan_in in self._shapes:
            a = 1.0 / np.sqrt(fan_in)
            chunks.append(rng.uniform(-a, a, size=out * fan_in))
            chunks.append(rng.uniform(-a, a, size=out))
        return np.concatenate(chunks)

    def _unpack(self, params):
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.n_params,):
            raise ValueError(
                f"expected flat parameter vector of length {self.n_params}, "
                f"got shape {params.shape}"
            )
        layers = []
        pos = 0
        for out, fan_in in self._shapes:
            W = params[pos : pos + out * fan_in].reshape(out, fan_in)
            pos += out * fan_in
            b = params[pos : pos + out]
            pos += out
            layers.append((W, b))
        return layers

    def forward(self, params, X):
        out, _ = self.forward_trace(params, X)
        return out

    def forward_trace(self, params, X):
        """Forward pass returning the output and the layer trace used by jvp/vjp.

        The trace stores, per layer, the layer input and (for hidden layers)
        the SiLU derivative at the pre-activation, so repeated Jacobian
        products at a fixed point redo neither the forward pass nor the sigmoid.
        """
        layers = self._unpack(params)
        Z = np.asarray(X, dtype=np.float64)
        inputs = []
        slopes = []
        for i, (W, b) in enumerate(layers):
            inputs.append(Z)
            A = Z @ W.T + b
            if i < len(layers) - 1:
                s = sigmoid(A)
                slopes.append(s * (1.0 + A * (1.0 - s)))
                Z = A * s
            else:
                Z = A
        return Z, (inputs, slopes)

    def jvp(self, params, X, u, trace=None, cotangent=None, grams=None):
        """Directional derivative of ``forward`` along the parameter tangent ``u``.

        With ``cotangent`` ``V`` such that ``u = vjp(params, X, V)``, layers
        with more inputs than samples take their parameter term as ``K G``
        (see the module docstring); ``grams`` caches each ``K`` by layer
        index across calls at one trace.
        """
        layers = self._unpack(params)
        du = self._unpack(u)
        if trace is None:
            _, trace = self.forward_trace(params, X)
        inputs, slopes = trace
        m = inputs[0].shape[0]
        gram = [cotangent is not None and m < W.shape[1] for W, _ in layers]
        if any(gram):
            grams = {} if grams is None else grams
            cots = dict(_cotangents(layers, slopes, cotangent, gram.index(True)))
        for i, ((W, _), (dW, db)) in enumerate(zip(layers, du)):
            # The input tangent is zero, so the first layer skips dZ @ W.T.
            if gram[i]:
                KG = _gram(grams, i, inputs[i], bias=True) @ cots[i]
                dA = KG if i == 0 else dZ @ W.T + KG
            else:
                dA = inputs[i] @ dW.T + db if i == 0 else dZ @ W.T + inputs[i] @ dW.T + db
            dZ = slopes[i] * dA if i < len(slopes) else dA
        return dZ

    def vjp(self, params, X, V, trace=None):
        layers = self._unpack(params)
        if trace is None:
            _, trace = self.forward_trace(params, X)
        inputs, slopes = trace
        out = np.empty(self.n_params)
        grads = self._unpack(out)
        for i, G in _cotangents(layers, slopes, V):
            dW, db = grads[i]
            np.matmul(G.T, inputs[i], out=dW)
            G.sum(axis=0, out=db)
        return out


def make_model(name, in_dim, out_dim):
    """Build a model from a CLI-style name: ``linear`` or ``mlp:<h1,h2,...>``."""
    if name == "linear":
        return LinearModel(in_dim, out_dim)
    if name.startswith("mlp:"):
        spec = name[len("mlp:") :]
        try:
            hidden = [int(tok) for tok in spec.split(",") if tok]
        except ValueError:
            raise ValueError(f"bad mlp hidden dims {spec!r}; expected e.g. mlp:16,16")
        if not hidden:
            raise ValueError("mlp model needs at least one hidden width, e.g. mlp:16")
        return MLPModel([in_dim] + hidden + [out_dim])
    raise ValueError(f"unknown model {name!r}; expected 'linear' or 'mlp:<dims>'")
