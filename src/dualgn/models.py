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
    """Numerically stable logistic sigmoid, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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

    @property
    def n_params(self):
        return self.out_dim * self.in_dim

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

    def jvp(self, params, X, u, trace=None):
        """Directional derivative of ``forward`` along the parameter tangent ``u``."""
        U = self._weights(u)
        return np.asarray(X, dtype=np.float64) @ U.T

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

    @property
    def n_params(self):
        return sum(o * i + o for o, i in self._shapes)

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

    def jvp(self, params, X, u, trace=None):
        layers = self._unpack(params)
        du = self._unpack(u)
        if trace is None:
            _, trace = self.forward_trace(params, X)
        inputs, slopes = trace
        dZ = np.zeros_like(inputs[0])
        for i, ((W, _), (dW, db)) in enumerate(zip(layers, du)):
            Z = inputs[i]
            dA = dZ @ W.T + Z @ dW.T + db
            if i < len(layers) - 1:
                dZ = slopes[i] * dA
            else:
                dZ = dA
        return dZ

    def vjp(self, params, X, V, trace=None):
        layers = self._unpack(params)
        if trace is None:
            _, trace = self.forward_trace(params, X)
        inputs, slopes = trace
        G = np.asarray(V, dtype=np.float64)
        grads = [None] * len(layers)
        for i in range(len(layers) - 1, -1, -1):
            W, _ = layers[i]
            Z = inputs[i]
            grads[i] = (G.T @ Z, G.sum(axis=0))
            if i > 0:
                G = (G @ W) * slopes[i - 1]
        return np.concatenate([np.concatenate([dW.ravel(), db]) for dW, db in grads])


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
