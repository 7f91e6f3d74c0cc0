"""Differentiable prediction models with hand-written JVP/VJP rules.

One implementation, ``MLPModel``, covers both model kinds: a fully connected
network with SiLU activations between affine layers and an affine output
layer.  ``LinearModel`` is its single layer without a bias, the multiclass
linear predictor ``f(x) = W x``.

Each model exposes ``n_params``, ``init_params(seed)``, ``forward(params, X)``
(outputs only), ``forward_trace(params, X)`` (outputs and a trace), and
Jacobian products ``jvp`` / ``vjp`` with respect to the flat parameter vector,
which reuse that trace.  All arithmetic is float64.

The layer arithmetic runs in place, in the order of the textbook formulas, so
the results are theirs bit for bit.  A traced hidden layer allocates four
m x out arrays: the pre-activation ``A``, which becomes the layer's output
``A * s``; the sigmoid's ``exp(-|A|)`` and ``s``, which first holds the sign
test ``A >= 0``; and the slope ``s (1 + A (1 - s))``.  The trace keeps the
outputs and slopes, so later products never write into them; a
pushed-forward layer scales its own fresh ``dA`` and a backpropagated one its
own fresh ``G``.  An untraced hidden layer (``forward``) allocates the first
three and no slope: it drops its input once its pre-activation exists, and
``exp(-|A|)`` and ``s`` once its output does.  So a plain forward pass holds
at most three m x out arrays at a time, where the traced one ends up holding
two per hidden layer.

A tangent that is itself a transposed product, ``u = vjp(V)``, can be pushed
forward from ``V`` instead (``jvp(..., cotangent=V)``).  A layer with input
``Z`` (m x fan_in) and backpropagated cotangent ``G`` has parameter tangent
``dW = G^T Z``, ``db = G^T 1``, so its forward term ``Z dW^T + 1 db^T`` is
``K G`` with the m x m Gram matrix ``K = Z Z^T + 1 1^T`` (``Z Z^T`` without a
bias): ``m^2 out`` multiply-adds in place of ``m fan_in out``.  Layers with
``m < fan_in`` take that route, where ``K`` is also smaller than the layer
input the trace already holds; the others keep the plain product.

The same split gives a compact stand-in for ``J^T V`` (``compact_vjp``): a
flat array holding ``G`` on Gram layers and ``(dW, db)`` on the others, never
longer than ``n_params`` and linear in ``V``.  One backward pass yields it
together with ``||J^T V||^2`` (``<G, K G>`` on Gram layers) and the products
``K G``, from which ``compact_jvp`` pushes ``J J^T V`` forward;
``compact_expand`` assembles a stand-in, or a linear combination of
stand-ins, into the parameter vector ``J^T V``, and ``compact_dot`` takes
``<J^T A, J^T V>`` from two stand-ins and the ``K G`` of ``V``.

Parameter flattening convention: layer by layer, each layer's weight matrix
(row-major) followed by its bias vector.  The linear model has no bias.
"""

import numpy as np

__all__ = ["LinearModel", "MLPModel", "make_model"]


def sigmoid(z):
    """Numerically stable logistic sigmoid, elementwise; ``exp`` sees only ``-|z|``.

    With ``e = exp(-|z|)`` it is ``1 / (1 + e)`` for ``z >= 0`` and
    ``e / (1 + e)`` below.  The numerator is ``max(z >= 0, e)`` with the
    comparison as 1.0 or 0.0: that is 1 or ``e``, since ``0 <= e <= 1``, and
    NaN where ``z`` is NaN.  A branch-free maximum is a SIMD pass, where
    ``np.where`` makes the same select as a data-dependent choice per element,
    at several times the cost of ``exp`` over the whole block.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.abs(z, out=np.empty_like(z))  # an array even for a 0-d z, so it is updated in place
    np.negative(e, out=e)
    np.exp(e, out=e)
    s = np.greater_equal(z, 0.0, out=np.empty_like(z))
    np.maximum(s, e, out=s)
    e += 1.0
    s /= e
    return s


def _silu(A, slope):
    """Overwrite the pre-activation ``A`` with the SiLU output ``A * s``, ``s = sigmoid(A)``.

    Returns the slope ``s (1 + A (1 - s))`` at the pre-activation if ``slope``
    is set, else None.
    """
    s = sigmoid(A)
    t = None
    if slope:
        t = 1.0 - s  # in place, in the textbook order
        t *= A
        t += 1.0
        t *= s
    A *= s
    return t


def _gram(grams, i, Z, bias):
    """Layer ``i``'s Gram matrix ``Z Z^T`` (plus ``1 1^T`` with a bias), cached in ``grams``."""
    if i not in grams:
        K = Z @ Z.T
        if bias:
            K += 1.0
        grams[i] = K
    return grams[i]


def _param_block(G, Z, dW, db):
    """Write a layer's share ``G^T Z`` (and ``G^T 1``) of ``J^T V`` into ``dW`` (and ``db``)."""
    np.matmul(G.T, Z, out=dW)
    if db is not None:
        G.sum(axis=0, out=db)


def _push(layers, inputs, slopes, gram_terms, tangent):
    """Push a parameter tangent forward to the output block.

    Layer ``i`` takes its parameter term from ``gram_terms[i]`` (a ``K G``
    product) if present, else from its ``(dW, db)`` in ``tangent[i]``.
    """
    for i, (W, _) in enumerate(layers):
        if i in gram_terms:
            term, db = gram_terms[i], None
        else:
            dW, db = tangent[i]
            term = inputs[i] @ dW.T
        # The input tangent is zero, so the first layer skips dZ @ W.T.  The
        # slope scales dA in place, so the first layer copies a K G it was
        # handed: the caller keeps its terms.  Keep this order of additions:
        # regrouping it changes the round-off.
        if i:
            dA = dZ @ W.T
            dA += term
        else:
            dA = term.copy() if i in gram_terms and slopes else term
        if db is not None:
            dA += db
        if i < len(slopes):
            dA *= slopes[i]
        dZ = dA
    return dZ


def _param_rng(seed):
    # Philox is counter based, so the stream is reproducible across platforms.
    return np.random.Generator(np.random.Philox(key=seed))


class MLPModel:
    """Fully connected network, SiLU between layers, affine output layer.

    Parameters
    ----------
    dims : sequence of int
        Layer widths including input and output, e.g. ``[2, 16, 3]``.
    """

    bias = True  # False only in LinearModel, the single layer without a bias

    def __init__(self, dims):
        dims = [int(d) for d in dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"need at least [in, out] positive dims, got {dims}")
        self.dims = dims
        self.in_dim = dims[0]
        self.out_dim = dims[-1]
        self._shapes = [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
        self.n_params = sum(o * (i + self.bias) for o, i in self._shapes)
        self._layouts = {None: ((False,) * len(self._shapes), self.n_params)}

    def init_params(self, seed=0):
        """Uniform(-a, a) init per layer with ``a = 1/sqrt(fan_in)``, seeded."""
        rng = _param_rng(seed)
        chunks = []
        for out, fan_in in self._shapes:
            a = 1.0 / np.sqrt(fan_in)
            chunks.append(rng.uniform(-a, a, size=out * fan_in))
            if self.bias:
                chunks.append(rng.uniform(-a, a, size=out))
        return np.concatenate(chunks)

    def _unpack(self, flat, m=None):
        """Per-layer views ``(W, b)`` into a flat parameter vector.

        Given a batch size ``m``, ``flat`` is a stand-in for ``J^T V`` instead
        (see ``compact_vjp``), and each layer with ``m < fan_in`` is its
        ``m x out`` cotangent ``G`` in place of the pair.
        """
        flat = np.asarray(flat, dtype=np.float64)
        route, size = self._layout(m)
        if flat.shape != (size,):
            what = "parameter vector" if m is None else "stand-in"
            raise ValueError(f"expected flat {what} of length {size}, got shape {flat.shape}")
        layers = []
        pos = 0
        for (out, fan_in), gram in zip(self._shapes, route):
            if gram:
                layers.append(flat[pos : pos + m * out].reshape(m, out))
                pos += m * out
                continue
            W = flat[pos : pos + out * fan_in].reshape(out, fan_in)
            pos += out * fan_in
            b = flat[pos : pos + out] if self.bias else None
            pos += out * self.bias
            layers.append((W, b))
        return layers

    def _layout(self, m):
        """``(route, size)`` of a stand-in for ``J^T V`` at batch size ``m``.

        ``route`` says per layer whether it takes the Gram route, ``m < fan_in``:
        the one place that rule is written.  ``size`` is the stand-in's length
        (see ``compact_vjp``).  Both are kept per batch size, since products
        ask for them on every call; ``m=None`` is the parameter vector's layout.
        """
        if m not in self._layouts:
            route = tuple(m < fan_in for _, fan_in in self._shapes)
            size = sum(
                m * out if gram else out * (fan_in + self.bias)
                for (out, fan_in), gram in zip(self._shapes, route)
            )
            self._layouts[m] = route, size
        return self._layouts[m]

    def forward(self, params, X):
        """The model outputs (m x out) at ``params`` for the rows of ``X``.

        The untraced pass of ``forward_trace``: the same outputs bit for bit,
        without the SiLU derivatives and without holding on to layer inputs.
        """
        out, _ = self.forward_trace(params, X, slopes=False)
        return out

    def forward_trace(self, params, X, *, slopes=True):
        """Forward pass returning the output and the layer trace used by jvp/vjp.

        The trace stores, per layer, the layer input and (for hidden layers)
        the SiLU derivative at the pre-activation, so repeated Jacobian
        products at a fixed point redo neither the forward pass nor the sigmoid.
        With ``slopes=False`` the pass skips the derivatives, keeps no layer
        inputs and returns None for the trace.
        """
        layers = self._unpack(params)
        Z = np.asarray(X, dtype=np.float64)
        inputs = []
        derivs = []
        for i, (W, b) in enumerate(layers):
            if slopes:
                inputs.append(Z)
            Z = Z @ W.T  # the pre-activation; untraced, the layer input is freed here
            if b is not None:
                Z += b
            if i < len(layers) - 1:
                derivs.append(_silu(Z, slopes))
        return Z, (inputs, derivs) if slopes else None

    def _cotangents(self, layers, trace, V, grams=None, lowest=0):
        """Yield ``(i, G_i, K_i G_i)`` from the top layer down to ``lowest``.

        ``G_i`` is the cotangent at layer ``i``'s output.  The Gram product is
        None without ``grams``, a cache of each ``K`` by layer index, and on
        layers with ``m >= fan_in``.
        """
        inputs, slopes = trace
        route, _ = self._layout(inputs[0].shape[0])
        G = np.asarray(V, dtype=np.float64)
        for i in range(len(layers) - 1, lowest - 1, -1):
            gram = grams is not None and route[i]
            yield i, G, _gram(grams, i, inputs[i], self.bias) @ G if gram else None
            if i > lowest:
                G = G @ layers[i][0]
                G *= slopes[i - 1]

    def jvp(self, params, X, u, trace=None, cotangent=None, grams=None):
        """Directional derivative of ``forward`` along the parameter tangent ``u``.

        With ``cotangent`` ``V`` such that ``u = vjp(params, X, V)``, layers
        with more inputs than samples take their parameter term as ``K G``
        (see the module docstring); ``grams`` caches each ``K`` by layer
        index across calls at one trace.
        """
        layers = self._unpack(params)
        if trace is None:
            _, trace = self.forward_trace(params, X)
        inputs, slopes = trace
        m = inputs[0].shape[0]
        gram = [cotangent is not None and g for g in self._layout(m)[0]]
        terms = {}
        if any(gram):
            grams = {} if grams is None else grams
            rows = self._cotangents(layers, trace, cotangent, grams, gram.index(True))
            terms = {i: KG for i, _, KG in rows if KG is not None}
        return _push(layers, inputs, slopes, terms, self._unpack(u))

    def vjp(self, params, X, V, trace=None):
        layers = self._unpack(params)
        if trace is None:
            _, trace = self.forward_trace(params, X)
        inputs, _ = trace
        out = np.empty(self.n_params)
        grads = self._unpack(out)
        for i, G, _ in self._cotangents(layers, trace, V):
            _param_block(G, inputs[i], *grads[i])
        return out

    def compact_size(self, m):
        """Length of the stand-in for ``J^T V`` at batch size ``m`` (see ``compact_vjp``)."""
        return self._layout(m)[1]

    def compact_vjp(self, params, V, trace, grams):
        """Backpropagate ``V`` to a stand-in ``s`` for ``J^T V``.

        Returns ``(s, ||J^T V||^2, terms)``.  ``s`` is a fresh flat array of
        length ``compact_size(m)``: the cotangent ``G`` at the output of each
        layer with ``m < fan_in``, and the layer's ``(dW, db)`` share of
        ``J^T V`` on the others.  ``terms`` maps each Gram layer to ``K G``,
        which gives that layer's share of the squared norm, ``<G, K G>``, and
        which ``compact_jvp`` and ``compact_dot`` reuse; ``grams`` caches each
        ``K``.
        """
        inputs, _ = trace
        m = inputs[0].shape[0]
        s = np.empty(self.compact_size(m))
        views = self._unpack(s, m)
        terms = {}
        sq = 0.0
        for i, G, KG in self._cotangents(self._unpack(params), trace, V, grams):
            if KG is None:
                dW, db = views[i]
                _param_block(G, inputs[i], dW, db)
                sq += float(np.vdot(dW, dW)) + (0.0 if db is None else float(np.vdot(db, db)))
            else:
                views[i][...] = G
                terms[i] = KG
                sq += float(np.vdot(G, KG))
        return s, sq, terms

    def compact_jvp(self, params, s, terms, trace):
        """``J J^T V`` from the stand-in ``s`` and ``terms`` of ``compact_vjp(V)``.

        ``s`` may be any stand-in whose Gram layers' ``K G`` are ``terms``.
        """
        inputs, slopes = trace
        views = self._unpack(s, inputs[0].shape[0])
        return _push(self._unpack(params), inputs, slopes, terms, views)

    def compact_expand(self, params, s, trace):
        """The parameter vector ``J^T V`` that the stand-in ``s`` stands for."""
        inputs, _ = trace
        m = inputs[0].shape[0]
        if not any(self._layout(m)[0]):  # s is laid out as J^T V and is J^T V
            return s
        views = self._unpack(s, m)
        out = np.empty(self.n_params)
        for piece, (dW, db), Z in zip(views, self._unpack(out), inputs):
            if isinstance(piece, tuple):
                dW[...] = piece[0]
                if db is not None:
                    db[...] = piece[1]
            else:
                _param_block(piece, Z, dW, db)
        return out

    def compact_dot(self, params, a, b, terms, trace):
        """``<J^T A, J^T B>`` from the stand-ins ``a`` and ``b`` of ``J^T A`` and ``J^T B``.

        ``terms`` are the Gram products ``K G`` of ``b``, as ``compact_vjp(B)``
        returns them, so a Gram layer's share is ``<G_a, K G_b>``.
        """
        m = trace[0][0].shape[0]
        if not any(self._layout(m)[0]):  # both are laid out as J^T A and J^T B
            return float(np.vdot(a, b))
        total = 0.0
        for i, (pa, pb) in enumerate(zip(self._unpack(a, m), self._unpack(b, m))):
            if not isinstance(pa, tuple):
                total += float(np.vdot(pa, terms[i]))
                continue
            total += float(np.vdot(pa[0], pb[0]))
            if pa[1] is not None:
                total += float(np.vdot(pa[1], pb[1]))
        return total


class LinearModel(MLPModel):
    """Multiclass linear model ``f(x) = W x``, ``W`` of shape (k, d): one layer, no bias."""

    bias = False

    def __init__(self, in_dim, out_dim):
        super().__init__([in_dim, out_dim])


def make_model(name, in_dim, out_dim):
    """Build a model from a CLI-style name: ``linear`` or ``mlp:<h1,h2,...>``."""
    if name == "linear":
        return LinearModel(in_dim, out_dim)
    if name.startswith("mlp:"):
        widths = name[len("mlp:") :].split(",")
        if not all(tok.strip().isdecimal() and int(tok) > 0 for tok in widths):
            raise ValueError(
                f"bad mlp hidden dims in {name!r}; expected positive widths, e.g. mlp:16,16"
            )
        return MLPModel([in_dim] + [int(tok) for tok in widths] + [out_dim])
    raise ValueError(f"unknown model {name!r}; expected 'linear' or 'mlp:<dims>'")
