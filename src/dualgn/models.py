"""Differentiable prediction models with hand-written JVP/VJP rules.

One implementation, ``MLPModel``, covers both model kinds: a fully connected
network with SiLU activations between affine layers and an affine output
layer.  ``LinearModel`` is its single layer without a bias, the multiclass
linear predictor ``f(x) = W x``.

Each model exposes ``n_params``, ``init_params(seed)``, ``forward(params, X)``
(outputs only), ``forward_trace(params, X)`` (outputs and a
:class:`Linearization`), and Jacobian products ``jvp(lin, u)`` /
``vjp(lin, V)`` with respect to the flat parameter vector, taken at a
linearization ``lin`` of ``forward_trace``.  So a product never runs a
forward pass: the step's one traced pass serves all of them.  All arithmetic
is float64.

The linearization is the per-step state of every product at one point and
batch: the per-layer views ``(W, b)`` into the parameter vector, the trace of
layer inputs and SiLU slopes, the batch size's Gram route (below) with the
slice tables of a stand-in and a parameter vector, and the Gram matrices
built so far.  The route and slice tables depend only on the batch size, so
the model keeps them per batch size (``_layout``); everything else belongs to
the linearization, which the caller holds for as long as it makes products,
a :class:`~dualgn.linop.JacobianOperator` for one training step.  So no
product re-slices the parameters or re-derives a layout, and the model keeps
nothing of a step.

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

A tangent that is itself a transposed product, ``u = vjp(lin, V)``, can be
pushed forward from ``V`` instead (``jvp(lin, u, cotangent=V)``).  A layer
with input ``Z`` (m x fan_in) and backpropagated cotangent ``G`` has
parameter tangent ``dW = G^T Z``, ``db = G^T 1``, so its forward term
``Z dW^T + 1 db^T`` is
``K G`` with the m x m Gram matrix ``K = Z Z^T + 1 1^T`` (``Z Z^T`` without a
bias): ``m^2 out`` multiply-adds in place of ``m fan_in out``.  Layers with
``m < fan_in`` take that route, where ``K`` is also smaller than the layer
input the trace already holds; the others keep the plain product.

The same split gives a compact stand-in for ``J^T V``
(:meth:`Linearization.compact_vjp`): a
flat array holding ``G`` on Gram layers and ``(dW, db)`` on the others, never
longer than ``n_params`` and linear in ``V``.  One backward pass yields it
together with ``||J^T V||^2`` (``<G, K G>`` on Gram layers) and the products
``K G``, from which ``compact_jvp`` pushes ``J J^T V`` forward;
``compact_pieces`` expands a stand-in, or a linear combination of
stand-ins, into the parameter vector ``J^T V`` a bounded block at a time,
``compact_expand`` assembles those blocks into one vector, and
``compact_dot`` takes ``<J^T A, J^T V>`` from two stand-ins and the ``K G``
of ``V``.  A whole ``vjp`` is that block stream with the cotangent ``G`` as
every layer's piece, from one backward pass: assembled into one vector as
``compact_expand`` assembles its own, or handed out a block at a time, so a
caller that reduces it a block at a time holds no parameter vector of it.

Parameter flattening convention: layer by layer, each layer's weight matrix
(row-major) followed by its bias vector.  The linear model has no bias.
"""

import numpy as np

from .cgsolver import BLOCK

__all__ = ["LinearModel", "MLPModel", "make_model"]

# A layer's parameter block is made and expanded in chunks of at most this
# many float64 (1 MiB), so an update that streams an expansion holds one
# chunk of it.  Each chunk's product packs the whole layer input again, so
# fewer, larger chunks cost less: on a 2-core Xeon with one BLAS thread the
# mlp784 block (64 x 256)^T (64 x 784) took 400-402 us whole, 410-414 us in
# two chunks of 128 rows, 421-425 us in chunks of 167 and 89, and 442-459 us
# in chunks of 83 rows (a PIECE of 4 BLOCKs).
PIECE = 8 * BLOCK


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


def _rows(out, fan_in):
    """Rows per chunk of a layer's ``out x fan_in`` weight block.

    As few chunks as keep each within ``PIECE`` scalars (one row past that),
    all of one size but the last.
    """
    chunks = -(-out // max(1, PIECE // fan_in))
    return -(-out // chunks)


def _param_block(G, Z, dW, db):
    """Write a layer's share ``G^T Z`` (and ``G^T 1``) of ``J^T V`` into ``dW`` (and ``db``).

    ``G^T Z`` is made in chunks of :func:`_rows` rows.  A chunked product's
    bits depend on the chunk shape, so every product that forms a parameter
    block (``vjp``, ``compact_vjp`` and the expansion of a stand-in) comes
    through here on the same schedule, and they agree bit for bit.
    """
    if dW.size <= PIECE:  # one chunk
        np.matmul(G.T, Z, out=dW)
    else:
        rows = _rows(*dW.shape)
        for r in range(0, dW.shape[0], rows):
            np.matmul(G[:, r : r + rows].T, Z, out=dW[r : r + rows])
    if db is not None:
        np.add.reduce(G, axis=0, out=db)


def _views(flat, table):
    """Per-layer views into ``flat``, laid out by a slice table of ``MLPModel._layout``.

    A Gram layer's entry is its ``m x out`` block ``G``; another layer's is
    the pair ``(W, b)``, with ``b`` None without a bias.
    """
    return [
        flat[lo:mid].reshape(shape) if gram
        else (flat[lo:mid].reshape(shape), None if hi is None else flat[mid:hi])
        for gram, lo, mid, hi, shape in table
    ]


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


class Linearization:
    """A model linearized at one parameter point on one batch, and its products.

    ``MLPModel.forward_trace`` builds it in the forward pass.  It holds the
    per-layer views ``(W, b)`` into the parameter vector, the layer inputs
    ``inputs`` and SiLU slopes ``slopes``, the batch size's Gram route
    ``route`` with the slice tables of a stand-in and of a parameter vector,
    and ``grams``, the Gram matrices ``K`` built so far by layer index.  The
    products read all of it directly, so none re-derives a layout or
    re-slices the parameters; a :class:`~dualgn.linop.JacobianOperator`
    holds it for one step, and it is freed with the operator.
    """

    def __init__(self, model, layers, inputs, slopes):
        self.layers, self.inputs, self.slopes = layers, inputs, slopes
        self.bias = model.bias
        self.n_params = model.n_params
        self.params_table = model._layout(None)[2]
        self.route, self.size, self.table = model._layout(inputs[0].shape[0])
        self.grams = {}

    def _cotangents(self, V, gram=False, lowest=0):
        """Yield ``(i, G_i, K_i G_i)`` from the top layer down to ``lowest``.

        ``G_i`` is the cotangent at layer ``i``'s output.  The Gram product is
        None unless ``gram`` is set and layer ``i`` takes the Gram route.
        """
        layers, inputs, slopes, route = self.layers, self.inputs, self.slopes, self.route
        G = V
        for i in range(len(layers) - 1, lowest - 1, -1):
            yield i, G, _gram(self.grams, i, inputs[i], self.bias) @ G if gram and route[i] else None
            if i > lowest:
                G = G @ layers[i][0]
                G *= slopes[i - 1]

    def jvp(self, u, cotangent=None):
        """``J u`` for a parameter vector ``u``; see :meth:`MLPModel.jvp`."""
        terms = {}
        if cotangent is not None and True in self.route:
            rows = self._cotangents(cotangent, True, self.route.index(True))
            terms = {i: KG for i, _, KG in rows if KG is not None}
        return _push(self.layers, self.inputs, self.slopes, terms, _views(u, self.params_table))

    def vjp(self, V, consume=None):
        """``J^T V`` for an output block ``V``, as a fresh parameter vector.

        One backward pass yields the cotangent at every layer, and the
        product is the block stream of :meth:`_blocks` with every layer's
        cotangent as its piece: the blocks that :meth:`compact_pieces`
        hands out, on the same schedule and so with the same bits.  Without
        ``consume`` they are assembled into one vector by :meth:`_assemble`,
        as :meth:`compact_expand` assembles its own.  With ``consume`` the
        vector is not made: each block goes to ``consume(lo, hi, block)`` and
        the call returns None.
        """
        cotangents = [G for _, G, _ in self._cotangents(V)][::-1]
        if consume is None:
            return self._assemble((True,) * len(cotangents), cotangents)
        for lo, hi, blk in self._blocks((True,) * len(cotangents), cotangents):
            consume(lo, hi, blk)

    def compact_vjp(self, V):
        """Backpropagate ``V`` to a stand-in ``s`` for ``J^T V``.

        Returns ``(s, ||J^T V||^2, terms)``.  ``s`` is a fresh flat array of
        length ``size``: the cotangent ``G`` at the output of each layer with
        ``m < fan_in``, and the layer's ``(dW, db)`` share of ``J^T V`` on the
        others.  ``terms`` maps each Gram layer to ``K G``, which gives that
        layer's share of the squared norm, ``<G, K G>``, and which
        :meth:`compact_jvp` and :meth:`compact_dot` reuse.
        """
        s = np.empty(self.size)
        views = _views(s, self.table)
        terms = {}
        sq = 0.0
        for i, G, KG in self._cotangents(V, True):
            if KG is None:
                dW, db = views[i]
                _param_block(G, self.inputs[i], dW, db)
                sq += float(np.vdot(dW, dW)) + (0.0 if db is None else float(np.vdot(db, db)))
            else:
                views[i][...] = G
                terms[i] = KG
                sq += float(np.vdot(G, KG))
        return s, sq, terms

    def compact_jvp(self, s, terms):
        """``J J^T V`` from the stand-in ``s`` and ``terms`` of ``compact_vjp(V)``.

        ``s`` may be any stand-in whose Gram layers' ``K G`` are ``terms``.
        """
        return _push(self.layers, self.inputs, self.slopes, terms, _views(s, self.table))

    def compact_expand(self, s):
        """The parameter vector ``J^T V`` that the stand-in ``s`` stands for.

        Assembled by :meth:`_assemble` from the blocks of :meth:`compact_pieces`,
        as :meth:`vjp` assembles its own; with no Gram layer it is ``s``.
        """
        if True not in self.route:  # s is laid out as J^T V and is J^T V
            return s
        return self._assemble(self.route, _views(s, self.table))

    def compact_pieces(self, s):
        """Yield ``(lo, hi, block)``: ``J^T V`` on ``[lo, hi)`` for the stand-in ``s``.

        The blocks come in parameter order and cover it once: each layer's
        weights in the row chunks of :func:`_param_block`, then its bias.  A
        Gram layer's chunk is ``G^T Z`` and its bias ``G^T 1``; another
        layer's blocks are copied from ``s``.  Each is written into one
        scratch of at most ``PIECE`` scalars (a bias past that), which the
        next block reuses.  So the caller may overwrite a block until it asks
        for the next one, and ``s`` is left as it was.
        """
        return self._blocks(self.route, _views(s, self.table))

    def _assemble(self, route, pieces):
        """The fresh parameter vector that the blocks of :meth:`_blocks`
        cover, each made in its own slice of it, so none is copied."""
        out = np.empty(self.n_params)
        for _ in self._blocks(route, pieces, out):
            pass
        return out

    def _blocks(self, route, pieces, out=None):
        """The blocks of ``J^T V`` as :meth:`compact_pieces` hands them out,
        from per-layer ``pieces``: a cotangent ``G`` where ``route`` is set,
        else a ``(dW, db)`` to copy.  :meth:`vjp` sets ``route`` on every
        layer.  With ``out``, each block is made in its slice of ``out``
        instead of the scratch."""
        if out is None:
            shapes = [shape for *_, shape in self.params_table]
            scratch = np.empty(max(max(_rows(o, f) * f, o) for o, f in shapes))
        at = (lambda lo, hi: scratch[: hi - lo]) if out is None else (lambda lo, hi: out[lo:hi])
        pieces = zip(route, pieces, self.params_table, self.inputs)
        for gram, piece, (_, lo, mid, hi, (rows_out, fan_in)), Z in pieces:
            rows = _rows(rows_out, fan_in)
            for r in range(0, rows_out, rows):
                n = min(rows, rows_out - r)
                blk = at(lo + r * fan_in, lo + (r + n) * fan_in)
                if gram:
                    _param_block(piece[:, r : r + rows], Z, blk.reshape(n, fan_in), None)
                else:
                    blk.reshape(n, fan_in)[...] = piece[0][r : r + rows]
                yield lo + r * fan_in, lo + (r + n) * fan_in, blk
            if hi is not None:
                blk = at(mid, hi)
                if gram:
                    np.add.reduce(piece, axis=0, out=blk)
                else:
                    blk[...] = piece[1]
                yield mid, hi, blk

    def compact_dot(self, a, b, terms):
        """``<J^T A, J^T B>`` from the stand-ins ``a`` and ``b`` of ``J^T A`` and ``J^T B``.

        ``terms`` are the Gram products ``K G`` of ``b``, as ``compact_vjp(B)``
        returns them, so a Gram layer's share is ``<G_a, K G_b>``.
        """
        if True not in self.route:  # both are laid out as J^T A and J^T B
            return float(np.vdot(a, b))
        total = 0.0
        pairs = zip(self.route, _views(a, self.table), _views(b, self.table))
        for i, (gram, pa, pb) in enumerate(pairs):
            if gram:
                total += float(np.vdot(pa, terms[i]))
                continue
            total += float(np.vdot(pa[0], pb[0]))
            if pa[1] is not None:
                total += float(np.vdot(pa[1], pb[1]))
        return total


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
        self._layouts = {}

    def init_params(self, seed=0):
        """Uniform(-a, a) init per layer with ``a = 1/sqrt(fan_in)``, seeded.

        Raises MemoryError, as an allocation that fails does, when the
        parameter vector is too long for any float64 array.
        """
        if self.n_params > np.iinfo(np.intp).max // 8:
            raise MemoryError(f"{self.n_params} parameters are more than an array can hold")
        # Philox is counter based, so the stream is reproducible across platforms.
        rng = np.random.Generator(np.random.Philox(key=seed))
        chunks = []
        for out, fan_in in self._shapes:
            a = 1.0 / np.sqrt(fan_in)
            chunks.append(rng.uniform(-a, a, size=out * fan_in))
            if self.bias:
                chunks.append(rng.uniform(-a, a, size=out))
        return np.concatenate(chunks)

    def _unpack(self, params):
        """Per-layer views ``(W, b)`` into a flat parameter vector, checked."""
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.n_params,):
            raise ValueError(
                f"expected flat parameter vector of length {self.n_params}, got shape {params.shape}"
            )
        return _views(params, self._layout(None)[2])

    def _layout(self, m):
        """``(route, size, table)`` of a stand-in for ``J^T V`` at batch size ``m``.

        ``route`` says per layer whether it takes the Gram route, ``m < fan_in``:
        the one place that rule is written.  ``size`` is the stand-in's length
        (see :meth:`Linearization.compact_vjp`) and ``table`` its slice table
        for :func:`_views`: per layer ``(gram, lo, mid, hi, shape)``, with the
        block ``flat[lo:mid]`` of ``shape`` and, off the Gram route, the bias
        ``flat[mid:hi]`` (``hi`` None without one).  All three are kept per
        batch size; ``m=None`` is the parameter vector's layout.
        """
        if m not in self._layouts:
            route = tuple(m is not None and m < fan_in for _, fan_in in self._shapes)
            table = []
            pos = 0
            for (out, fan_in), gram in zip(self._shapes, route):
                if gram:
                    table.append((True, pos, pos + m * out, None, (m, out)))
                    pos += m * out
                    continue
                mid = pos + out * fan_in
                hi = mid + out if self.bias else None
                table.append((False, pos, mid, hi, (out, fan_in)))
                pos = mid + out * self.bias
            self._layouts[m] = route, pos, table
        return self._layouts[m]

    def forward(self, params, X):
        """The model outputs (m x out) at ``params`` for the rows of ``X``.

        The untraced pass of ``forward_trace``: the same outputs bit for bit,
        without the SiLU derivatives and without holding on to layer inputs.
        """
        out, _ = self.forward_trace(params, X, slopes=False)
        return out

    def forward_trace(self, params, X, *, slopes=True):
        """Forward pass returning the output and the :class:`Linearization` at ``params``.

        The linearization stores, per layer, the layer input and (for hidden
        layers) the SiLU derivative at the pre-activation, so repeated
        Jacobian products at a fixed point redo neither the forward pass nor
        the sigmoid.  It views ``params``, which must not change while it is
        in use.  With ``slopes=False`` the pass skips the derivatives, keeps
        no layer inputs and returns None in its place.
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
        return Z, Linearization(self, layers, inputs, derivs) if slopes else None

    def jvp(self, lin, u, cotangent=None):
        """Directional derivative of the outputs along the parameter tangent ``u``.

        ``lin`` is the :class:`Linearization` of :meth:`forward_trace`, and
        the product is taken at its point and batch; ``u`` is a parameter
        vector.  With ``cotangent`` ``V`` such that ``u = vjp(lin, V)``,
        layers with more inputs than samples take their parameter term as
        ``K G`` (see the module docstring), from Gram matrices the
        linearization keeps.
        """
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.n_params,):
            raise ValueError(f"expected flat tangent of length {self.n_params}, got shape {u.shape}")
        if cotangent is not None:
            cotangent = np.asarray(cotangent, dtype=np.float64)
        return lin.jvp(u, cotangent)

    def vjp(self, lin, V, consume=None):
        """``J^T V``: the output cotangent ``V`` pulled back to a fresh parameter vector.

        ``lin`` is as in :meth:`jvp`.  With ``consume`` the product is
        streamed and None returned: each block of ``J^T V`` goes to
        ``consume(lo, hi, block)`` in parameter order, the row chunks of
        :func:`_param_block` and then the bias of each layer, in one scratch
        of at most ``PIECE`` scalars (a bias past that) that the next block
        reuses (see :meth:`Linearization.vjp`).  A block has the bits of the
        same slice of the whole product, and ``consume`` may overwrite it.
        """
        return lin.vjp(np.asarray(V, dtype=np.float64), consume)


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
