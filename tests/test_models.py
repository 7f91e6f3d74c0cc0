import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualgn import LinearModel, MLPModel, make_jacobian_operator, make_model
from dualgn.models import _silu, sigmoid


def test_sigmoid_stable_at_extremes():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0
    # no overflow warnings on a mixed block
    with np.errstate(over="raise"):
        sigmoid(np.array([-800.0, -1.0, 0.0, 1.0, 800.0]))


def _two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_two_branch_form_bit_for_bit():
    rng = np.random.Generator(np.random.Philox(key=17))
    edges = [0.0, 5e-324, 709.8, 745.0, 1e308, np.inf]
    for z in (30.0 * rng.standard_normal((64, 64)), np.array(edges + [-e for e in edges])):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = sigmoid(z)
        expected = _two_branch_sigmoid(z)
        assert got.shape == z.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert np.isnan(sigmoid(np.array([np.nan]))).all()


def test_sigmoid_of_a_0d_input_and_of_negative_zero():
    # a 0-d input gives a 0-d array, as np.where did; -0.0 counts as z >= 0
    edges = [0.0, -0.0, 5e-324, -5e-324, 3.0, -3.0, 745.0, -745.0, np.inf, -np.inf]
    for z in edges + [np.nan]:
        for arg in (z, np.array(z)):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                got = sigmoid(arg)
            assert type(got) is np.ndarray and got.shape == () and got.dtype == np.float64
            if np.isnan(z):
                assert np.isnan(got)
                continue
            expected = _two_branch_sigmoid(np.array([z]))[0]
            assert got.view(np.uint64) == expected.view(np.uint64)
    block = np.array([[-0.0, 0.0], [-0.0, -1.0]])
    got = sigmoid(block)
    assert np.array_equal(got.view(np.uint64), _two_branch_sigmoid(block).view(np.uint64))
    assert got[0, 0] == 0.5 and not np.signbit(got[0, 0])


def _subnormal(a):
    a = np.abs(a)
    return (a > 0) & (a < np.finfo(np.float64).tiny)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: exp(z) is subnormal for z in (-745.1, -708.4), where "
    "libm and numpy's SIMD exp are tens of times slower; no benchmark workload "
    "has such pre-activations, and a guard costs every sigmoid call",
)
def test_sigmoid_and_silu_make_no_subnormals_below_the_exp_limit():
    rng = np.random.Generator(np.random.Philox(key=19))
    z = rng.uniform(-745.0, -708.0, 4096)
    s = sigmoid(z)
    A = z.copy()
    slope = _silu(A, True)
    for out in (s, A, slope):
        assert not _subnormal(out).any()


def test_linear_forward_identity_weights():
    model = LinearModel(2, 2)
    w = np.eye(2).ravel()
    out = model.forward(w, np.array([[1.0, 2.0]]))
    assert_allclose(out, [[1.0, 2.0]])


def test_linear_jvp_vjp_formulas():
    model = LinearModel(3, 2)
    rng = np.random.Generator(np.random.Philox(key=5))
    w = model.init_params(5)
    X = rng.standard_normal((4, 3))
    u = rng.standard_normal(6)
    assert_allclose(model.jvp(w, X, u), X @ u.reshape(2, 3).T)
    v = rng.standard_normal((4, 2))
    # vjp(v) = sum_i flatten(v_i x_i^T)
    expected = sum(np.outer(v[i], X[i]).ravel() for i in range(4))
    assert_allclose(model.vjp(w, X, v), expected)


def test_param_counts():
    assert LinearModel(2, 2).n_params == 4
    assert MLPModel([2, 16, 3]).n_params == 2 * 16 + 16 + 16 * 3 + 3
    assert make_model("mlp:4,4", 2, 3).n_params == (2 * 4 + 4) + (4 * 4 + 4) + (4 * 3 + 3)


def test_init_deterministic_and_bounded():
    model = MLPModel([3, 5, 2])
    w1 = model.init_params(9)
    w2 = model.init_params(9)
    assert np.array_equal(w1, w2)
    assert not np.array_equal(w1, model.init_params(10))
    # every layer is uniform(-1/sqrt(fan_in), 1/sqrt(fan_in))
    assert np.max(np.abs(w1[: 3 * 5 + 5])) <= 1.0 / np.sqrt(3)
    assert np.max(np.abs(w1[3 * 5 + 5 :])) <= 1.0 / np.sqrt(5)


def test_mlp_zero_params_zero_output():
    model = MLPModel([2, 4, 3])
    out = model.forward(np.zeros(model.n_params), np.ones((5, 2)))
    assert_allclose(out, np.zeros((5, 3)))


def test_mlp_forward_matches_manual_chain():
    model = MLPModel([2, 3, 2])
    rng = np.random.Generator(np.random.Philox(key=3))
    w = model.init_params(3)
    X = rng.standard_normal((4, 2))
    W1 = w[:6].reshape(3, 2)
    b1 = w[6:9]
    W2 = w[9:15].reshape(2, 3)
    b2 = w[15:]
    A = X @ W1.T + b1
    expected = (A / (1 + np.exp(-A))) @ W2.T + b2
    assert_allclose(model.forward(w, X), expected)


def test_forward_trace_reuse_is_consistent():
    for model in (MLPModel([2, 4, 3]), LinearModel(2, 3)):
        rng = np.random.Generator(np.random.Philox(key=11))
        w = model.init_params(11)
        X = rng.standard_normal((3, 2))
        u = rng.standard_normal(model.n_params)
        V = rng.standard_normal((3, 3))
        out, trace = model.forward_trace(w, X)
        # the operator's outputs are the forward pass, bit for bit
        assert np.array_equal(make_jacobian_operator(model, w, X).outputs, out)
        assert np.array_equal(model.forward(w, X), out)
        assert_allclose(model.jvp(w, X, u, trace=trace), model.jvp(w, X, u))
        assert_allclose(model.vjp(w, X, V, trace=trace), model.vjp(w, X, V))


def _traced_memory(call):
    """``(peak, kept)`` bytes that tracemalloc sees over ``call()``, its result held."""
    tracemalloc.start()
    try:
        result = call()  # noqa: F841 -- held, so that ``kept`` counts it
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, kept


def test_forward_is_the_traced_output_without_a_trace():
    rng = np.random.Generator(np.random.Philox(key=37))
    for dims, m in (
        ([4, 9, 3], 5),
        ([4, 9, 7, 3], 6),
        ([4, 9, 7, 5, 3], 7),
        ([4, 12, 3], 1),
        ([4, 6, 6, 3], 1),
        ([4, 3], 5),
    ):
        model = MLPModel(dims) if len(dims) > 2 else LinearModel(*dims)
        w = model.init_params(37)
        X = 3.0 * rng.standard_normal((m, dims[0]))
        for x in (X, X.tolist()):
            out, _ = model.forward_trace(w, x)
            got = model.forward(w, x)
            assert got.shape == out.shape == (m, dims[-1])
            assert np.array_equal(got.view(np.uint64), out.view(np.uint64))
        assert model.forward_trace(w, X, slopes=False)[1] is None


def test_forward_keeps_no_layer_inputs_or_slopes():
    m, slack = 128, 16384  # slack: Python objects and numpy's cast buffer
    rng = np.random.Generator(np.random.Philox(key=41))
    for hidden in ([64], [64, 64], [48, 64, 32]):
        model = MLPModel([8, *hidden, 3])
        w = model.init_params(41)
        X = rng.standard_normal((m, 8))
        row = 8 * m  # bytes of an m x 1 float64 column
        traced_peak, traced_kept = _traced_memory(lambda: model.forward_trace(w, X))
        peak, kept = _traced_memory(lambda: model.forward(w, X))
        # the trace holds each hidden layer's output (the next layer's input)
        # and slope; the plain pass holds only its m x 3 result
        assert traced_kept >= 2 * row * sum(hidden)
        assert kept <= 3 * row + slack
        # ... and at most one hidden layer's pre-activation, exp(-|A|) and
        # sigmoid at a time, while the traced pass ends up holding the trace
        assert peak <= 3 * row * max(hidden) + slack
        assert traced_peak >= 2 * row * sum(hidden)


def test_vjp_returns_a_fresh_parameter_vector():
    # the dual kernel and the primal operator hold on to earlier results
    model = MLPModel([3, 5, 4, 2])
    rng = np.random.Generator(np.random.Philox(key=13))
    w = model.init_params(13)
    X = rng.standard_normal((6, 3))
    _, trace = model.forward_trace(w, X)
    inputs, slopes = trace.inputs, trace.slopes
    V1, V2 = rng.standard_normal((2, 6, 2))
    g1 = model.vjp(w, X, V1)
    kept = g1.copy()
    g2 = model.vjp(w, X, V2)
    assert g1 is not g2 and not np.shares_memory(g1, g2)
    assert np.array_equal(g1, kept)
    layers = model._unpack(w)
    for V, g in ((V1, g1), (V2, g2)):
        assert g.shape == (model.n_params,) and g.dtype == np.float64
        assert g.flags.c_contiguous
        G, blocks = V, []
        for i in range(len(layers) - 1, -1, -1):
            blocks[:0] = [(G.T @ inputs[i]).ravel(), G.sum(axis=0)]
            if i > 0:
                G = (G @ layers[i][0]) * slopes[i - 1]
        assert_allclose(g, np.concatenate(blocks), rtol=1e-13, atol=1e-15)


def _traced(dims, m, seed):
    model = MLPModel(dims) if len(dims) > 2 else LinearModel(*dims)
    rng = np.random.Generator(np.random.Philox(key=seed))
    w = model.init_params(seed)
    return model, w, 3.0 * rng.standard_normal((m, dims[0])), rng


def test_forward_trace_slopes_match_the_textbook_form():
    # the forward pass works in place; its arithmetic must not move a bit
    model, w, X, _ = _traced([6, 16, 8, 3], 32, 19)
    out, trace = model.forward_trace(w, X)
    inputs, slopes = trace.inputs, trace.slopes
    Z = X
    for i, (W, b) in enumerate(model._unpack(w)):
        assert np.array_equal(inputs[i], Z)
        A = Z @ W.T + b
        if i < len(slopes):
            s = _two_branch_sigmoid(A)
            assert np.array_equal(slopes[i], s * (1.0 + A * (1.0 - s)))
            Z = A * s
        else:
            Z = A
    assert np.array_equal(out, Z)


def test_trace_arrays_alias_nothing():
    # each layer's arrays are updated in place, so none may share a buffer
    for dims in ([5, 7, 6, 3], [5, 3]):
        model, w, X, _ = _traced(dims, 4, 23)
        kept = X.copy()
        out, trace = model.forward_trace(w, X)
        inputs, slopes = trace.inputs, trace.slopes
        assert np.array_equal(X, kept) and inputs[0] is X
        arrays = inputs + slopes + [out]
        for i, a in enumerate(arrays):
            assert all(not np.shares_memory(a, b) for b in arrays[i + 1 :])
            if i:
                assert not np.shares_memory(a, X)


def test_products_leave_the_trace_and_their_terms_unchanged():
    # Gram layers at m=4 (every fan-in exceeds it) and a mix at m=6; a
    # LinearModel and an MLP at m < d have a Gram term on layer 0
    for dims, m in (([5, 7, 6, 3], 4), ([5, 7, 6, 3], 6), ([5, 3], 4), ([5, 3], 6)):
        model, w, X, rng = _traced(dims, m, 29)
        out, trace = model.forward_trace(w, X)
        kept = [a.copy() for a in [out, *trace.inputs, *trace.slopes]]
        V, B = rng.standard_normal((2, m, dims[-1]))
        u = model.vjp(w, X, V, trace=trace)
        model.jvp(w, X, u, trace=trace)
        model.jvp(w, X, u, trace=trace, cotangent=V)
        s, _, terms = trace.compact_vjp(V)
        sb, _, bterms = trace.compact_vjp(B)
        held = {i: KG.copy() for i, KG in terms.items()}
        first = trace.compact_jvp(s, terms).copy()
        assert np.array_equal(trace.compact_jvp(s, terms), first)
        assert terms.keys() == held.keys()
        assert all(np.array_equal(terms[i], held[i]) for i in held)
        trace.compact_expand(s)
        trace.compact_dot(s, sb, bterms)
        for a, b in zip([out, *trace.inputs, *trace.slopes], kept):
            assert np.array_equal(a, b)


def test_stand_ins_are_parameter_vectors_exactly_when_no_layer_is_on_the_gram_route():
    # layer fan-ins 5, 7 and 6: each m in 4..8 puts a different set of layers
    # on the Gram route (m < fan_in), including m = fan_in and m = fan_in + 1
    cases = [([5, 7, 6, 3], m) for m in range(4, 9)]
    cases += [([5, 4, 3], m) for m in (3, 4, 5, 6)] + [([5, 3], m) for m in (4, 5, 6)]
    for dims, m in cases:
        model, w, X, rng = _traced(dims, m, 43)
        gram = any(m < fan_in for fan_in in dims[:-1])
        _, trace = model.forward_trace(w, X)
        A, B = rng.standard_normal((2, m, dims[-1]))
        sa, _, _ = trace.compact_vjp(A)
        sb, _, bterms = trace.compact_vjp(B)
        assert (sa.size < model.n_params) == gram
        ua, ub = trace.compact_expand(sa), trace.compact_expand(sb)
        assert (ua is sa) == (ub is sb) == (not gram)
        assert_allclose(ua, model.vjp(w, X, A), rtol=1e-13, atol=1e-13)
        dot = trace.compact_dot(sa, sb, bterms)
        if gram:
            # a Gram layer's share is <G_a, K G_b>, another rounding of the same sum
            assert dot == pytest.approx(float(np.vdot(ua, ub)), rel=1e-12)
        else:
            assert dot == float(np.vdot(ua, ub))


def test_bad_param_vector_shape():
    model = LinearModel(2, 2)
    with pytest.raises(ValueError, match="length 4"):
        model.forward(np.zeros(5), np.ones((1, 2)))


def test_bad_tangent_shape():
    model = MLPModel([2, 3, 2])
    w = model.init_params(0)
    for bad in (np.zeros(model.n_params - 1), np.zeros((1, model.n_params))):
        with pytest.raises(ValueError, match=f"expected flat tangent of length {model.n_params}"):
            model.jvp(w, np.ones((1, 2)), bad)


def test_make_model_parsing():
    assert isinstance(make_model("linear", 3, 2), LinearModel)
    assert make_model("mlp:8", 2, 3).dims == [2, 8, 3]
    assert make_model("mlp:4,4", 2, 3).dims == [2, 4, 4, 3]
    with pytest.raises(ValueError, match="unknown model"):
        make_model("resnet", 2, 3)
    for spec in ("mlp:", "mlp:a,b", "mlp:0", "mlp:8,-1", "mlp:8,,8", "mlp:8,", "mlp:1.5"):
        with pytest.raises(ValueError, match=f"bad mlp hidden dims in '{spec}'"):
            make_model(spec, 2, 3)
    with pytest.raises(ValueError):
        LinearModel(0, 2)
    with pytest.raises(ValueError):
        MLPModel([2])
