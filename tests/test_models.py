import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualgn import LinearModel, MLPModel, make_jacobian_operator, make_model
from dualgn.models import sigmoid


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


def test_vjp_returns_a_fresh_parameter_vector():
    # the dual kernel and the primal operator hold on to earlier results
    model = MLPModel([3, 5, 4, 2])
    rng = np.random.Generator(np.random.Philox(key=13))
    w = model.init_params(13)
    X = rng.standard_normal((6, 3))
    _, (inputs, slopes) = model.forward_trace(w, X)
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


def test_bad_param_vector_shape():
    model = LinearModel(2, 2)
    with pytest.raises(ValueError, match="length 4"):
        model.forward(np.zeros(5), np.ones((1, 2)))


def test_make_model_parsing():
    assert isinstance(make_model("linear", 3, 2), LinearModel)
    assert make_model("mlp:8", 2, 3).dims == [2, 8, 3]
    assert make_model("mlp:4,4", 2, 3).dims == [2, 4, 4, 3]
    with pytest.raises(ValueError, match="unknown model"):
        make_model("resnet", 2, 3)
    with pytest.raises(ValueError, match="hidden"):
        make_model("mlp:", 2, 3)
    with pytest.raises(ValueError, match="bad mlp hidden dims"):
        make_model("mlp:a,b", 2, 3)
    with pytest.raises(ValueError):
        LinearModel(0, 2)
    with pytest.raises(ValueError):
        MLPModel([2])
