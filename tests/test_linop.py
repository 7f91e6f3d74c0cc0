import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dualgn import (
    JacobianOperator,
    adjoint_dot_test,
    finite_diff_jvp,
    make_jacobian_operator,
    make_model,
)
from oracles import fd_jacobian, materialize_jacobian
from strategies import MODELS, jacobian_cases


def _instance(name, d, k, m, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    model = make_model(name, d, k)
    w = model.init_params(seed)
    X = rng.standard_normal((m, d))
    return model, w, X


@pytest.mark.parametrize("name,d,k,m", [("linear", 3, 2, 4), ("mlp:5", 3, 2, 4), ("mlp:4,4", 2, 3, 5)])
def test_dims_and_counters(name, d, k, m):
    model, w, X = _instance(name, d, k, m, 1)
    opr = make_jacobian_operator(model, w, X)
    assert opr.dims == (model.n_params, m, k)
    assert (opr.jvp_calls, opr.vjp_calls) == (0, 0)
    opr.jvp(np.zeros(model.n_params))
    opr.jvp(np.zeros(model.n_params))
    opr.vjp(np.zeros((m, k)))
    assert (opr.jvp_calls, opr.vjp_calls) == (2, 1)


@pytest.mark.parametrize("name,d,k,m", [("linear", 3, 2, 4), ("mlp:5", 3, 2, 4), ("mlp:4,4", 2, 3, 5)])
def test_adjoint_identity(name, d, k, m):
    model, w, X = _instance(name, d, k, m, 2)
    opr = make_jacobian_operator(model, w, X)
    assert adjoint_dot_test(opr, seed=2, trials=20) <= 1e-10


@pytest.mark.parametrize("name", ["linear", "mlp:6", "mlp:4,4"])
def test_jvp_matches_finite_differences(name):
    model, w, X = _instance(name, 3, 2, 5, 4)
    rng = np.random.Generator(np.random.Philox(key=40))
    for _ in range(5):
        u = rng.standard_normal(model.n_params)
        exact = model.jvp(w, X, u)
        approx = finite_diff_jvp(model, w, X, u)
        rel = np.linalg.norm(approx - exact) / max(1.0, np.linalg.norm(exact))
        assert rel <= 1e-5


def test_operator_matches_materialized_jacobian():
    model, w, X = _instance("mlp:5", 3, 2, 4, 6)
    opr = make_jacobian_operator(model, w, X)
    J = materialize_jacobian(model, w, X)
    assert_allclose(J, fd_jacobian(model, w, X), atol=1e-7)
    rng = np.random.Generator(np.random.Philox(key=60))
    u = rng.standard_normal(model.n_params)
    assert_allclose(opr.jvp(u).ravel(), J @ u, rtol=1e-12, atol=1e-12)
    V = rng.standard_normal((4, 2))
    assert_allclose(opr.vjp(V), J.T @ V.ravel(), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name,d,k,m", [("linear", 3, 2, 4), ("mlp:5", 3, 2, 4), ("mlp:4,3", 2, 3, 5)])
def test_operator_matches_jacobian_at_every_depth(name, d, k, m):
    # mlp:4,3 runs both the first-layer and the later-layer branch of the JVP
    model, w, X = _instance(name, d, k, m, 61)
    opr = make_jacobian_operator(model, w, X)
    J = materialize_jacobian(model, w, X)
    assert_allclose(J, fd_jacobian(model, w, X), atol=1e-7)
    rng = np.random.Generator(np.random.Philox(key=62))
    u = rng.standard_normal(model.n_params)
    assert_allclose(opr.jvp(u).ravel(), J @ u, rtol=1e-12, atol=1e-12)
    V = rng.standard_normal((m, k))
    assert_allclose(opr.vjp(V), J.T @ V.ravel(), rtol=1e-12, atol=1e-12)


def test_frozen_trace_consistency():
    # products taken through the operator equal fresh per-call products
    model, w, X = _instance("mlp:4,4", 2, 3, 5, 9)
    opr = make_jacobian_operator(model, w, X)
    rng = np.random.Generator(np.random.Philox(key=90))
    u = rng.standard_normal(model.n_params)
    V = rng.standard_normal((5, 3))
    assert_allclose(opr.jvp(u), model.jvp(w, X, u))
    assert_allclose(opr.vjp(V), model.vjp(w, X, V))


def test_shape_validation():
    model, w, X = _instance("linear", 3, 2, 4, 10)
    opr = make_jacobian_operator(model, w, X)
    with pytest.raises(ValueError, match="tangent"):
        opr.jvp(np.zeros(5))
    with pytest.raises(ValueError, match="cotangent"):
        opr.vjp(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="nonempty"):
        make_jacobian_operator(model, w, np.zeros((0, 3)))
    with pytest.raises(ValueError, match="feature dim"):
        make_jacobian_operator(model, w, np.zeros((4, 2)))


def test_probe_validation():
    model, w, X = _instance("linear", 2, 2, 3, 11)
    opr = make_jacobian_operator(model, w, X)
    for bad in (0, 1.5):  # 1.5 ended in a raw TypeError
        with pytest.raises(ValueError, match="trials"):
            adjoint_dot_test(opr, trials=bad)
    for bad in (0.0, np.nan, np.inf):  # nan returned nan, and inf warned
        with pytest.raises(ValueError, match="eps"):
            finite_diff_jvp(model, w, X, np.zeros(4), eps=bad)


# Gram-matrix forward products: given the cotangent V of u = J^T V, layers
# whose fan-in exceeds the batch size evaluate J u from V.


@pytest.mark.parametrize("relation", ["lt", "eq", "gt"])
@pytest.mark.parametrize("name", MODELS)
@given(data=st.data())
def test_gram_forward_product_matches_plain_product(name, relation, data):
    model, w, X, V = data.draw(jacobian_cases(name, relation))
    opr = make_jacobian_operator(model, w, X)
    u = opr.vjp(V)
    plain = opr.jvp(u)
    calls = opr.jvp_calls
    gram = opr.jvp(u, cotangent=V)
    assert opr.jvp_calls == calls + 1
    assert np.linalg.norm(gram - plain) <= 1e-13 * np.linalg.norm(plain)
    fan_ins = [model.in_dim] if name == "linear" else model.dims[:-1]
    if X.shape[0] >= max(fan_ins):
        assert np.array_equal(gram, plain)


def test_gram_matrices_are_built_once_and_only_where_m_is_below_fan_in():
    # fan-ins 8, 6 and 3 at m = 4: only the first two layers take the Gram route
    model, w, X = _instance("mlp:6,3", 8, 2, 4, 12)
    V = np.random.Generator(np.random.Philox(key=120)).standard_normal((4, 2))
    u = model.vjp(w, X, V)
    _, trace = model.forward_trace(w, X)
    grams = trace.grams
    model.jvp(w, X, u, trace=trace)
    assert grams == {}
    first = model.jvp(w, X, u, trace=trace, cotangent=V)
    assert sorted(grams) == [0, 1]
    kept = dict(grams)
    assert np.array_equal(model.jvp(w, X, u, trace=trace, cotangent=V), first)
    assert all(grams[i] is kept[i] for i in kept)
    Z = np.c_[X, np.ones(4)]
    assert_allclose(grams[0], Z @ Z.T, rtol=1e-12, atol=1e-12)


def test_bare_operator_ignores_cotangent():
    A = np.arange(6.0).reshape(3, 2)
    opr = JacobianOperator(lambda u: (A @ u).reshape(3, 1), lambda V: A.T @ V.ravel(), (2, 3, 1))
    V = np.ones((3, 1))
    u = opr.vjp(V)
    assert np.array_equal(opr.jvp(u, cotangent=V), opr.jvp(u))
    assert opr.jvp_calls == 2
    with pytest.raises(ValueError, match="cotangent"):
        opr.jvp(u, cotangent=np.ones((2, 1)))
    assert opr.jvp_calls == 2


def test_bare_operator_checks_its_products_shapes():
    A = np.arange(6.0).reshape(3, 2)
    good = JacobianOperator(lambda u: (A @ u).reshape(3, 1), lambda V: A.T @ V.ravel(), (2, 3, 1))
    bad = JacobianOperator(lambda u: A @ u, lambda V: np.append(A.T @ V.ravel(), 0.0), (2, 3, 1))
    u, V = np.ones(2), np.ones((3, 1))
    with pytest.raises(ValueError, match=r"jvp produced shape \(3,\), expected \(3, 1\)"):
        bad.jvp(u)
    for out in (None, np.empty(2)):
        with pytest.raises(ValueError, match=r"vjp produced shape \(3,\), expected \(2,\)"):
            bad.vjp(V, out=out)
    # a good adjoint's product is copied into out
    out = np.empty(2)
    assert good.vjp(V, out=out) is out and np.array_equal(out, A.T @ V.ravel())


# Compact transposed products: a stand-in s for J^T V, with ||J^T V||^2, the
# forward product J J^T V from s, and the expansion of s into J^T V.


@pytest.mark.parametrize("relation", ["lt", "eq", "gt"])
@pytest.mark.parametrize("name", MODELS)
@given(data=st.data())
def test_compact_products_match_the_parameter_space_products(name, relation, data):
    model, w, X, V = data.draw(jacobian_cases(name, relation))
    opr = make_jacobian_operator(model, w, X)
    u = opr.vjp(V)
    s, sq, terms = opr.compact_vjp(V)
    assert (opr.jvp_calls, opr.vjp_calls) == (0, 2)
    assert s.size == opr.lin.size <= model.n_params
    assert_allclose(opr.compact_expand(s), u, rtol=1e-13, atol=1e-13 * np.linalg.norm(u))
    if s.size == model.n_params:  # no layer on the Gram route: s is laid out as J^T V
        assert np.array_equal(s, u) and opr.compact_expand(s) is s
    assert sq == pytest.approx(float(np.vdot(u, u)), rel=1e-12, abs=1e-300)
    plain = opr.jvp(u)
    pushed = opr.compact_jvp(s, terms)
    assert (opr.jvp_calls, opr.vjp_calls) == (2, 2)
    # the pushed product takes the same Gram terms as the cotangent JVP
    assert np.array_equal(pushed, opr.jvp(u, cotangent=V))
    assert np.linalg.norm(pushed - plain) <= 1e-13 * np.linalg.norm(plain)
    # the stand-in is linear in V
    s2, _, _ = opr.compact_vjp(2.0 * V)
    assert_allclose(opr.compact_expand(s - 0.5 * s2), 0.0, atol=1e-13 * np.linalg.norm(u))


def test_compact_stand_in_holds_cotangents_on_gram_layers_only():
    # fan-ins 8, 6 and 3 at m = 4: the first two layers keep their cotangents
    # (4 x 6 and 4 x 3), the last its weights and bias (2 x 3 + 2)
    model, w, X = _instance("mlp:6,3", 8, 2, 4, 12)
    V = np.random.Generator(np.random.Philox(key=121)).standard_normal((4, 2))
    opr = make_jacobian_operator(model, w, X)
    s, _, terms = opr.compact_vjp(V)
    assert s.size == 4 * 6 + 4 * 3 + 2 * 3 + 2
    assert sorted(terms) == [0, 1]
    assert np.array_equal(s[-8:], opr.vjp(V)[-8:])


def test_bare_operator_uses_the_parameter_vector_as_its_stand_in():
    A = np.arange(6.0).reshape(3, 2)
    opr = JacobianOperator(lambda u: (A @ u).reshape(3, 1), lambda V: A.T @ V.ravel(), (2, 3, 1))
    V = np.ones((3, 1))
    s, sq, terms = opr.compact_vjp(V)
    assert np.array_equal(s, A.T @ V.ravel()) and terms is None
    assert sq == float(np.vdot(s, s))
    assert opr.compact_expand(s) is s
    assert np.array_equal(opr.compact_jvp(s, terms), (A @ s).reshape(3, 1))
    assert (opr.jvp_calls, opr.vjp_calls) == (1, 1)
    with pytest.raises(ValueError, match="cotangent"):
        opr.compact_vjp(np.ones((2, 1)))
