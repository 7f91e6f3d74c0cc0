import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dualgn import (
    LossOracle,
    SubproblemSpec,
    make_jacobian_operator,
    make_model,
    primal_gn_direction,
)
from dualgn import models
from dualgn.models import PIECE
from oracles import (
    PlainOperator,
    adjoint_dot_test,
    assembled,
    fd_jacobian,
    finite_diff_jvp,
    materialize_jacobian,
)
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
    assert adjoint_dot_test(opr, seed=2) <= 1e-10


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
    u = np.ones(model.n_params)
    for bad in (np.zeros((4, 3)), np.zeros(8)):
        with pytest.raises(ValueError, match="cotangent"):
            opr.vjp(bad)
        with pytest.raises(ValueError, match="cotangent"):
            opr.jvp(u, cotangent=bad)
        with pytest.raises(ValueError, match="cotangent"):
            opr.compact_vjp(bad)
    assert (opr.jvp_calls, opr.vjp_calls) == (0, 0)  # a rejected call counts nothing
    V = np.ones((4, 2))
    assert np.array_equal(opr.vjp(V), model.vjp(w, X, V))
    with pytest.raises(ValueError, match="nonempty"):
        make_jacobian_operator(model, w, np.zeros((0, 3)))
    with pytest.raises(ValueError, match="feature dim"):
        make_jacobian_operator(model, w, np.zeros((4, 2)))


def test_probe_validation():
    # The probes have fixed sizes: the adjoint test draws 20 pairs, one
    # product each way per pair, and the finite difference steps 1e-6.
    model, w, X = _instance("mlp:3", 2, 2, 3, 11)
    opr = make_jacobian_operator(model, w, X)
    worst = adjoint_dot_test(opr, seed=5)
    assert (opr.jvp_calls, opr.vjp_calls) == (20, 20)
    assert adjoint_dot_test(make_jacobian_operator(model, w, X), seed=5) == worst
    u = np.random.Generator(np.random.Philox(key=12)).standard_normal(model.n_params)
    want = (model.forward(w + 1e-6 * u, X) - model.forward(w - 1e-6 * u, X)) / (2.0 * 1e-6)
    assert np.array_equal(finite_diff_jvp(model, w, X, u), want)


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


# The plain oracle (tests/oracles.py) is the reference for the Gram route: it
# has the operator's product protocol, takes every forward product from the
# parameter tangent alone and uses the transposed product as its stand-in.


@pytest.mark.parametrize("relation", ["lt", "eq", "gt"])
@pytest.mark.parametrize("name", MODELS)
@given(data=st.data())
def test_plain_operator_matches_the_model_operator(name, relation, data):
    model, w, X, V = data.draw(jacobian_cases(name, relation))
    opr = make_jacobian_operator(model, w, X)
    plain = PlainOperator(opr)
    assert plain.dims == opr.dims and plain.outputs is opr.outputs
    u = plain.vjp(V)
    assert np.array_equal(u, opr.vjp(V))
    # the cotangent is ignored, so no layer takes the Gram route
    ju = plain.jvp(u, cotangent=V)
    assert np.array_equal(ju, plain.jvp(u)) and np.array_equal(ju, opr.jvp(u))
    s, sq, terms = plain.compact_vjp(V)
    assert np.array_equal(s, u) and sq == float(np.vdot(u, u)) and terms is None
    assert plain.compact_expand(s) is s
    assert np.array_equal(plain.compact_jvp(s, terms), ju)
    assert plain.compact_dot(s, s, terms) == sq
    # one count per product, plain or compact
    assert (plain.jvp_calls, plain.vjp_calls) == (3, 2)
    assert (opr.jvp_calls, opr.vjp_calls) == (1, 1)


def test_primal_products_reach_the_model_methods(monkeypatch):
    # The benchmark's traced run times the model's products by wrapping
    # MLPModel.jvp and MLPModel.vjp (benchmarks/spans.py), so the operator
    # must call them: a primal direction's tau forward and tau + 1 transposed
    # products all pass through them, Gram-route products included.
    calls = {"jvp": 0, "vjp": 0}
    for attr in calls:

        def counted(*args, _attr=attr, _original=getattr(models.MLPModel, attr), **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(models.MLPModel, attr, counted)
    # fan-ins 8, 6 and 3 at m = 4: the first two layers take the Gram route
    model, w, X = _instance("mlp:6,3", 8, 2, 4, 13)
    loss = LossOracle("squared", np.random.Generator(np.random.Philox(key=130)).standard_normal((4, 2)))
    for tau in (0, 1, 3):
        calls.update(jvp=0, vjp=0)
        opr = make_jacobian_operator(model, w, X)
        res = primal_gn_direction(opr, loss, opr.outputs, SubproblemSpec(tau=tau, path="primal"))
        assert res.report.iterations == tau
        assert (calls["jvp"], calls["vjp"]) == (opr.jvp_calls, opr.vjp_calls) == (tau, tau + 1)


@given(data=st.data())
def test_streamed_vjp_is_the_vjp_in_parameter_order_bit_for_bit(data):
    # The second layer (fan-in 230-500) spans 2-3 row chunks, whose chunked
    # G^T Z mostly differs from the whole product in its last bits, so the
    # blocks match only because they are made on the vjp's own schedule.
    fan_in = data.draw(st.integers(230, 500))
    rows = PIECE // fan_in
    h = rows * data.draw(st.integers(1, 2)) + data.draw(st.integers(1, rows))
    m, k = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3))
    name = data.draw(st.sampled_from([f"mlp:{fan_in},{h}", "linear"]))
    model, w, X = _instance(name, 10, k, m, data.draw(st.integers(0, 2**32 - 1)))
    V = np.random.Generator(np.random.Philox(key=m)).standard_normal((m, k))
    opr = make_jacobian_operator(model, w, X)
    blocks, scratch = [], []

    def consume(lo, hi, blk):
        blocks.append((lo, hi, blk.copy()))
        scratch.append(blk)
        blk.fill(np.nan)  # a block is the consumer's to overwrite

    assert opr.vjp(V, consume) is None
    assert opr.vjp_calls == 1
    assert np.array_equal(assembled(blocks, model.n_params), opr.vjp(V))
    # one scratch of at most a chunk, or a bias past that, serves every block
    assert max(b.size for b in scratch) <= max(PIECE, h)
    assert all(np.shares_memory(b, scratch[0]) for b in scratch)
