import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dualgn import (
    LossOracle,
    NumericError,
    Regularizer,
    SubproblemSpec,
    batch_gradient,
    dual_gn_direction,
    loss_grad,
    loss_value,
    make_jacobian_operator,
    make_model,
    primal_gn_direction,
    regularized_dual_direction,
    sdca_closed_form_squared,
    soft_threshold,
)
from dualgn import directions, models
from dualgn.cgsolver import BLOCK, cg_kernel, cg_workspace
from oracles import PlainOperator, assembled, dense_direction, ista_l1, kept_vector_primal
from strategies import MODELS, jacobian_cases


def _instance(name, d, k, m, seed, loss_kind="squared"):
    rng = np.random.Generator(np.random.Philox(key=seed))
    model = make_model(name, d, k)
    w = model.init_params(seed)
    X = rng.standard_normal((m, d))
    if loss_kind == "logistic":
        Y = np.eye(k)[rng.integers(k, size=m)]
    else:
        Y = rng.standard_normal((m, k))
    loss = LossOracle(loss_kind, Y)
    f = model.forward(w, X)
    return model, w, X, Y, loss, f


def test_spec_validation():
    with pytest.raises(ValueError, match="gamma"):
        SubproblemSpec(gamma=0.0)
    with pytest.raises(ValueError, match="tau"):
        SubproblemSpec(tau=-1)
    with pytest.raises(ValueError, match="tau"):
        SubproblemSpec(tau=1.5)
    with pytest.raises(ValueError, match="path"):
        SubproblemSpec(path="sideways")
    with pytest.raises(ValueError, match="tol"):
        SubproblemSpec(tol=-1e-3)


def test_each_route_rejects_the_other_routes_spec():
    # a primal spec silently ran the dual route, and a dual spec the primal
    model, w, X, _, loss, f = _instance("mlp:3", 2, 2, 4, 6)
    opr = make_jacobian_operator(model, w, X)
    with pytest.raises(ValueError, match="primal route needs path='primal', got 'dual'"):
        primal_gn_direction(opr, loss, f, SubproblemSpec(path="dual"))
    with pytest.raises(ValueError, match="dual route needs path='dual', got 'primal'"):
        dual_gn_direction(opr, loss, f, SubproblemSpec(path="primal"))
    with pytest.raises(ValueError, match="dual route needs path='dual', got 'primal'"):
        regularized_dual_direction(
            opr, loss, f, SubproblemSpec(path="primal"), w, Regularizer("l2", 0.1)
        )
    assert (opr.jvp_calls, opr.vjp_calls) == (0, 0)


def test_soft_threshold_cases():
    assert soft_threshold(np.array([1.2]), 0.5)[0] == pytest.approx(0.7)
    assert soft_threshold(np.array([-0.3]), 0.5)[0] == 0.0
    z = np.array([1.0, -2.0, 0.0])
    assert np.array_equal(soft_threshold(z, 0.0), z)
    for bad in (-0.1, np.nan):  # a nan threshold returned all-nan
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(z, bad)
    assert np.array_equal(soft_threshold(z, np.inf), np.zeros(3))


def test_regularizer_prox():
    z = np.array([2.0, -0.1, 0.4])
    assert_allclose(Regularizer("l1", 0.5).prox(z, 1.0), [1.5, 0.0, 0.0])
    assert_allclose(Regularizer("l2", 3.0).prox(z, 1.0), z / 4.0)
    assert_allclose(Regularizer("none").prox(z, 1.0), z)
    with pytest.raises(ValueError, match="kind"):
        Regularizer("l0")
    with pytest.raises(ValueError, match="lam"):
        Regularizer("l1", -1.0)


@pytest.mark.parametrize("loss_kind", ["squared", "logistic"])
def test_tau_zero_returns_scaled_gradient_bit_exact(loss_kind):
    model, w, X, _, loss, f = _instance("mlp:5", 3, 2, 4, 17, loss_kind)
    gamma = 1.7
    opr = make_jacobian_operator(model, w, X)
    grad = batch_gradient(opr, loss, f)
    opr2 = make_jacobian_operator(model, w, X)
    res = dual_gn_direction(opr2, loss, f, SubproblemSpec(gamma=gamma, tau=0))
    assert np.array_equal(res.d, gamma * grad)
    assert (opr2.jvp_calls, opr2.vjp_calls) == (0, 1)
    assert res.report.iterations == 0


def test_identity_jacobian_closed_form():
    # in_dim=1, X=[[1]] makes J the identity on the weight vector
    model = make_model("linear", 1, 3)
    w = np.array([0.3, -0.2, 0.5])
    X = np.array([[1.0]])
    Y = np.array([[1.0, 0.0, -1.0]])
    loss = LossOracle("squared", Y)
    f = model.forward(w, X)
    g = (f - Y).ravel()
    for path, fn in (("primal", primal_gn_direction), ("dual", dual_gn_direction)):
        opr = make_jacobian_operator(model, w, X)
        res = fn(opr, loss, f, SubproblemSpec(gamma=1.0, tau=3, path=path))
        assert_allclose(res.d, g / 2.0, rtol=1e-14)
    # dual alpha solves the same system
    opr = make_jacobian_operator(model, w, X)
    res = dual_gn_direction(opr, loss, f, SubproblemSpec(gamma=1.0, tau=3))
    assert_allclose(res.alpha.ravel(), g / 2.0, rtol=1e-14)


def test_primal_first_iterate_collinear_with_gradient():
    model, w, X, _, loss, f = _instance("mlp:5", 3, 2, 4, 19)
    opr = make_jacobian_operator(model, w, X)
    grad = batch_gradient(make_jacobian_operator(model, w, X), loss, f)
    res = primal_gn_direction(opr, loss, f, SubproblemSpec(gamma=0.9, tau=1, path="primal"))
    cos = np.vdot(res.d, grad) / (np.linalg.norm(res.d) * np.linalg.norm(grad))
    assert cos == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("loss_kind", ["squared", "logistic"])
def test_exact_solves_match_dense_oracle(loss_kind):
    model, w, X, Y, loss, f = _instance("mlp:5", 3, 3, 4, 23, loss_kind)
    p, m, k = model.n_params, 4, 3
    gamma = 2.5
    want = dense_direction(model, w, X, Y, loss_kind, gamma)
    res_p = primal_gn_direction(
        make_jacobian_operator(model, w, X), loss, f,
        SubproblemSpec(gamma=gamma, tau=4 * p, path="primal", tol=1e-14),
    )
    res_d = dual_gn_direction(
        make_jacobian_operator(model, w, X), loss, f,
        SubproblemSpec(gamma=gamma, tau=4 * m * k, tol=1e-14),
    )
    scale = max(1.0, np.linalg.norm(want))
    assert np.linalg.norm(res_p.d - want) / scale <= 1e-8
    assert np.linalg.norm(res_d.d - want) / scale <= 1e-8
    assert np.linalg.norm(res_p.d - res_d.d) / scale <= 1e-6


@pytest.mark.parametrize("path", ["primal", "dual"])
@pytest.mark.parametrize("loss_kind", ["squared", "logistic"])
def test_descent_for_every_prefix(path, loss_kind):
    for seed in range(5):
        model, w, X, _, loss, f = _instance("mlp:4,4", 2, 3, 4, 29 + seed, loss_kind)
        grad = batch_gradient(make_jacobian_operator(model, w, X), loss, f)
        for tau in (1, 2, 4, 8):
            opr = make_jacobian_operator(model, w, X)
            spec = SubproblemSpec(gamma=0.7, tau=tau, path=path)
            fn = primal_gn_direction if path == "primal" else dual_gn_direction
            res = fn(opr, loss, f, spec)
            floor = -1e-10 * (1.0 + np.linalg.norm(res.d) * np.linalg.norm(grad))
            assert res.descent_inner_product >= floor


# One instance per model family: criterion 2 solves only one-hidden-layer
# MLPs, and criterion 3 measures <d, grad> only on linear and mlp:4.
_FAMILIES = [("linear", 3, 2, 5), ("mlp:5", 3, 2, 6), ("mlp:4,4", 2, 3, 4)]


@pytest.mark.parametrize("loss_kind", ["squared", "logistic"])
@pytest.mark.parametrize("name,d,k,m", _FAMILIES)
def test_exact_solves_agree_on_each_model_family(name, d, k, m, loss_kind):
    model, w, X, _, loss, f = _instance(name, d, k, m, 37, loss_kind)
    gamma = 2.5
    res_p = primal_gn_direction(
        make_jacobian_operator(model, w, X), loss, f,
        SubproblemSpec(gamma=gamma, tau=4 * model.n_params, path="primal", tol=1e-14),
    )
    res_d = dual_gn_direction(
        make_jacobian_operator(model, w, X), loss, f,
        SubproblemSpec(gamma=gamma, tau=4 * m * k, tol=1e-14),
    )
    assert np.linalg.norm(res_p.d - res_d.d) / max(1.0, np.linalg.norm(res_d.d)) <= 1e-6


@pytest.mark.parametrize("name,d,k,m", _FAMILIES)
def test_truncated_directions_descend_in_parameter_space(name, d, k, m):
    # <d, grad> from the returned direction, not the route's own report of it
    for loss_kind in ("squared", "logistic"):
        model, w, X, _, loss, f = _instance(name, d, k, m, 41, loss_kind)
        grad = batch_gradient(make_jacobian_operator(model, w, X), loss, f)
        for path, fn in (("primal", primal_gn_direction), ("dual", dual_gn_direction)):
            for tau in (1, 2, 4, 8):
                res = fn(make_jacobian_operator(model, w, X), loss, f,
                         SubproblemSpec(gamma=0.7, tau=tau, path=path))
                floor = -1e-10 * (1.0 + np.linalg.norm(res.d) * np.linalg.norm(grad))
                assert float(np.vdot(res.d, grad)) >= floor


@pytest.mark.parametrize("path", ["primal", "dual"])
@pytest.mark.parametrize("loss_kind", ["squared", "logistic"])
def test_operator_call_budget(path, loss_kind):
    model, w, X, _, loss, f = _instance("mlp:5", 3, 2, 4, 31, loss_kind)
    for tau in (1, 3, 5):
        opr = make_jacobian_operator(model, w, X)
        fn = primal_gn_direction if path == "primal" else dual_gn_direction
        res = fn(opr, loss, f, SubproblemSpec(gamma=1.0, tau=tau, path=path))
        assert opr.jvp_calls == tau
        assert opr.vjp_calls == tau + 1
        assert res.report.iterations == tau


def test_dual_report_bookkeeping():
    model, w, X, _, loss, f = _instance("mlp:5", 3, 2, 4, 37)
    opr = make_jacobian_operator(model, w, X)
    res = dual_gn_direction(opr, loss, f, SubproblemSpec(gamma=1.0, tau=4))
    rep = res.report
    # the final iteration's residual is never formed, so the norms list has
    # one entry per iteration (the initial norm plus tau-1 updates)
    assert rep.iterations == 4
    assert len(rep.residual_norms) == 4
    assert rep.operator_calls == 4
    assert rep.inner_product_with_rhs >= -1e-12


def test_dual_alpha_maps_back_to_direction():
    for loss_kind in ("squared", "logistic"):
        model, w, X, _, loss, f = _instance("mlp:4,4", 2, 3, 5, 41, loss_kind)
        gamma, m = 1.3, 5
        opr = make_jacobian_operator(model, w, X)
        res = dual_gn_direction(opr, loss, f, SubproblemSpec(gamma=gamma, tau=6))
        mapped = (gamma / m) * opr.vjp(res.alpha)
        assert_allclose(res.d, mapped, rtol=1e-12, atol=1e-14)


def test_primal_result_has_no_dual_variable():
    model, w, X, _, loss, f = _instance("linear", 3, 2, 4, 43)
    res = primal_gn_direction(
        make_jacobian_operator(model, w, X), loss, f,
        SubproblemSpec(gamma=1.0, tau=2, path="primal"),
    )
    assert res.alpha is None


def test_zero_gradient_batch_short_circuits():
    model = make_model("linear", 2, 2)
    w = np.eye(2).ravel()
    X = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    Y = X.copy()  # forward(w, X) == X exactly, so the residual vanishes
    loss = LossOracle("squared", Y)
    f = make_model("linear", 2, 2).forward(w, X)
    assert_allclose(batch_gradient(make_jacobian_operator(model, w, X), loss, f), 0.0)
    for path, fn in (("primal", primal_gn_direction), ("dual", dual_gn_direction)):
        opr = make_jacobian_operator(model, w, X)
        res = fn(opr, loss, f, SubproblemSpec(gamma=1.0, tau=4, path=path))
        assert_allclose(res.d, 0.0)
        assert res.report.iterations == 0
        assert opr.jvp_calls == 0
        assert res.descent_inner_product == 0.0


def test_batch_gradient_single_sample_and_fd():
    model, w, X, _, loss, f = _instance("mlp:5", 3, 2, 1, 47)
    opr = make_jacobian_operator(model, w, X)
    grad = batch_gradient(opr, loss, f)
    single = make_jacobian_operator(model, w, X).vjp(loss_grad(loss, f))
    assert_allclose(grad, single)

    # central finite differences on the batch objective
    eps = 1e-6
    rng = np.random.Generator(np.random.Philox(key=470))
    u = rng.standard_normal(model.n_params)
    hi = np.mean(loss_value(loss, model.forward(w + eps * u, X)))
    lo = np.mean(loss_value(loss, model.forward(w - eps * u, X)))
    fd = (hi - lo) / (2 * eps)
    assert abs(fd - np.vdot(grad, u)) / max(1.0, abs(fd)) <= 1e-5


def test_logistic_dual_iterates_stay_feasible():
    model, w, X, _, loss, f = _instance("mlp:5", 3, 3, 4, 53, "logistic")
    opr = make_jacobian_operator(model, w, X)
    iterates = []
    res = dual_gn_direction(
        opr, loss, f, SubproblemSpec(gamma=1.3, tau=6), callback=iterates.append
    )
    assert len(iterates) == 6
    for beta in iterates:
        assert np.max(np.abs(beta.sum(axis=1))) <= 1e-10
    beta_final = loss_grad(loss, f) - res.alpha
    assert np.max(np.abs(beta_final.sum(axis=1))) <= 1e-10


def test_gamma_nonlinearity():
    # directions are not a gamma-rescaled family once curvature matters
    rng = np.random.Generator(np.random.Philox(key=33))
    model = make_model("mlp:6", 3, 3)
    w = model.init_params(33)
    X = rng.standard_normal((5, 3))
    Y = np.eye(3)[rng.integers(3, size=5)]
    loss = LossOracle("logistic", Y)
    f = model.forward(w, X)

    def exact_d(gam):
        opr = make_jacobian_operator(model, w, X)
        return dual_gn_direction(
            opr, loss, f, SubproblemSpec(gamma=gam, tau=8 * 15, tol=1e-15)
        ).d

    d1 = exact_d(1.0)
    d01 = exact_d(0.1)
    gap = np.linalg.norm(d1 - 10.0 * d01) / max(1.0, np.linalg.norm(d1))
    assert gap > 1e-3


def test_stationarity_at_least_squares_minimizer():
    rng = np.random.Generator(np.random.Philox(key=59))
    X = rng.standard_normal((12, 4))
    y = rng.standard_normal((12, 1))
    w_star = np.linalg.lstsq(X, y.ravel(), rcond=None)[0]
    model = make_model("linear", 4, 1)
    loss = LossOracle("squared", y)
    f = model.forward(w_star, X)
    for path, fn in (("primal", primal_gn_direction), ("dual", dual_gn_direction)):
        opr = make_jacobian_operator(model, w_star, X)
        res = fn(opr, loss, f, SubproblemSpec(gamma=1.0, tau=48, path=path, tol=0.0))
        assert np.linalg.norm(res.d) <= 1e-8


def test_regularized_none_is_bit_identical():
    for loss_kind in ("squared", "logistic"):
        model, w, X, _, loss, f = _instance("mlp:5", 3, 2, 4, 61, loss_kind)
        spec = SubproblemSpec(gamma=1.4, tau=3)
        plain = dual_gn_direction(make_jacobian_operator(model, w, X), loss, f, spec)
        reg = regularized_dual_direction(
            make_jacobian_operator(model, w, X), loss, f, spec, w, Regularizer("none")
        )
        assert np.array_equal(plain.d, reg.d)
        assert np.array_equal(plain.alpha, reg.alpha)
        assert plain.report.residual_norms == reg.report.residual_norms
        # l2 at weight 0 takes the penalized route, whose right-hand side is
        # pushed from J^T g and whose map-back is d = w - prox(w - d0): equal
        # up to round-off
        l2 = regularized_dual_direction(
            make_jacobian_operator(model, w, X), loss, f, spec, w, Regularizer("l2", 0.0)
        )
        assert np.linalg.norm(l2.d - plain.d) <= 1e-12 * np.linalg.norm(plain.d)


@pytest.mark.parametrize("loss_kind", ["squared", "logistic"])
def test_l2_direction_matches_dense_composite_solve(loss_kind):
    from oracles import dense_loss_pieces, materialize_jacobian

    rng = np.random.Generator(np.random.Philox(key=21))
    model = make_model("mlp:5", 3, 2)
    w = model.init_params(21)
    X = rng.standard_normal((4, 3))
    Y = np.eye(2)[rng.integers(2, size=4)]
    loss = LossOracle(loss_kind, Y)
    f = model.forward(w, X)
    m, k, lam, gamma = 4, 2, 0.3, 1.7
    res = regularized_dual_direction(
        make_jacobian_operator(model, w, X), loss, f,
        SubproblemSpec(gamma=gamma, tau=6 * m * k, tol=1e-15),
        w, Regularizer("l2", lam),
    )
    J = materialize_jacobian(model, w, X)
    g, H = dense_loss_pieces(loss_kind, f, Y)
    A = J.T @ H @ J / m + (lam + 1.0 / gamma) * np.eye(J.shape[1])
    want = np.linalg.solve(A, J.T @ g.ravel() / m + lam * w)
    assert np.linalg.norm(res.d - want) / max(1.0, np.linalg.norm(want)) <= 1e-10


def test_l1_total_shrinkage():
    model, w, X, _, loss, f = _instance("linear", 3, 2, 4, 67)
    res = regularized_dual_direction(
        make_jacobian_operator(model, w, X), loss, f,
        SubproblemSpec(gamma=1.0, tau=8), w, Regularizer("l1", 1e6),
    )
    # the prox collapses the candidate to zero, so the step lands exactly at 0
    assert np.array_equal(res.d, w)


def test_l1_stationary_at_prox_gradient_solution():
    rng = np.random.Generator(np.random.Philox(key=77))
    A = rng.standard_normal((20, 6))
    w_true = np.array([1.5, -2.0, 1.0, 2.5, -1.2, 0.8])
    y = A @ w_true + 0.01 * rng.standard_normal(20)
    lam = 0.02
    w_star = ista_l1(A, y, lam, iters=10**4)
    assert np.min(np.abs(w_star)) > 1e-3  # fully supported minimizer

    model = make_model("linear", 6, 1)
    loss = LossOracle("squared", y.reshape(-1, 1))
    f = model.forward(w_star, A)
    res = regularized_dual_direction(
        make_jacobian_operator(model, w_star, A), loss, f,
        SubproblemSpec(gamma=1.0, tau=100, tol=1e-15),
        w_star, Regularizer("l1", lam),
    )
    assert np.linalg.norm(res.d) <= 1e-10


def test_sdca_closed_form_values():
    x = np.array([1.0, 0.0])
    y = np.array([0.5, -0.5])
    f = np.array([1.5, 0.5])
    alpha, d = sdca_closed_form_squared(x, f, y, 1.0)
    # ||x||^2 = 1, gamma = 1 -> sigma = 1, alpha = (f - y)/2
    assert_allclose(alpha, (f - y) / 2.0)
    assert_allclose(d, np.outer(alpha, x).ravel())

    alpha0, d0 = sdca_closed_form_squared(x, y, y, 1.0)
    assert_allclose(alpha0, 0.0)
    assert_allclose(d0, 0.0)


def test_sdca_zero_feature_vector():
    alpha, d = sdca_closed_form_squared(np.zeros(3), np.array([1.0]), np.array([0.0]), 2.0)
    assert_allclose(alpha, [1.0])
    assert_allclose(d, np.zeros(3))


def test_sdca_matches_exact_dual_cg():
    for seed in range(5):
        rng = np.random.Generator(np.random.Philox(key=[71, seed]))
        d_in, k = 4, 3
        x = rng.standard_normal(d_in)
        w = rng.standard_normal(d_in * k)
        y = rng.standard_normal(k)
        gamma = 0.8
        model = make_model("linear", d_in, k)
        X = x.reshape(1, -1)
        loss = LossOracle("squared", y.reshape(1, -1))
        f = model.forward(w, X)
        res = dual_gn_direction(
            make_jacobian_operator(model, w, X), loss, f,
            SubproblemSpec(gamma=gamma, tau=5 * k, tol=1e-15),
        )
        alpha, d = sdca_closed_form_squared(x, f.ravel(), y, gamma)
        assert np.max(np.abs(res.alpha.ravel() - alpha)) <= 1e-10
        assert np.max(np.abs(res.d - d)) <= 1e-10


def test_sdca_validation():
    for bad in (0.0, np.inf):  # gamma inf returned a nan d with a RuntimeWarning
        with pytest.raises(ValueError, match="gamma"):
            sdca_closed_form_squared(np.ones(2), np.ones(2), np.ones(2), bad)
    with pytest.raises(ValueError, match="shape"):
        sdca_closed_form_squared(np.ones(2), np.ones(2), np.ones(3), 1.0)


def test_shape_validation():
    model, w, X, _, loss, f = _instance("linear", 3, 2, 4, 73)
    opr = make_jacobian_operator(model, w, X)
    with pytest.raises(ValueError, match="outputs"):
        dual_gn_direction(opr, loss, np.zeros((3, 2)), SubproblemSpec())
    bad_loss = LossOracle("squared", np.zeros((5, 2)))
    with pytest.raises(ValueError, match="targets"):
        dual_gn_direction(opr, bad_loss, f, SubproblemSpec())
    with pytest.raises(ValueError, match="parameters"):
        regularized_dual_direction(
            opr, loss, f, SubproblemSpec(), np.zeros(5), Regularizer("l1", 0.1)
        )


def test_non_finite_inner_product_raises():
    # an operator that corrupts the second forward product poisons the
    # residual update, which the dual loop must detect and name
    model, w, X, _, loss, f = _instance("linear", 3, 2, 4, 79)

    class Poisoned(PlainOperator):
        def jvp(self, u, cotangent=None):
            out = super().jvp(u)
            return np.full_like(out, np.nan) if self.jvp_calls >= 2 else out

    opr = Poisoned(make_jacobian_operator(model, w, X))
    with pytest.raises(NumericError, match="dual CG iteration 1"):
        dual_gn_direction(opr, loss, f, SubproblemSpec(gamma=1.0, tau=3))


# (model, in_dim, k, m): the dual system has dimension m*k
PAST_CONVERGENCE = [
    ("linear", 5, 3, 8),
    ("linear", 4, 2, 6),
    ("linear", 2, 5, 2),
    ("mlp:5", 3, 3, 4),
    ("mlp:4,4", 2, 4, 5),
    ("mlp:6", 3, 4, 3),
]


@pytest.mark.parametrize("gamma, bound", [(1e-3, 1e-10), (1.0, 1e-10), (1e3, 1e-5)])
def test_logistic_dual_stays_accurate_past_convergence(gamma, bound):
    # Training runs the full budget (tol = 0), so budgets well past the
    # dual dimension must keep the solution the CG reached, not drift along
    # the null space of the singular projected system.
    worst = 0.0
    for seed, (name, d, k, m) in enumerate(PAST_CONVERGENCE):
        model, w, X, Y, loss, f = _instance(name, d, k, m, 800 + seed, "logistic")
        want = dense_direction(model, w, X, Y, "logistic", gamma)
        for tau in (m * k, 2 * m * k, 4 * m * k):
            opr = make_jacobian_operator(model, w, X)
            res = dual_gn_direction(opr, loss, f, SubproblemSpec(gamma=gamma, tau=tau))
            assert opr.jvp_calls <= tau and opr.vjp_calls <= tau + 1
            err = np.linalg.norm(res.d - want) / np.linalg.norm(want)
            worst = max(worst, err)
    assert worst <= bound


@pytest.mark.parametrize("path", ["primal", "dual"])
def test_non_finite_rhs_raises(path):
    # the batch loss is finite (~1e159) but the right-hand side overflows;
    # the solve must not return a zero or gradient-only direction silently
    model, w, X, _, loss, _ = _instance("linear", 3, 2, 4, 83)
    X = X * 1e80
    with np.errstate(all="ignore"):
        f = model.forward(w, X)
        assert np.isfinite(np.mean(loss_value(loss, f)))
        fn = primal_gn_direction if path == "primal" else dual_gn_direction
        with pytest.raises(NumericError, match="non-finite initial residual"):
            fn(make_jacobian_operator(model, w, X), loss, f, SubproblemSpec(path=path))


@pytest.mark.parametrize("loss_kind", ["squared", "logistic"])
def test_gram_forward_products_leave_the_dual_direction_unchanged(loss_kind):
    # m = 8 below both fan-ins (200 and 32), so every forward product in the
    # dual solve goes through the Gram matrices; compare against an operator
    # that takes every product from the parameter tangent
    model, w, X, _, loss, f = _instance("mlp:32", 200, 3, 8, 91, loss_kind)
    for reg in (Regularizer(), Regularizer("l2", 0.3), Regularizer("l1", 0.01)):
        spec = SubproblemSpec(gamma=2.0, tau=6, path="dual")
        opr = make_jacobian_operator(model, w, X)
        plain = PlainOperator(opr)
        res = regularized_dual_direction(opr, loss, f, spec, w, reg)
        ref = regularized_dual_direction(plain, loss, f, spec, w, reg)
        assert np.linalg.norm(res.d - ref.d) <= 1e-12 * np.linalg.norm(ref.d)
        assert (opr.jvp_calls, opr.vjp_calls) == (plain.jvp_calls, plain.vjp_calls) == (6, 7)


# The dual route carries J^T beta as the operator's compact stand-in; the
# plain oracle's stand-in is the parameter vector itself, which is the
# reference.


@pytest.mark.parametrize("relation", ["lt", "eq", "gt"])
@pytest.mark.parametrize("name", MODELS)
@given(data=st.data())
def test_compact_products_leave_the_dual_direction_unchanged(name, relation, data):
    model, w, X, V = data.draw(jacobian_cases(name, relation, scales=(1.0,)))
    m, k = V.shape
    # one logistic class has a zero gradient and no dual system
    loss_kind = data.draw(st.sampled_from(["squared", "logistic"][: 1 + (k > 1)]))
    reg = data.draw(st.sampled_from([Regularizer(), Regularizer("l2", 0.3), Regularizer("l1", 0.01)]))
    gamma = data.draw(st.sampled_from([0.1, 1.0, 10.0]))
    Y = V if loss_kind == "squared" else np.eye(k)[np.argmax(V, axis=1)]
    loss = LossOracle(loss_kind, Y)
    opr = make_jacobian_operator(model, w, X)
    f = opr.outputs
    # budgets below convergence: a solve's residual stays above 1e-3 of its
    # start, where float64 CG is not yet sensitive to round-off
    probe = PlainOperator(opr)
    spec = SubproblemSpec(gamma=gamma, tau=2 * m * k)
    norms = regularized_dual_direction(probe, loss, f, spec, w, reg).report.residual_norms
    assume(norms and norms[0] > 0)  # a zero Jacobian (one zero input row, no bias) has no dual system
    spec.tau = data.draw(st.integers(1, max(1, sum(r > 1e-3 * norms[0] for r in norms[1:]))))
    plain = PlainOperator(opr)
    res = regularized_dual_direction(opr, loss, f, spec, w, reg)
    ref = regularized_dual_direction(plain, loss, f, spec, w, reg)
    assert np.linalg.norm(res.d - ref.d) <= 1e-12 * np.linalg.norm(ref.d)
    assert (opr.jvp_calls, opr.vjp_calls) == (plain.jvp_calls, plain.vjp_calls)
    assert (opr.jvp_calls, opr.vjp_calls) == (spec.tau, spec.tau + 1)
    # at tau = 0 the direction is gamma times the batch gradient, bit for bit
    spec.tau = 0
    opr = make_jacobian_operator(model, w, X)
    grad = batch_gradient(make_jacobian_operator(model, w, X), loss, f)
    assert np.array_equal(dual_gn_direction(opr, loss, f, spec).d, spec.gamma * grad)


# After a CG update the dual scales the stand-in of J^T alpha by gamma / m
# and expands it, where it used to expand the stand-in and scale d: gamma *
# (J^T alpha / m).  With gamma and m powers of two, as on every benchmark
# workload (gamma = 1, m in {32, 64, 128}), both orders round alike.


@pytest.mark.parametrize("relation", ["lt", "eq", "gt"])
@pytest.mark.parametrize("name", MODELS)
@given(data=st.data())
def test_dual_direction_scaled_on_its_stand_in_matches_the_scaled_expansion(name, relation, data):
    model, w, X, V = data.draw(jacobian_cases(name, relation, scales=(1.0,)))
    m, k = V.shape
    loss_kind = data.draw(st.sampled_from(["squared", "logistic"][: 1 + (k > 1)]))
    gamma = data.draw(st.sampled_from([0.25, 1.0, 4.0, 0.3, 7.0]))
    Y = V if loss_kind == "squared" else np.eye(k)[np.argmax(V, axis=1)]
    loss = LossOracle(loss_kind, Y)
    spec = SubproblemSpec(gamma=gamma, tau=data.draw(st.integers(1, 3)))
    sums = []  # the kernel's sum of stand-ins, as it returned it

    def kernel(*args, **kwargs):
        x, rep, ysum = cg_kernel(*args, **kwargs)
        sums.append(np.copy(ysum))
        return x, rep, ysum

    results = []
    for _ in range(2):  # one result streams its pieces, the other builds d
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(directions, "cg_kernel", kernel)
            opr = make_jacobian_operator(model, w, X)
            results.append(dual_gn_direction(opr, loss, opr.outputs, spec))
    ref = make_jacobian_operator(model, w, X)
    sg, _, terms = ref.compact_vjp(loss_grad(loss, ref.outputs))
    s = sg - sums[0] if sums else sg  # the stand-in of J^T alpha
    old = gamma * (ref.compact_expand(s) / m)
    pieced, built = assembled(results[0].pieces(), model.n_params), results[1].d
    if all(math.frexp(v)[0] == 0.5 for v in (gamma, m)):
        assert np.array_equal(pieced, old) and np.array_equal(built, old)
        assert results[0].descent_inner_product == ref.compact_dot(s, sg, terms) * (gamma / m) / m
    else:
        for got in (pieced, built):
            assert np.linalg.norm(got - old) <= 1e-15 * np.linalg.norm(old)


def test_dual_direction_without_an_update_is_gamma_times_the_batch_gradient():
    # A solve makes no update at tau = 0, on a zero right-hand side (J^T g =
    # 0 with g != 0: zero inputs to a layer without a bias) and on breakdown
    # at its first product (outputs of 1e-155 against zero targets, whose
    # curvature is below BREAKDOWN_EPS).  Each returns gamma * batch_gradient
    # in batch_gradient's order, also where gamma / m is no power of two and
    # the first layer is on the Gram route (d = 7 > m = 3).
    rng = np.random.Generator(np.random.Philox(key=[31, 7]))
    cases = []
    for name in ("mlp:5", "linear"):
        for kind in ("squared", "logistic"):
            model, w, X, _, loss, _ = _instance(name, 7, 3, 3, 29, kind)
            cases.append((model, w, X, loss, 0, 0))
    model = make_model("linear", 7, 3)
    cases.append((model, model.init_params(1), np.zeros((3, 7)),
                  LossOracle("squared", rng.standard_normal((3, 3))), 4, 0))
    model, w, X, *_ = _instance("linear", 7, 3, 3, 29)
    cases.append((model, 1e-155 * w, X, LossOracle("squared", np.zeros((3, 3))), 4, 1))
    for model, w, X, loss, tau, calls in cases:
        for gamma in (1.0, 1.7):
            opr = make_jacobian_operator(model, w, X)
            grad = batch_gradient(make_jacobian_operator(model, w, X), loss, opr.outputs)
            res = dual_gn_direction(opr, loss, opr.outputs, SubproblemSpec(gamma=gamma, tau=tau))
            assert (res.report.iterations, res.report.operator_calls) == (0, calls)
            assert np.array_equal(assembled(res.pieces(), model.n_params), gamma * grad)
            assert np.array_equal(res.d, gamma * grad)
            assert np.any(grad) == (tau == 0 or calls == 1)


# The primal route carries an output-space shadow D of its CG direction d =
# J^T D, so its forward products also go through the Gram matrices.


@pytest.mark.parametrize("relation", ["lt", "eq", "gt"])
@pytest.mark.parametrize("name", MODELS)
@given(data=st.data())
def test_gram_forward_products_leave_the_primal_direction_unchanged(name, relation, data):
    model, w, X, V = data.draw(jacobian_cases(name, relation, scales=(1.0,)))
    loss_kind = data.draw(st.sampled_from(["squared", "logistic"]))
    gamma = data.draw(st.sampled_from([0.1, 1.0, 10.0]))
    m, k = V.shape
    Y = V if loss_kind == "squared" else np.eye(k)[np.argmax(V, axis=1)]
    loss = LossOracle(loss_kind, Y)
    opr = make_jacobian_operator(model, w, X)
    # budgets below convergence: a plain solve's residual stays above 1e-3 of
    # its start, where float64 CG is not yet sensitive to round-off
    probe = PlainOperator(opr)
    spec = SubproblemSpec(gamma=gamma, tau=2 * m * k, path="primal")
    norms = primal_gn_direction(probe, loss, opr.outputs, spec).report.residual_norms
    spec.tau = data.draw(st.integers(1, max(1, sum(r > 1e-3 * norms[0] for r in norms[1:]))))
    plain = PlainOperator(opr)
    res = primal_gn_direction(opr, loss, opr.outputs, spec)
    ref = primal_gn_direction(plain, loss, opr.outputs, spec)
    assert np.linalg.norm(res.d - ref.d) <= 1e-12 * np.linalg.norm(ref.d)
    assert (opr.jvp_calls, opr.vjp_calls) == (plain.jvp_calls, plain.vjp_calls)
    if m >= max(model.dims[:-1]):
        assert np.array_equal(res.d, ref.d)


@pytest.mark.parametrize("loss_kind, gamma", [("squared", 1.0), ("squared", 1e2), ("logistic", 1e2), ("logistic", 1e3)])
def test_primal_stays_accurate_past_convergence(loss_kind, gamma):
    # Past convergence the shadow has drifted from the direction by more than
    # what is left of the residual; the kernel drops it there.  Carried on,
    # it took the error at gamma=1e2 to 28 (logistic) and 6e-5 (squared).
    worst = worst_plain = 0.0
    for seed, (name, d, k, m) in enumerate(PAST_CONVERGENCE + [("linear", 20, 3, 5)]):
        model, w, X, Y, loss, f = _instance(name, d, k, m, 900 + seed, loss_kind)
        want = dense_direction(model, w, X, Y, loss_kind, gamma)
        for tau in (m * k, 2 * m * k, 4 * m * k):
            spec = SubproblemSpec(gamma=gamma, tau=tau, path="primal")
            opr = make_jacobian_operator(model, w, X)
            plain = PlainOperator(opr)
            gram, ref = (
                np.linalg.norm(primal_gn_direction(o, loss, f, spec).d - want) / np.linalg.norm(want)
                for o in (opr, plain)
            )
            worst, worst_plain = max(worst, gram), max(worst_plain, ref)
    assert worst <= 10 * worst_plain


def test_primal_builds_gram_matrices_only_where_m_is_below_fan_in(monkeypatch):
    # fan-ins 8, 6 and 3 at m = 4: only the first two layers take the Gram route
    built = []
    gram = models._gram

    def spy(grams, i, Z, bias):
        if i not in grams:
            built.append(i)
        return gram(grams, i, Z, bias)

    monkeypatch.setattr(models, "_gram", spy)
    for name, d, want in (("mlp:6,3", 8, [0, 1]), ("mlp:4", 3, [])):
        model, w, X, _, loss, f = _instance(name, d, 2, 4, 95)
        for tau in (1, 3, 6):
            built.clear()
            opr = make_jacobian_operator(model, w, X)
            primal_gn_direction(opr, loss, f, SubproblemSpec(gamma=1.0, tau=tau, path="primal"))
            assert sorted(built) == want
            assert (opr.jvp_calls, opr.vjp_calls) == (tau, tau + 1)


@pytest.mark.parametrize("loss_kind", ["squared", "logistic"])
def test_primal_workspace_leaves_the_direction_unchanged(loss_kind):
    # one workspace with stale contents serves every call, as in a training
    # run: two vectors and a scratch, a third vector up to one BLOCK of
    # parameters and one block past that, through which the plain products
    # past tau = m*k add their ridge shift
    for name, d in (("mlp:40", 30), ("mlp:64", 300)):
        model, w, X, _, loss, f = _instance(name, d, 3, 6, 71, loss_kind)
        p = model.n_params
        work = cg_workspace((p,))
        assert [a.shape for a in work] == [(p,), (p,), (p,) if p <= BLOCK else (BLOCK,)]
        for a in work:
            a.fill(np.nan)
        for tau in (0, 1, 4, 18, 60):
            for gamma in (0.3, 1e2):
                spec = SubproblemSpec(gamma=gamma, tau=tau, path="primal")
                oprs = [make_jacobian_operator(model, w, X) for _ in range(2)]
                got = primal_gn_direction(oprs[0], loss, f, spec, work=work)
                want = primal_gn_direction(oprs[1], loss, f, spec)
                assert np.array_equal(got.d, want.d)
                assert vars(got.report) == vars(want.report)
                assert got.descent_inner_product == want.descent_inner_product
                assert (oprs[0].jvp_calls, oprs[0].vjp_calls) == (oprs[1].jvp_calls, oprs[1].vjp_calls)
                assert not any(np.shares_memory(got.d, a) for a in work)
        spec = SubproblemSpec(gamma=1.0, tau=4, path="primal")
        for bad in (np.empty((3, p)), (work[0], work[1].astype(np.float32), work[2]),
                    (*work[:2], work[2][:-1])):
            with pytest.raises(ValueError, match="work must be a"):
                primal_gn_direction(make_jacobian_operator(model, w, X), loss, f, spec, work=bad)


def test_primal_vector_op_count_per_iteration():
    # Criterion 9's p = 80 instance, where the residual falls below
    # eps^(3/4) of its start at iteration 4 and the kernel drops the shadow.
    # tau = 0 counts r0, p0, <r0, r0> and <x, c>.  An iteration adds the
    # kernel's p-length passes (x; r and <r, r>; p from the second on) and
    # the shadow's m*k updates (rs while it is kept, ps from the second on).
    # A shadowed product adds its shift-add (2 m*k) and <J d, Y> (m*k); a
    # plain one <d, d>, <J d, H J d> (m*k) and its shift-add (2p).  The
    # last iteration of a solve makes no residual update, so its r, <r, r>,
    # rs and plain shift-add are not counted: the step from tau - 1 to tau
    # adds iteration tau less those and gives back iteration tau - 1's.
    model = make_model("linear", 40, 2)
    p, m, k = model.n_params, 4, 2
    mk = m * k
    rng = np.random.Generator(np.random.Philox(key=[909, 40]))
    w = model.init_params(9)
    X = rng.standard_normal((m, 40))
    want = [p + 3 * mk] + [4 * p + 5 * mk] * 3 + [5 * p + mk] + [7 * p + mk] * 25
    for kind in ("squared", "logistic"):
        Y = rng.standard_normal((m, k)) if kind == "squared" else np.eye(k)[rng.integers(0, k, size=m)]
        loss = LossOracle(kind, Y)
        counts = []
        for tau in range(31):
            opr = make_jacobian_operator(model, w, X)
            res = primal_gn_direction(opr, loss, opr.outputs, SubproblemSpec(gamma=0.9, tau=tau, path="primal"))
            assert res.report.iterations == tau
            counts.append(res.report.vector_op_scalar_count)
        assert counts[0] == 4 * p
        assert list(np.diff(counts)) == want


def test_dual_vector_op_count_per_iteration():
    # Criterion 9's p = 80 instance.  The layer's fan-in exceeds m, so a
    # stand-in is the m x k cotangent, and every count below is in m*k
    # passes but the scaled direction's 2p.  tau = 0 counts the stand-in
    # dots (2), the scaled direction, beta and alpha (2 on squared, where
    # to_beta is a copy; 6 on logistic with sigma).  A product counts P(s x)
    # (1 on squared, 3 on logistic), the curvature dots (2) and, on
    # logistic, beta / sigma (1).  Iteration 1 adds the kernel's r0, p0,
    # <r0, r0>, <x, c>, x and scaled stand-in (6), the right-hand side's
    # forward product (2), one product and, on logistic, S P of the
    # right-hand side (3); and from there on gamma / m scales the stand-in
    # of J^T alpha (1), not the direction (2p).  Each later iteration adds one product and one
    # residual update: the kernel's r, <r, r>, p, x and scaled stand-in (5),
    # the shifted forward product (2) and, on logistic, S P (3).  The
    # logistic residual falls below sqrt(eps) of its start at iteration 4,
    # and from there on each update is also re-projected (4) and its <r, r>
    # taken again (1).  On squared, scaled and the re-projection are
    # identities and charge nothing.
    model = make_model("linear", 40, 2)
    p, m, k = model.n_params, 4, 2
    mk = m * k
    rng = np.random.Generator(np.random.Philox(key=[909, 40]))
    w = model.init_params(9)
    X = rng.standard_normal((m, 40))
    for kind, start, first, later in (
        ("squared", 2 * p + 4 * mk, 12 * mk - 2 * p, [10 * mk] * 29),
        ("logistic", 2 * p + 8 * mk, 18 * mk - 2 * p, [16 * mk] * 3 + [21 * mk] * 26),
    ):
        Y = rng.standard_normal((m, k)) if kind == "squared" else np.eye(k)[rng.integers(0, k, size=m)]
        loss = LossOracle(kind, Y)
        counts = []
        for tau in range(31):
            opr = make_jacobian_operator(model, w, X)
            res = dual_gn_direction(opr, loss, opr.outputs, SubproblemSpec(gamma=0.9, tau=tau))
            assert res.report.iterations == tau
            counts.append(res.report.vector_op_scalar_count)
        assert counts[0] == start
        assert list(np.diff(counts)) == [first] + later


def _extreme_gamma_direction(gamma):
    # One sample with inputs of size 1e3; the primal route gives <d, grad> =
    # +2.88e5 at any gamma.
    rng = np.random.Generator(np.random.Philox(key=[0, 0]))
    X = 1e3 * rng.standard_normal((1, 2))
    Y = rng.standard_normal((1, 1))
    model = make_model("linear", 2, 1)
    opr = make_jacobian_operator(model, model.init_params(0), X)
    spec = SubproblemSpec(gamma=gamma, tau=2, path="dual")
    return dual_gn_direction(opr, LossOracle("squared", Y), opr.outputs, spec)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: at gamma=1e12 alpha = g - beta cancels below the round-off of g, "
    "and the dual route raises NumericError",
)
def test_dual_direction_descends_at_extreme_gamma():
    # From gamma=1e9 up, ||alpha|| / (eps ||g||) is 0 or 0.953 on this
    # instance (14.3 at 1e8): alpha = g - beta has cancelled to the round-off
    # of g, so J^T alpha carries no digits of the direction, and the dual
    # route raises NumericError where it used to return an ascent direction.
    res = _extreme_gamma_direction(1e12)
    assert res.descent_inner_product >= 0


@pytest.mark.xfail(
    strict=True,
    reason="known defect: at gamma=1e10 alpha = g - beta cancels to zero, "
    "and the dual route raises NumericError",
)
def test_dual_direction_is_nonzero_and_descends_at_gamma_1e10():
    # At gamma=1e10 alpha cancels to exactly zero, which used to map back to
    # d = 0 and pass a >= 0 check without descending; the round-off check on
    # alpha now raises NumericError.  A direction must descend strictly.
    res = _extreme_gamma_direction(1e10)
    assert np.any(res.d) and res.descent_inner_product > 0


def _float64_cg_ascent_case(path):
    # mlp:4,2 on four logistic samples at gamma=1e4, tau=8: the logistic
    # system has rank m(k-1) = 8, so tau=8 is where CG would have converged in
    # exact arithmetic; in float64 the dual CG has lost orthogonality by then
    rng = np.random.Generator(np.random.Philox(key=[3, 5]))
    X = 10.0 * rng.standard_normal((4, 2))
    loss = LossOracle("logistic", np.eye(3)[rng.integers(3, size=4)])
    model = make_model("mlp:4,2", 2, 3)
    opr = make_jacobian_operator(model, model.init_params(3), X)
    fn = dual_gn_direction if path == "dual" else primal_gn_direction
    res = fn(opr, loss, opr.outputs, SubproblemSpec(gamma=1e4, tau=8, path=path))
    grad = batch_gradient(make_jacobian_operator(model, model.init_params(3), X), loss, opr.outputs)
    return res, float(np.vdot(res.d, grad))


@pytest.mark.xfail(
    strict=True,
    reason="known defect: float64 CG loses orthogonality on the dual route, which "
    "returns <d, grad> = -807.55 at tau=8 here",
)
def test_dual_direction_descends_where_float64_cg_loses_orthogonality():
    _, dg = _float64_cg_ascent_case("dual")
    assert dg >= 0


def test_primal_direction_descends_where_the_dual_cg_loses_orthogonality():
    # the primal's descent is the CG prefix property <d, J^T g> >= 0, with
    # nothing subtracted, and holds on the same instance
    res, dg = _float64_cg_ascent_case("primal")
    assert dg == pytest.approx(9.2755, rel=1e-4)
    assert res.descent_inner_product == pytest.approx(dg, rel=1e-12)


def test_dual_route_raises_when_alpha_is_below_the_round_off_of_g():
    for gamma in (1e9, 1e10, 1e12):
        with pytest.raises(NumericError, match="round-off of g"):
            _extreme_gamma_direction(gamma)
    res = _extreme_gamma_direction(1e8)  # ||alpha|| = 14.3 eps ||g||
    assert res.descent_inner_product > 0


# The unpenalized dual route takes <d, grad> = (gamma/m^2) <J^T alpha, J^T g>
# from the stand-ins of J^T alpha and J^T g (a Gram layer's share is
# <G_alpha, K G_g>); the plain oracle's stand-in is the parameter vector, so
# its dot is the plain one.


@pytest.mark.parametrize("plain", [False, True])
@pytest.mark.parametrize("relation", ["lt", "eq", "gt"])
@pytest.mark.parametrize("name", MODELS)
@given(data=st.data())
def test_descent_inner_product_matches_the_gradient_dot(name, relation, plain, data):
    model, w, X, V = data.draw(jacobian_cases(name, relation, scales=(1.0, 1e1, 1e2)))
    m, k = V.shape
    loss_kind = data.draw(st.sampled_from(["squared", "logistic"]))
    Y = V if loss_kind == "squared" else np.eye(k)[np.argmax(V, axis=1)]
    loss = LossOracle(loss_kind, Y)
    spec = SubproblemSpec(
        gamma=10.0 ** data.draw(st.floats(-2.0, 4.0)),
        tau=data.draw(st.sampled_from([0, 1, 3, 8])),
    )
    opr = make_jacobian_operator(model, w, X)
    if plain:
        opr = PlainOperator(opr)
    f = model.forward(w, X)
    res = dual_gn_direction(opr, loss, f, spec)
    grad = batch_gradient(opr, loss, f)
    scale = 1.0 + np.linalg.norm(res.d) * np.linalg.norm(grad)
    assert abs(res.descent_inner_product - np.vdot(res.d, grad)) <= 1e-12 * scale


# The primal route takes <d, grad> as the CG kernel's <d, J^T g> / m.  It has
# a test of its own because a change to the body of the test above changes
# that test's derandomized draws, and one of the new draws trips the dual
# defect pinned by the strict xfail below.  Budgets up to 4 m*k run past the
# point where the kernel drops its shadow.


@pytest.mark.parametrize("plain", [False, True])
@pytest.mark.parametrize("relation", ["lt", "eq", "gt"])
@pytest.mark.parametrize("name", MODELS)
@given(data=st.data())
def test_primal_descent_inner_product_matches_the_gradient_dot(name, relation, plain, data):
    model, w, X, V = data.draw(jacobian_cases(name, relation, scales=(1.0, 1e1, 1e2)))
    m, k = V.shape
    loss_kind = data.draw(st.sampled_from(["squared", "logistic"]))
    Y = V if loss_kind == "squared" else np.eye(k)[np.argmax(V, axis=1)]
    loss = LossOracle(loss_kind, Y)
    spec = SubproblemSpec(
        gamma=10.0 ** data.draw(st.floats(-2.0, 4.0)),
        tau=data.draw(st.sampled_from([0, 1, 3, 8, m * k, 2 * m * k, 4 * m * k])),
        path="primal",
    )
    opr = make_jacobian_operator(model, w, X)
    if plain:
        opr = PlainOperator(opr)
    f = model.forward(w, X)
    res = primal_gn_direction(opr, loss, f, spec)
    grad = batch_gradient(opr, loss, f)
    scale = 1.0 + np.linalg.norm(res.d) * np.linalg.norm(grad)
    assert abs(res.descent_inner_product - np.vdot(res.d, grad)) <= 1e-12 * scale


# The primal route streams its transposed products: J^T g into the CG
# residual and direction, each Q d into the residual update, and J^T g again
# for <d, J^T g>.  The solve with whole products pins it.  Budgets up to
# 4 m*k run past the point where the kernel drops its shadow.


@pytest.mark.parametrize("relation", ["lt", "eq", "gt"])
@pytest.mark.parametrize("name", MODELS)
@given(data=st.data())
def test_streamed_primal_matches_the_kept_vector_solve(name, relation, data):
    model, w, X, V = data.draw(jacobian_cases(name, relation, scales=(1.0, 1e1, 1e2)))
    m, k = V.shape
    loss_kind = data.draw(st.sampled_from(["squared", "logistic"]))
    Y = V if loss_kind == "squared" else np.eye(k)[np.argmax(V, axis=1)]
    loss = LossOracle(loss_kind, Y)
    tau = data.draw(st.sampled_from([0, 1, 3, m * k, 4 * m * k]))
    spec = SubproblemSpec(gamma=10.0 ** data.draw(st.floats(-2.0, 4.0)), tau=tau, path="primal")
    f = model.forward(w, X)
    want, kept = kept_vector_primal(make_jacobian_operator(model, w, X), loss, f, spec)
    opr = make_jacobian_operator(model, w, X)
    reached = []
    vjp = models.MLPModel.vjp
    with mock.patch.object(models.MLPModel, "vjp", lambda *a, **kw: reached.append(1) or vjp(*a, **kw)):
        res = primal_gn_direction(opr, loss, f, spec)
    assert np.array_equal(res.d, want)
    rep = res.report
    # A solve stops short of its budget only where J^T g = 0 (a one-class
    # logistic loss, or a linear model on a zero batch), where the residual
    # falls to exactly 0, or on breakdown past convergence.  At full budget
    # the kept-vector solve also updated the residual on its last iteration.
    # A solve that stops on its residual makes all its residual updates, and
    # then re-forms J^T g: one transposed product more than the kept solve.
    n = rep.operator_calls
    early = 0 < rep.iterations == n < tau
    assert (rep.iterations, n) == (kept.iterations, kept.operator_calls)
    assert n == tau or kept.residual_norms[-1] <= 1e-100 * kept.residual_norms[0]
    assert rep.residual_norms == kept.residual_norms[: max(tau, 1)]
    grad = batch_gradient(make_jacobian_operator(model, w, X), loss, f)
    scale = 1.0 + np.linalg.norm(res.d) * np.linalg.norm(grad)
    assert abs(res.descent_inner_product - np.vdot(res.d, grad)) <= 1e-15 * scale
    assert (opr.jvp_calls, opr.vjp_calls, len(reached)) == (n, n + 1 + early, n + 1 + early)


def test_primal_descent_inner_product_is_the_dot_with_the_returned_direction():
    # A draw of the test above.  The first layer (fan-in 3 and a bias, m = 2)
    # is on the Gram route, and the inputs are of size 1e2.  By iteration 4
    # the shadow has drifted from the CG direction by 4e-10 of it, so a <d,
    # J^T g> summed from the shadowed forward products missed vdot(d, grad)
    # by 1.02e-12 of 1 + ||d|| ||grad||.
    model = make_model("mlp:1", 3, 3)
    w = np.array([
        0.5014656827651839, -0.48594246546220676, -0.13529858344433698, 0.345214720529754,
        0.5161785219675163, -0.31443619642875165, -0.946034708099655, -0.2078421207620753,
        -0.33542501075385855, 0.32624917453101077,
    ])
    X = np.array([
        [101.22937017490639, 75.36967787531172, 5.585145804087592],
        [-67.26423961318683, 9.804493922480564, -107.4703628527185],
    ])
    loss = LossOracle("squared", np.array([
        [0.22844511456019465, 0.3324214034822929, -0.5810301757695361],
        [0.46620811033746845, -0.3346756487002874, -0.736678635860569],
    ]))
    f = model.forward(w, X)
    for tau in (4, 8):
        opr = make_jacobian_operator(model, w, X)
        res = primal_gn_direction(opr, loss, f, SubproblemSpec(gamma=10.0, tau=tau, path="primal"))
        grad = batch_gradient(opr, loss, f)
        scale = 1.0 + np.linalg.norm(res.d) * np.linalg.norm(grad)
        assert abs(res.descent_inner_product - np.vdot(res.d, grad)) <= 1e-14 * scale


# The primal route descends at any budget: its <d, grad> is the CG prefix
# property <d, J^T g> >= 0, with nothing subtracted.  The draws span tau past
# convergence, gamma over 24 decades, m = 1, k = 1, duplicate and zero rows,
# inputs up to 1e2 and parameters scaled by 30, which saturates the softmax.
# The suite turns warnings into errors, so an overflow fails the test too.


@pytest.mark.parametrize(
    "relation, k", [("one", None), ("lt", 1), ("lt", None), ("eq", None), ("gt", None)]
)
@given(data=st.data())
def test_primal_direction_descends(relation, k, data):
    name = data.draw(st.sampled_from(MODELS))
    model, w, X, V = data.draw(jacobian_cases(name, relation, scales=(1.0, 1e1, 1e2), k=k))
    if data.draw(st.booleans()):
        w = 30.0 * w
    loss_kind = data.draw(st.sampled_from(["squared", "logistic"]))
    Y = V if loss_kind == "squared" else np.eye(V.shape[1])[np.argmax(V, axis=1)]
    loss = LossOracle(loss_kind, Y)
    spec = SubproblemSpec(
        gamma=10.0 ** data.draw(st.floats(-12.0, 12.0)),
        tau=data.draw(st.integers(1, 12)),
        path="primal",
    )
    opr = make_jacobian_operator(model, w, X)
    d = primal_gn_direction(opr, loss, opr.outputs, spec).d
    grad = batch_gradient(opr, loss, opr.outputs)
    scale = 1.0 + np.linalg.norm(d) * np.linalg.norm(grad)
    assert np.vdot(d, grad) >= -1e-10 * scale


def _seeded_descent_margins(path):
    """``<d, grad> / (1 + ||d|| ||grad||)`` over a fixed grid of 1728 solves:
    linear, mlp:4 and mlp:4,2 on d = 2, k = 3, m = 4; Philox keys ``[0..3,
    5]``; input scales 10 and 100; both losses; gamma 1e2, 1e3 and 1e4; and
    every tau from 1 to 12."""
    fn = primal_gn_direction if path == "primal" else dual_gn_direction
    margins = []
    for name in ("linear", "mlp:4", "mlp:4,2"):
        model = make_model(name, 2, 3)
        for key in range(4):
            w = model.init_params(key)
            for scale, kind in itertools.product((10, 100), ("squared", "logistic")):
                rng = np.random.Generator(np.random.Philox(key=[key, 5]))
                X = scale * rng.standard_normal((4, 2))
                Y = rng.standard_normal((4, 3)) if kind == "squared" else np.eye(3)[rng.integers(0, 3, 4)]
                loss = LossOracle(kind, Y)
                for gamma, tau in itertools.product((1e2, 1e3, 1e4), range(1, 13)):
                    opr = make_jacobian_operator(model, w, X)
                    d = fn(opr, loss, opr.outputs, SubproblemSpec(gamma=gamma, tau=tau, path=path)).d
                    grad = batch_gradient(opr, loss, opr.outputs)
                    margins.append(np.vdot(d, grad) / (1.0 + np.linalg.norm(d) * np.linalg.norm(grad)))
    return np.array(margins)


def test_primal_descends_on_the_seeded_search():
    # the primal's CG prefix property held on every solve (least margin 0.018)
    margins = _seeded_descent_margins("primal")
    assert margins.size == 1728
    assert np.count_nonzero(margins < -1e-10) == 0


@pytest.mark.xfail(
    strict=True,
    reason="known defect: float64 CG loses orthogonality on the dual route, which "
    "ascends in 44 of the 1728 seeded solves, the worst at -0.80 of 1 + ||d|| ||grad||",
)
def test_dual_descends_on_the_seeded_search():
    # 35 of the ascents are on the squared loss and 9 on the logistic; the
    # smallest tau that ascends is 6
    margins = _seeded_descent_margins("dual")
    assert margins.size == 1728
    assert np.count_nonzero(margins < -1e-10) == 0


@pytest.mark.xfail(
    strict=True,
    reason="known defect: with duplicate batch rows, the dual's stand-in descent dot "
    "misses the p-space one by 1.7e-11 of ||d|| ||grad||",
)
def test_dual_descent_inner_product_with_duplicate_rows():
    # Two equal rows make the hidden layer's Gram matrix K singular.  At
    # gamma=1e4 alpha = g - beta is almost all along its null space, which
    # J^T maps to zero, but <G_alpha, K G_g> still carries round-off of the
    # size of ||G_alpha|| ||K G_g||.
    rng = np.random.Generator(np.random.Philox(key=[0, 25]))
    X = 10.0 * rng.standard_normal((1, 2)).repeat(2, axis=0)
    loss = LossOracle("squared", rng.standard_normal((2, 1)))
    model = make_model("mlp:3", 2, 1)
    opr = make_jacobian_operator(model, model.init_params(0), X)
    res = dual_gn_direction(opr, loss, opr.outputs, SubproblemSpec(gamma=1e4, tau=1))
    grad = batch_gradient(opr, loss, opr.outputs)
    scale = 1.0 + np.linalg.norm(res.d) * np.linalg.norm(grad)
    assert abs(res.descent_inner_product - np.vdot(res.d, grad)) <= 1e-12 * scale


def test_descent_inner_product_sign_where_float64_cg_has_ascended():
    # An instance where float64 CG loses orthogonality: the dual route has
    # returned an ascent direction at tau=10 and, with other round-off, at
    # tau=9.  Whatever its sign, the stand-in dot must report the one that
    # the p-space dot gives.
    rng = np.random.Generator(np.random.Philox(key=[0, 5]))
    X = 10.0 * rng.standard_normal((4, 2))
    rng.integers(3, size=4)
    loss = LossOracle("squared", rng.standard_normal((4, 3)))
    model = make_model("mlp:4,2", 2, 3)
    w = model.init_params(0)
    for tau in (9, 10):
        opr = make_jacobian_operator(model, w, X)
        res = dual_gn_direction(opr, loss, opr.outputs, SubproblemSpec(gamma=1e3, tau=tau))
        want = float(np.vdot(res.d, batch_gradient(opr, loss, opr.outputs)))
        assert np.sign(res.descent_inner_product) == np.sign(want) != 0
