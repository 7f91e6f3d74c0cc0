import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualgn import (
    LossOracle,
    constraint_project,
    loss_grad,
    loss_hvp,
    loss_value,
    softmax,
)
from dualgn.losses import loss_eval
from oracles import conjugate_value, logsumexp


def test_squared_value_and_grad():
    loss = LossOracle("squared", np.array([0.0, 2.0]))
    f = np.array([1.0, 2.0])
    assert loss_value(loss, f) == 0.5
    assert_allclose(loss_grad(loss, f), [1.0, 0.0])


def test_logistic_value_at_zero_scores():
    loss = LossOracle("logistic", np.array([0.0, 1.0, 0.0]))
    f = np.zeros(3)
    assert_allclose(loss_value(loss, f), np.log(3.0))
    assert_allclose(loss_grad(loss, f), np.full(3, 1 / 3.0) - loss.y)


def test_logistic_value_stable_for_large_scores():
    loss = LossOracle("logistic", np.array([1.0, 0.0]))
    val = loss_value(loss, np.array([1000.0, 0.0]))
    assert 0.0 <= val < 1e-300


def test_logsumexp_softmax_consistency():
    rng = np.random.Generator(np.random.Philox(key=1))
    F = rng.standard_normal((6, 4)) * 5
    assert_allclose(softmax(F).sum(axis=1), np.ones(6))
    assert_allclose(softmax(F), np.exp(F - logsumexp(F)[:, None]))


def test_loss_eval_is_the_textbook_value_gradient_and_softmax_bit_for_bit():
    rng = np.random.Generator(np.random.Philox(key=4))
    F = rng.standard_normal((9, 4)) * 30
    Y = np.eye(4)[rng.integers(0, 4, 9)]
    for f, y in ((F, Y), (F[0], Y[0])):
        log = LossOracle("logistic", y)
        values, grad, soft = loss_eval(log, f)
        e = np.exp(f - f.max(axis=-1, keepdims=True))
        textbook = e / e.sum(axis=-1, keepdims=True)
        assert np.array_equal(soft, textbook) and np.array_equal(soft, softmax(f))
        assert np.array_equal(grad, textbook - y)
        assert np.array_equal(values, logsumexp(f) - np.sum(f * y, axis=-1))
        sq = LossOracle("squared", y)
        values, grad, soft = loss_eval(sq, f)
        assert np.array_equal(values, 0.5 * np.sum((f - y) ** 2, axis=-1))
        assert np.array_equal(grad, f - y) and soft is None


def test_loss_hvp_values():
    loss = LossOracle("squared", np.zeros(3))
    v = np.array([1.0, -2.0, 3.0])
    out = loss_hvp(loss, np.zeros(3), v)
    assert_allclose(out, v)
    out[0] = 99.0  # returned copy must not alias the input
    assert v[0] == 1.0

    log = LossOracle("logistic", np.array([1.0, 0.0, 0.0]))
    hv = loss_hvp(log, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert_allclose(hv, [2 / 9.0, -1 / 9.0, -1 / 9.0])


def test_loss_hvp_psd():
    rng = np.random.Generator(np.random.Philox(key=2))
    for kind in ("squared", "logistic"):
        for _ in range(20):
            y = np.eye(4)[rng.integers(4)]
            loss = LossOracle(kind, y)
            f = rng.standard_normal(4)
            v = rng.standard_normal(4)
            assert np.vdot(v, loss_hvp(loss, f, v)) >= -1e-12


def test_grad_matches_finite_differences():
    rng = np.random.Generator(np.random.Philox(key=3))
    eps = 1e-6
    for kind in ("squared", "logistic"):
        y = np.eye(3)[0] if kind == "logistic" else rng.standard_normal(3)
        loss = LossOracle(kind, y)
        f = rng.standard_normal(3)
        g = loss_grad(loss, f)
        for j in range(3):
            e = np.zeros(3)
            e[j] = eps
            fd = (loss_value(loss, f + e) - loss_value(loss, f - e)) / (2 * eps)
            assert abs(fd - g[j]) / max(1.0, abs(g[j])) <= 1e-6


def test_constraint_project_properties():
    loss = LossOracle("logistic", np.eye(3)[0])
    rng = np.random.Generator(np.random.Philox(key=5))
    B = rng.standard_normal((4, 3))
    P = constraint_project(loss, B)
    assert_allclose(P.sum(axis=1), np.zeros(4), atol=1e-14)
    assert_allclose(constraint_project(loss, P), P)
    # self-adjoint: <PA, B> == <A, PB>
    A = rng.standard_normal((4, 3))
    assert_allclose(
        np.vdot(constraint_project(loss, A), B),
        np.vdot(A, constraint_project(loss, B)),
        atol=1e-12,
    )
    sq = LossOracle("squared", np.zeros(3))
    assert_allclose(constraint_project(sq, B), B)


def test_squared_constraint_project_copies_into_out():
    sq = LossOracle("squared", np.zeros((4, 3)))
    B = np.random.Generator(np.random.Philox(key=6)).standard_normal((4, 3))
    out = np.full((4, 3), np.nan)
    assert constraint_project(sq, B, out=out) is out
    assert np.array_equal(out, B)
    assert constraint_project(sq, B, out=B) is B
    assert constraint_project(sq, B) is B  # no copy without out


def test_conjugate_values():
    loss = LossOracle("squared", np.array([0.0, 1.0]))
    assert conjugate_value(loss, np.array([1.0, 0.0])) == 0.5

    log = LossOracle("logistic", np.array([0.0, 1.0, 0.0]))
    # mu = y + alpha at a vertex has zero entropy
    assert conjugate_value(log, np.array([0.0, -1.0, 1.0])) == 0.0
    # uniform mu
    alpha = np.full(3, 1 / 3.0) - log.y
    assert_allclose(conjugate_value(log, alpha), -np.log(3.0))
    # off-simplex is infeasible
    assert conjugate_value(log, np.array([0.5, 0.0, 0.0])) == np.inf
    assert conjugate_value(log, np.array([0.5, -1.5, 1.0])) == np.inf


def test_fenchel_young_at_optimality():
    rng = np.random.Generator(np.random.Philox(key=6))
    for kind in ("squared", "logistic"):
        for _ in range(10):
            y = np.eye(3)[rng.integers(3)] if kind == "logistic" else rng.standard_normal(3)
            loss = LossOracle(kind, y)
            f = rng.standard_normal(3)
            alpha = loss_grad(loss, f)
            gap = loss_value(loss, f) + conjugate_value(loss, alpha) - np.vdot(f, alpha)
            assert abs(gap) <= 1e-9


def test_batched_rows_match_single_sample():
    rng = np.random.Generator(np.random.Philox(key=7))
    F = rng.standard_normal((5, 3))
    V = rng.standard_normal((5, 3))
    labels = rng.integers(3, size=5)
    Y = np.eye(3)[labels]
    for kind in ("squared", "logistic"):
        batch = LossOracle(kind, Y)
        vals = loss_value(batch, F)
        grads = loss_grad(batch, F)
        hvps = loss_hvp(batch, F, V)
        conj = conjugate_value(batch, loss_grad(batch, F))
        assert vals.shape == (5,)
        for i in range(5):
            single = LossOracle(kind, Y[i])
            assert_allclose(vals[i], loss_value(single, F[i]))
            assert_allclose(grads[i], loss_grad(single, F[i]))
            assert_allclose(hvps[i], loss_hvp(single, F[i], V[i]))
            assert_allclose(conj[i], conjugate_value(single, loss_grad(single, F[i])))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown loss kind"):
        LossOracle("hinge", np.zeros(3))
