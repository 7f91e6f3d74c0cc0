import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualgn import NumericError, cg_solve, projected_cg_solve
from oracles import dense_kkt_zero_sum


def _spd(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    A = rng.standard_normal((n, n))
    Q = A @ A.T + n * np.eye(n)
    c = rng.standard_normal(n)
    return Q, c


def test_identity_system_one_iteration():
    c = np.array([2.0, -1.0])
    x, rep = cg_solve(lambda v: v, c)
    assert_allclose(x, c, rtol=1e-14)
    assert rep.iterations == 1
    assert rep.operator_calls == 1


def test_diagonal_system():
    Q = np.diag([1.0, 2.0])
    x, rep = cg_solve(lambda v: Q @ v, np.array([1.0, 1.0]))
    assert_allclose(x, [1.0, 0.5], atol=1e-14)
    assert rep.iterations <= 2
    assert rep.residual_norms[-1] <= 1e-14


def test_matches_dense_solve():
    for seed in range(5):
        Q, c = _spd(12, seed)
        x, rep = cg_solve(lambda v: Q @ v, c, max_iter=200, tol=1e-12)
        assert_allclose(x, np.linalg.solve(Q, c), rtol=1e-8)
        assert len(rep.residual_norms) == rep.iterations + 1
        assert rep.residual_norms[0] == pytest.approx(np.linalg.norm(c))


def test_prefix_inner_products_nonnegative_and_monotone():
    # <x_t, c> >= 0 for every prefix, and nondecreasing in t: the increment
    # is a_t <p_{t-1}, c> with a_t > 0, so this also checks <p, c> >= 0.
    Q, c = _spd(10, 42)
    ips = []
    cg_solve(lambda v: Q @ v, c, max_iter=10, tol=0.0, callback=lambda x: ips.append(np.vdot(x, c)))
    assert len(ips) == 10
    assert all(ip >= -1e-12 for ip in ips)
    assert all(b - a >= -1e-12 for a, b in zip(ips, ips[1:]))


def test_report_inner_product_matches_solution():
    Q, c = _spd(8, 3)
    x, rep = cg_solve(lambda v: Q @ v, c, max_iter=4, tol=0.0)
    assert rep.inner_product_with_rhs == pytest.approx(np.vdot(x, c))
    assert rep.inner_product_with_rhs >= -1e-12


def test_zero_iteration_budget():
    x, rep = cg_solve(lambda v: v, np.array([1.0, 2.0]), max_iter=0)
    assert_allclose(x, 0.0)
    assert rep.iterations == 0
    assert rep.operator_calls == 0
    assert len(rep.residual_norms) == 1


def test_breakdown_returns_current_iterate():
    x, rep = cg_solve(lambda v: np.zeros_like(v), np.array([1.0, 1.0]), max_iter=5)
    assert_allclose(x, 0.0)
    assert rep.iterations == 0


def test_block_shaped_rhs():
    # the solver is shape-agnostic as long as the operator preserves shape
    Q, _ = _spd(6, 9)
    C = np.arange(6.0).reshape(3, 2)
    op = lambda B: (Q @ B.ravel()).reshape(3, 2)
    x, _ = cg_solve(op, C, max_iter=60, tol=1e-12)
    assert x.shape == (3, 2)
    assert_allclose(x.ravel(), np.linalg.solve(Q, C.ravel()), rtol=1e-8)


def test_non_finite_operator_raises():
    def bad(v):
        return np.full_like(v, np.nan)

    with pytest.raises(NumericError, match="iteration 1"):
        cg_solve(bad, np.array([1.0, 1.0]))


def test_non_finite_rhs_raises():
    with pytest.raises(NumericError, match="initial residual"):
        cg_solve(lambda v: v, np.array([1e200, 1e200]))


def test_argument_validation():
    with pytest.raises(ValueError, match="max_iter"):
        cg_solve(lambda v: v, np.ones(2), max_iter=-1)


def test_projected_reduces_to_plain_when_projector_is_identity():
    Q, c = _spd(5, 11)
    xp, _ = projected_cg_solve(lambda v: Q @ v, c, lambda v: v, max_iter=50, tol=1e-12)
    xc, _ = cg_solve(lambda v: Q @ v, c, max_iter=50, tol=1e-12)
    assert np.array_equal(xp, xc)


def test_projected_zero_sum_identity_quadratic():
    proj = lambda v: v - v.mean()
    c = np.array([1.0, -1.0])
    x, _ = projected_cg_solve(lambda v: v, c, proj, max_iter=10, tol=1e-14)
    assert_allclose(x, [1.0, -1.0], atol=1e-14)


def test_projected_zero_rhs_exits_immediately():
    proj = lambda v: v - v.mean()
    x, rep = projected_cg_solve(lambda v: v, np.array([3.0, 3.0]), proj, max_iter=10)
    assert_allclose(x, 0.0)
    assert rep.iterations == 0


def test_projected_iterates_stay_feasible():
    rng = np.random.Generator(np.random.Philox(key=12))
    m, k = 4, 3
    A = rng.standard_normal((m * k, m * k))
    Q = A @ A.T + np.eye(m * k)
    c = rng.standard_normal((m, k))
    proj = lambda B: B - B.mean(axis=1, keepdims=True)
    op = lambda B: (Q @ B.ravel()).reshape(m, k)
    seen = []
    x, _ = projected_cg_solve(op, c, proj, max_iter=m * k, tol=0.0, callback=seen.append)
    assert seen
    for it in seen + [x]:
        assert np.max(np.abs(it.sum(axis=1))) <= 1e-10


def test_projected_matches_dense_kkt_with_and_without_preconditioner():
    rng = np.random.Generator(np.random.Philox(key=13))
    m, k = 4, 3
    A = rng.standard_normal((m * k, m * k))
    Q = A @ A.T + np.eye(m * k)
    c = rng.standard_normal((m, k))
    proj = lambda B: B - B.mean(axis=1, keepdims=True)
    op = lambda B: (Q @ B.ravel()).reshape(m, k)
    want = dense_kkt_zero_sum(Q, c, m, k)

    x, rep = projected_cg_solve(op, c, proj, max_iter=10 * m * k, tol=1e-14)
    assert_allclose(x, want, atol=1e-8)
    assert rep.inner_product_with_rhs == pytest.approx(np.vdot(x, c))

    s = rng.uniform(0.5, 2.0, size=(m, k))
    seen = []
    xs, reps = projected_cg_solve(
        op, c, proj, max_iter=10 * m * k, tol=1e-14, diag_precond=s, callback=seen.append
    )
    assert_allclose(xs, want, atol=1e-8)
    # mapped-back iterates remain feasible despite the change of variables
    for it in seen + [xs]:
        assert np.max(np.abs(it.sum(axis=1))) <= 1e-10
    assert reps.inner_product_with_rhs == pytest.approx(np.vdot(xs, c))


def test_projector_contract_probe():
    with pytest.raises(ValueError, match="idempotence"):
        projected_cg_solve(lambda v: v, np.ones(3), lambda v: 0.5 * v)


def test_preconditioner_validation():
    proj = lambda v: v - v.mean()
    with pytest.raises(ValueError, match="shape"):
        projected_cg_solve(lambda v: v, np.ones(3), proj, diag_precond=np.ones(4))
    with pytest.raises(ValueError, match="positive"):
        projected_cg_solve(lambda v: v, np.ones(3), proj, diag_precond=np.array([1.0, -1.0, 1.0]))


def test_projected_stays_accurate_past_convergence():
    # budgets past the dimension (12) of a system that is singular on the
    # full space must not drift away from the constrained solution
    rng = np.random.Generator(np.random.Philox(key=14))
    m, k = 4, 3
    A = rng.standard_normal((m * k, m * k))
    Q = A @ A.T + np.eye(m * k)
    c = rng.standard_normal((m, k))
    proj = lambda B: B - B.mean(axis=1, keepdims=True)
    op = lambda B: (Q @ B.ravel()).reshape(m, k)
    want = dense_kkt_zero_sum(Q, c, m, k)
    s = rng.uniform(0.5, 2.0, size=(m, k))
    for precond in (None, s):
        for max_iter in (24, 48, 96):
            x, _ = projected_cg_solve(op, c, proj, max_iter=max_iter, tol=0.0, diag_precond=precond)
            assert np.linalg.norm(x - want) / np.linalg.norm(want) <= 1e-10
