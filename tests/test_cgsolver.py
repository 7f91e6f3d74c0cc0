import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualgn import NumericError, cg_solve, projected_cg_solve
from dualgn.cgsolver import BLOCK, cg_workspace
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
    # a budget of t returns the t-th iterate
    for max_iter in range(1, m * k + 1):
        x, _ = projected_cg_solve(op, c, proj, max_iter=max_iter, tol=0.0)
        assert np.max(np.abs(x.sum(axis=1))) <= 1e-10


def test_projected_matches_dense_kkt():
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


def test_projector_contract_probe():
    with pytest.raises(ValueError, match="idempotence"):
        projected_cg_solve(lambda v: v, np.ones(3), lambda v: 0.5 * v)


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
    for max_iter in (24, 48, 96):
        x, _ = projected_cg_solve(op, c, proj, max_iter=max_iter, tol=0.0)
        assert np.linalg.norm(x - want) / np.linalg.norm(want) <= 1e-10


def _same_solve(a, b):
    (xa, ra), (xb, rb) = a, b
    assert np.array_equal(xa, xb)
    assert vars(ra) == vars(rb)


def test_operator_may_return_its_argument_or_a_stored_array():
    # the kernel updates its own vectors in place, never an operator's output
    c = np.array([2.0, -1.0, 0.5])
    _same_solve(cg_solve(lambda v: v, c, tol=0.0), cg_solve(lambda v: v.copy(), c, tol=0.0))

    Q, c = _spd(9, 21)
    buf = np.empty(9)

    def stored(v):
        np.matmul(Q, v, out=buf)
        return buf

    _same_solve(
        cg_solve(stored, c, max_iter=6, tol=0.0), cg_solve(lambda v: Q @ v, c, max_iter=6, tol=0.0)
    )


def test_budget_and_tolerance_are_checked_by_both_solvers():
    # nan budgets and tolerances returned x = 0 after no iteration, and a
    # budget of 2.5 ran 3 iterations
    Q, c = _spd(4, 31)
    solvers = (
        lambda **kw: cg_solve(lambda v: Q @ v, c, **kw),
        lambda **kw: projected_cg_solve(lambda v: Q @ v, c, lambda v: v, **kw),
    )
    for solve in solvers:
        for bad in (np.nan, np.inf, 2.5, -1):
            with pytest.raises(ValueError, match=f"max_iter must be a nonnegative integer, got {bad}"):
                solve(max_iter=bad)
        for bad in (np.nan, np.inf, -1e-3):
            with pytest.raises(ValueError, match=f"tol must be a finite nonnegative number, got {bad}"):
                solve(tol=bad)
        _same_solve(solve(max_iter=3.0, tol=0.0), solve(max_iter=3, tol=0.0))


def test_workspace_leaves_the_solve_unchanged():
    # a workspace the caller keeps starts each solve with stale contents; the
    # residual and direction are the rows of one block, and the scratch has
    # c's shape up to one block and past it is one BLOCK, which every block
    # of an update reuses
    Q, c = _spd(9, 33)
    cases = [((9,), lambda v: Q @ v, c, (9,))]
    for shape, seed in (((2 * BLOCK + 7,), 34), ((BLOCK // 2 + 5, 3), 35)):
        cases.append((shape, *_low_rank_spd(shape, seed), (BLOCK,)))
    for shape, q_apply, c, scratch in cases:
        work = cg_workspace(shape)
        assert [a.shape for a in work] == [shape, shape, scratch]
        assert work[0].base is work[1].base and work[0].base.shape == (2, *shape)
        for a in work:
            a.fill(np.nan)
        for max_iter in (0, 1, 4, 9, 30):
            got = cg_solve(q_apply, c, max_iter=max_iter, tol=0.0, work=work)
            _same_solve(got, cg_solve(q_apply, c, max_iter=max_iter, tol=0.0))
            assert not any(np.shares_memory(got[0], a) for a in work)
        r, p, tmp = work
        for bad in (
            np.empty((3, *shape)),  # the three as one block
            (r, p),
            [r, p, tmp],
            (r, p, np.empty(tmp.size - 1)),
            (r, p, tmp.astype(np.float32)),
            (r, p.astype(np.float32), tmp),
            (r, np.empty(2 * c.size)[::2].reshape(shape), tmp),  # not C-contiguous
            (r, p, tmp[None]),
        ):
            with pytest.raises(ValueError, match="work must be a tuple of float64 arrays of shapes"):
                cg_solve(q_apply, c, work=bad)


def _textbook_cg(q_apply, c, max_iter):
    # unblocked recurrences, in the kernel's order of operations
    x, r, p = np.zeros_like(c), c.copy(), c.copy()
    rr = float(np.vdot(r, r))
    norms = [float(np.sqrt(rr))]
    for it in range(1, max_iter + 1):
        if it > 1:
            p = r + b * p
        y = q_apply(p)
        a = rr / float(np.vdot(p, y))
        x = x + a * p
        r = r - a * y
        rr_new = float(np.vdot(r, r))
        norms.append(float(np.sqrt(rr_new)))
        b, rr = rr_new / rr, rr_new
    return x, norms


def _low_rank_spd(shape, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    diag = rng.uniform(1.0, 4.0, size=shape)
    U = rng.standard_normal((3, *shape))

    def q_apply(v):
        return diag * v + np.tensordot(np.tensordot(U, v, axes=v.ndim), U, axes=1)

    return q_apply, rng.standard_normal(shape)


def test_blocked_recurrences_match_the_textbook_loop():
    # the last block is partial; the blocked updates must not move a bit, nor
    # the whole-array updates of single blocks (the dual route's m x k vectors)
    for shape, seed in (((2 * BLOCK + 7,), 41), ((32, 3), 44), ((128, 10), 45)):
        q_apply, c = _low_rank_spd(shape, seed)
        x, rep = cg_solve(q_apply, c, max_iter=6, tol=0.0)
        want, norms = _textbook_cg(q_apply, c, 6)
        assert np.array_equal(x, want)
        assert rep.residual_norms == norms


def test_fortran_ordered_arrays_give_the_c_ordered_solution():
    # the kernel's x is C-ordered whatever c's layout, and it keeps a
    # C-ordered copy of a projection returned in another layout, so the
    # blocked updates write through their flat views; a copy would lose them
    q_apply, c = _low_rank_spd((BLOCK // 2 + 5, 3), 42)
    f = np.asfortranarray(c)
    assert not f.flags.c_contiguous and f.size > BLOCK
    _same_solve(cg_solve(q_apply, f, max_iter=5, tol=0.0), cg_solve(q_apply, c, max_iter=5, tol=0.0))

    Q, _ = _spd(12, 43)
    op = lambda B: (Q @ B.ravel()).reshape(4, 3)
    proj = lambda B: B - B.mean(axis=1, keepdims=True)
    _same_solve(
        projected_cg_solve(op, c[:4], lambda B: np.asfortranarray(proj(B)), max_iter=8, tol=0.0),
        projected_cg_solve(op, c[:4], proj, max_iter=8, tol=0.0),
    )
