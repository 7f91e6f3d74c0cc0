"""Self-check suites for the `verify` CLI subcommand.

Each suite builds small random instances, measures the relevant invariant,
and reports measured-vs-tolerance lines.  Suites return ``(ok, lines)``;
failures flip ``ok`` without raising so the CLI can report them with a
dedicated exit code.
"""

import numpy as np

from .cgsolver import _seed_range, projected_cg_solve
from .directions import (
    SubproblemSpec,
    batch_gradient,
    dual_gn_direction,
    primal_gn_direction,
)
from .linop import adjoint_dot_test, finite_diff_jvp, make_jacobian_operator
from .losses import LOSS_KINDS, LossOracle
from .models import make_model

__all__ = ["SUITES", "run_suite"]

ADJOINT_TOL = 1e-10
FD_TOL = 1e-5
DESCENT_TOL = -1e-10
DUALITY_TOL = 1e-6
CONSTRAINT_TOL = 1e-10
KKT_TOL = 1e-8

_INSTANCES = (
    ("linear", 3, 2, 5),
    ("mlp:5", 3, 2, 6),
    ("mlp:4,4", 2, 3, 4),
)


def _make_instance(model_name, in_dim, out_dim, m, seed):
    rng = np.random.Generator(np.random.Philox(key=[seed, 7]))
    model = make_model(model_name, in_dim, out_dim)
    w = model.init_params(seed)
    X = rng.standard_normal((m, in_dim))
    labels = rng.integers(out_dim, size=m)
    Y = np.eye(out_dim)[labels]
    return model, w, X, Y


def _cases(seed, kinds):
    """Each of ``_INSTANCES`` under each loss kind in ``kinds``, in that order.

    Yields ``(i, model, w, X, loss, opr)``: instance ``i``, drawn from seed
    ``seed + i``, its loss oracle and a new Jacobian operator at ``w``.
    """
    for i, (name, d, k, m) in enumerate(_INSTANCES):
        for kind in kinds:
            model, w, X, Y = _make_instance(name, d, k, m, seed + i)
            yield i, model, w, X, LossOracle(kind, Y), make_jacobian_operator(model, w, X)


def adjoint_suite(seed=0):
    """Adjoint identity <Ju, V> == <u, J^T V> and finite-difference jvp."""
    lines = []
    ok = True
    worst_adj = 0.0
    worst_fd = 0.0
    for i, model, w, X, _, opr in _cases(seed, LOSS_KINDS[:1]):  # the loss is unused
        worst_adj = max(worst_adj, adjoint_dot_test(opr, seed=seed + i, trials=20))
        rng = np.random.Generator(np.random.Philox(key=[seed + i, 11]))
        for _ in range(5):
            u = rng.standard_normal(model.n_params)
            exact = model.jvp(w, X, u)
            approx = finite_diff_jvp(model, w, X, u)
            rel = float(
                np.linalg.norm(approx - exact) / max(1.0, np.linalg.norm(exact))
            )
            worst_fd = max(worst_fd, rel)
    ok &= worst_adj <= ADJOINT_TOL
    ok &= worst_fd <= FD_TOL
    lines.append(f"adjoint max relative error {worst_adj:.3e} (tol {ADJOINT_TOL:.0e})")
    lines.append(f"finite-diff jvp max relative error {worst_fd:.3e} (tol {FD_TOL:.0e})")
    return bool(ok), lines


def descent_suite(seed=0):
    """<d, batch gradient> >= 0 for truncated solves on both routes."""
    lines = []
    worst = np.inf
    count = 0
    for _, _, _, _, oracle, opr in _cases(seed, LOSS_KINDS):
        grad = batch_gradient(opr, oracle, opr.outputs)
        for path in ("primal", "dual"):
            for tau in (1, 2, 4, 8):
                spec = SubproblemSpec(gamma=0.7, tau=tau, path=path)
                fn = primal_gn_direction if path == "primal" else dual_gn_direction
                res = fn(opr, oracle, opr.outputs, spec)
                # <d, grad> in parameter space, independent of how the
                # route computes its own descent inner product
                scale = 1.0 + float(
                    np.linalg.norm(res.d) * np.linalg.norm(grad)
                )
                worst = min(worst, float(np.vdot(res.d, grad)) / scale)
                count += 1
    ok = worst >= DESCENT_TOL
    lines.append(
        f"min normalized descent inner product {worst:.3e} over {count} solves "
        f"(tol {DESCENT_TOL:.0e})"
    )
    return bool(ok), lines


def duality_suite(seed=0):
    """Primal and dual routes agree when both CG solves run to convergence."""
    lines = []
    worst = 0.0
    for _, _, _, _, oracle, opr in _cases(seed, LOSS_KINDS):
        p, m, k = opr.dims
        res_p = primal_gn_direction(
            opr,
            oracle,
            opr.outputs,
            SubproblemSpec(gamma=2.5, tau=4 * p, path="primal", tol=1e-14),
        )
        res_d = dual_gn_direction(
            opr,
            oracle,
            opr.outputs,
            SubproblemSpec(gamma=2.5, tau=4 * m * k, path="dual", tol=1e-14),
        )
        rel = float(
            np.linalg.norm(res_p.d - res_d.d)
            / max(1.0, np.linalg.norm(res_d.d))
        )
        worst = max(worst, rel)
    ok = worst <= DUALITY_TOL
    lines.append(
        f"max primal/dual direction mismatch {worst:.3e} (tol {DUALITY_TOL:.0e})"
    )
    return bool(ok), lines


def constraints_suite(seed=0):
    """Dual iterates stay feasible; projected CG matches a dense KKT solve."""
    lines = []
    ok = True

    worst_feas = 0.0
    for _, _, _, _, oracle, opr in _cases(seed, ("logistic",)):
        iterates = []
        dual_gn_direction(
            opr,
            oracle,
            opr.outputs,
            SubproblemSpec(gamma=1.3, tau=6, path="dual"),
            callback=iterates.append,
        )
        for beta in iterates:
            worst_feas = max(worst_feas, float(np.max(np.abs(beta.sum(axis=1)))))
    ok &= worst_feas <= CONSTRAINT_TOL
    lines.append(
        f"max dual iterate row-sum violation {worst_feas:.3e} "
        f"(tol {CONSTRAINT_TOL:.0e})"
    )

    # Dense cross-check of the projected solver on a random zero-sum QP.
    rng = np.random.Generator(np.random.Philox(key=[seed, 13]))
    m, k = 5, 3
    A = rng.standard_normal((m * k, m * k))
    Q = A @ A.T + np.eye(m * k)
    c = rng.standard_normal((m, k))
    proj = lambda B: B - B.mean(axis=1, keepdims=True)
    q_apply = lambda B: (Q @ B.ravel()).reshape(m, k)
    x, _ = projected_cg_solve(q_apply, c, proj, max_iter=10 * m * k, tol=1e-14)

    # KKT system: rows of C span the per-sample mean directions.
    C = np.zeros((m, m * k))
    for i in range(m):
        C[i, i * k : (i + 1) * k] = 1.0
    K = np.block([[Q, C.T], [C, np.zeros((m, m))]])
    rhs = np.concatenate([proj(c).ravel(), np.zeros(m)])
    sol = np.linalg.lstsq(K, rhs, rcond=None)[0][: m * k].reshape(m, k)
    err = float(np.linalg.norm(x - sol) / max(1.0, np.linalg.norm(sol)))
    ok &= err <= KKT_TOL
    lines.append(f"projected CG vs dense KKT error {err:.3e} (tol {KKT_TOL:.0e})")
    return bool(ok), lines


def cost_suite(seed=0):
    """Operator-call budget (jvp=tau, vjp=tau+1) and dual vector-op advantage."""
    lines = []
    ok = True
    # Wide instance: parameter count well above m*k so the dual's small
    # output-space vectors dominate the comparison.
    model, w, X, Y = _make_instance("linear", 40, 2, 4, seed)
    tau = 5
    counts = {}
    for path, fn in (("primal", primal_gn_direction), ("dual", dual_gn_direction)):
        for loss_kind in LOSS_KINDS:
            opr = make_jacobian_operator(model, w, X)
            oracle = LossOracle(loss_kind, Y)
            res = fn(opr, oracle, opr.outputs, SubproblemSpec(gamma=1.0, tau=tau, path=path))
            good = opr.jvp_calls == tau and opr.vjp_calls == tau + 1
            ok &= good
            counts[(path, loss_kind)] = res.report.vector_op_scalar_count
            lines.append(
                f"{path}/{loss_kind}: jvp={opr.jvp_calls} vjp={opr.vjp_calls} "
                f"(want {tau}, {tau + 1}); scalar ops "
                f"{res.report.vector_op_scalar_count}"
            )
    for loss_kind in LOSS_KINDS:
        cheaper = counts[("dual", loss_kind)] < counts[("primal", loss_kind)]
        ok &= cheaper
        lines.append(
            f"dual vector-op advantage ({loss_kind}): "
            f"{counts[('dual', loss_kind)]} < {counts[('primal', loss_kind)]}: "
            f"{'yes' if cheaper else 'NO'}"
        )
    return bool(ok), lines


SUITES = {
    "adjoint": adjoint_suite,
    "descent": descent_suite,
    "duality": duality_suite,
    "constraints": constraints_suite,
    "cost": cost_suite,
}


def run_suite(name, seed=0):
    """Run one suite (or 'all'); returns (ok, lines).

    Raises ValueError on an unknown suite or a seed outside [0, 2**63).
    """
    _seed_range(seed)
    if name == "all":
        ok = True
        lines = []
        for key in SUITES:
            sub_ok, sub_lines = SUITES[key](seed=seed)
            ok &= sub_ok
            lines.append(f"[{key}] {'ok' if sub_ok else 'FAILED'}")
            lines.extend("  " + ln for ln in sub_lines)
        return ok, lines
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed=seed)
