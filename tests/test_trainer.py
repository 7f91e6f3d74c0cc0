import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualgn import (
    Dataset,
    LossOracle,
    MLPModel,
    NumericError,
    OptimizerState,
    Regularizer,
    SubproblemSpec,
    TrainConfig,
    armijo_spl_step,
    batch_gradient,
    dual_gn_direction,
    loss_value,
    make_jacobian_operator,
    make_model,
    outer_update,
    regularized_dual_direction,
    spl_step,
    synth_blobs,
    train,
)
from dualgn import directions
from dualgn.cgsolver import BLOCK
from dualgn.trainer import DIRECTIONS, METHODS, METRICS_CHUNK, _armijo_backtrack, _full_metrics
from oracles import adam_trajectory, momentum_trajectory, sgd_trajectory


def test_config_validation():
    with pytest.raises(ValueError, match="method"):
        TrainConfig(method="newton")
    with pytest.raises(ValueError, match="direction"):
        TrainConfig(direction="hessian")
    with pytest.raises(ValueError, match="gamma"):
        TrainConfig(gamma=-1.0)
    with pytest.raises(ValueError, match="combined"):
        TrainConfig(l1=0.1, l2=0.1)
    with pytest.raises(ValueError, match="proxlinear"):
        TrainConfig(l1=0.1, direction="gradient")
    with pytest.raises(ValueError, match="proxlinear"):
        TrainConfig(l1=0.1, path="primal")
    with pytest.raises(ValueError, match="proxlinear"):
        TrainConfig(l2=0.1, method="armijo_spl")
    assert TrainConfig(l2=0.1).regularizer().kind == "l2"
    assert TrainConfig().regularizer() is None


def _armijo_search(h, w, d, g):
    """The trainer's line search, with ``h(w)`` and ``<d, g>`` formed here."""
    return _armijo_backtrack(h, w, d, h(w), float(np.vdot(d, g)))


def test_armijo_quadratic_accepts_full_step():
    h = lambda w: 0.5 * float(w @ w)
    w = np.array([1.0])
    eta, accepted = _armijo_search(h, w, np.array([1.0]), np.array([1.0]))
    assert (eta, accepted) == (1.0, True)


def test_armijo_backtracks_once_on_quartic():
    # h(w) = w^4 at w=1 with d=2: eta=1 overshoots to h(-1)=1, eta=0.5 lands
    # on h(0)=0, so exactly one backtrack happens
    h = lambda w: float(w[0] ** 4)
    w = np.array([1.0])
    d = np.array([2.0])
    g = np.array([4.0])
    eta, accepted = _armijo_search(h, w, d, g)
    assert (eta, accepted) == (0.5, True)


def test_armijo_zero_direction_accepts_eta0():
    h = lambda w: 0.5 * float(w @ w)
    eta, accepted = _armijo_search(h, np.array([1.0]), np.zeros(1), np.zeros(1))
    assert (eta, accepted) == (1.0, True)


def test_armijo_exhaustion_returns_smallest_eta(monkeypatch):
    # a function that rises in every direction from w rejects every trial
    h = lambda w: float(abs(w[0] - 1.0))
    w, d, g = np.array([1.0]), np.array([1.0]), np.array([1.0])
    monkeypatch.setattr(TrainConfig, "armijo_max_backtracks", 3)
    eta, accepted = _armijo_search(h, w, d, g)
    assert not accepted
    assert eta == pytest.approx(0.5**3)
    # the search reads its shrink and budget from TrainConfig
    monkeypatch.setattr(TrainConfig, "armijo_shrink", 0.25)
    monkeypatch.setattr(TrainConfig, "armijo_max_backtracks", 1)
    assert _armijo_backtrack(h, w, d, h(w), 1.0) == (0.25, False)


def test_backtrack_budget_must_be_a_nonnegative_integer(monkeypatch):
    h = lambda w: float(abs(w[0] - 1.0))
    w, d, g = np.array([1.0]), np.array([1.0]), np.array([1.0])
    # a zero budget still tries eta 1 once
    monkeypatch.setattr(TrainConfig, "armijo_max_backtracks", 0)
    assert _armijo_search(h, w, d, g) == (1.0, False)


def test_unknown_loss_is_rejected():
    with pytest.raises(ValueError, match=r"loss must be one of \('squared', 'logistic'\), got 'hinge'"):
        TrainConfig(loss="hinge")


def test_seed_must_be_a_nonnegative_integer():
    # a negative seed used to reach the Philox key and fail with a raw traceback
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {bad}"):
            TrainConfig(seed=bad)
    assert TrainConfig(seed=3.0).seed == 3


def test_float_settings_must_be_finite_with_the_right_sign():
    for key, bad in (("gamma", np.inf), ("gamma", np.nan), ("gamma", 0.0), ("eta", np.inf),
                     ("eta", -0.1), ("l1", np.nan), ("l1", -0.1), ("l2", np.inf)):
        with pytest.raises(ValueError, match=f"{key} must be a finite"):
            TrainConfig(**{key: bad})
    for bad in (np.inf, np.nan, -1e-3):
        with pytest.raises(ValueError, match="tol must be a finite nonnegative number"):
            SubproblemSpec(tol=bad)
    with pytest.raises(ValueError, match="gamma must be a finite positive number"):
        SubproblemSpec(gamma=np.inf)
    assert TrainConfig(gamma=1e300, eta=1e-300, l2=0.0).gamma == 1e300


def test_seed_must_lie_below_2_pow_63():
    # the shuffle key [seed, 1] turned float64 at 2**63, so 2**63 and 2**63 + 5
    # drew the same shuffle
    for bad in (2**63, 2**63 + 5, 2**64):
        with pytest.raises(ValueError, match=rf"below 2\*\*63, got {bad}$"):
            TrainConfig(seed=bad)
    ds = synth_blobs(0, n=8, d=2, k=2, spread=0.3)
    res = train(TrainConfig(seed=2**63 - 1, batch_size=4, epochs=2), ds)
    assert len(res.records) == 4 and not res.aborted


def _quad_grad(w):
    return np.array([2.0, 0.5]) * w


@pytest.mark.parametrize("rule", ["sgd", "momentum", "adam"])
def test_outer_update_matches_textbook_recursion(rule):
    config = TrainConfig(method=rule if rule != "sgd" else "sgd")
    w0 = np.array([1.0, -2.0])
    eta = 0.1
    state = OptimizerState()
    w = w0.copy()
    ours = []
    for _ in range(3):
        w = outer_update(rule, state, w, _quad_grad(w), eta, config)
        ours.append(w.copy())
    if rule == "sgd":
        want = sgd_trajectory(w0, _quad_grad, eta, 3)
    elif rule == "momentum":
        want = momentum_trajectory(w0, _quad_grad, eta, 3, mu=0.9)
    else:
        want = adam_trajectory(w0, _quad_grad, eta, 3)
    for a, b in zip(ours, want):
        assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def _out_of_place_update(rule, ref, w, d, eta, config):
    # the update formulas as written, each expression into a fresh array
    if rule == "sgd":
        return w - eta * d
    if rule == "momentum":
        ref["v"] = config.momentum_mu * ref.get("v", np.zeros_like(w)) + d
        return w - eta * ref["v"]
    b1, b2 = config.adam_beta1, config.adam_beta2
    ref["t"] = t = ref.get("t", 0) + 1
    ref["m"] = b1 * ref.get("m", np.zeros_like(w)) + (1.0 - b1) * d
    ref["v"] = b2 * ref.get("v", np.zeros_like(w)) + (1.0 - b2) * d * d
    mhat = ref["m"] / (1.0 - b1**t)
    vhat = ref["v"] / (1.0 - b2**t)
    return w - eta * mhat / (np.sqrt(vhat) + config.adam_eps)


@pytest.mark.parametrize("rule", ["sgd", "momentum", "adam"])
def test_outer_update_in_place_matches_out_of_place_formulas(rule):
    config = TrainConfig(method=rule)
    rng = np.random.Generator(np.random.Philox(key=31))
    w_fresh = w_reuse = w_ref = rng.standard_normal(40)
    fresh, reuse, ref = OptimizerState(), OptimizerState(), {}
    arrays = None
    for _ in range(5):
        d = rng.standard_normal(40)
        w0, d0 = w_fresh.copy(), d.copy()
        w_ref = _out_of_place_update(rule, ref, w_ref, d, 0.05, config)
        got = outer_update(rule, fresh, w_fresh, d, 0.05, config)
        assert np.array_equal(got, w_ref)
        assert np.array_equal(w_fresh, w0) and np.array_equal(d, d0)
        w_fresh = got
        w_reuse = outer_update(rule, reuse, w_reuse, d, 0.05, config, out=d)
        assert np.array_equal(w_reuse, w_ref)
        state = (reuse.velocity, reuse.adam_m, reuse.adam_v)
        if arrays is not None:
            assert all(a is b for a, b in zip(state, arrays))
        arrays = state


@pytest.mark.parametrize("path", ["dual", "primal"])
@pytest.mark.parametrize("method", ["momentum", "adam", "sgd", "spl"])
def test_steady_state_step_allocation_budget(path, method):
    # p = 13,514 >> m k = 160.  A steady-state step's traced peak above its
    # start, in parameter vectors, counts the p-length arrays it holds at
    # once; each arithmetic expression into a fresh array adds to it.
    assert _steady_step_peak(method, path) <= (4.0 if path == "dual" else 7.0)


def _steady_step_peak(method, path):
    """The largest traced peak above a step's start, in parameter vectors,
    over steps 9-14 (the second epoch, neither its first nor its last step)."""
    data = synth_blobs(0, n=128, d=200, k=10, spread=0.5)
    config = TrainConfig(
        method=method, path=path, loss="logistic", model="mlp:64", tau=4,
        batch_size=16, epochs=2, eta=0.05,
    )
    p = make_model(config.model, 200, 10).n_params
    marks = []

    def on_record(rec):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        train(config, data, on_record=on_record)
    finally:
        tracemalloc.stop()
    return max((marks[i][1] - marks[i - 1][0]) / (8 * p) for i in range(9, 15))


def test_dual_direction_makes_no_parameter_vector_per_iteration():
    # The problem of test_steady_state_step_allocation_budget, where every
    # layer's fan-in exceeds m = 16: the dual iterations carry J^T beta as
    # 16 x 64 and 16 x 10 cotangents, so the call's peak does not grow with tau.
    data = synth_blobs(0, n=128, d=200, k=10, spread=0.5)
    model = make_model("mlp:64", 200, 10)
    w = model.init_params(0)
    X, loss = data.inputs[:16], LossOracle("logistic", data.targets[:16])
    peaks = []
    for tau in (1, 16):
        opr = make_jacobian_operator(model, w, X)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            dual_gn_direction(opr, loss, opr.outputs, SubproblemSpec(gamma=1.0, tau=tau))
            peaks.append((tracemalloc.get_traced_memory()[1] - start) / (8 * model.n_params))
        finally:
            tracemalloc.stop()
        assert (opr.jvp_calls, opr.vjp_calls) == (tau, tau + 1)
    assert peaks[1] <= peaks[0] + 0.5


def _dual_call_peak(reg, tau=4):
    """Traced peak of one dual direction call, in parameter vectors, on the
    problem of test_dual_direction_makes_no_parameter_vector_per_iteration."""
    data = synth_blobs(0, n=128, d=200, k=10, spread=0.5)
    model = make_model("mlp:64", 200, 10)
    w = model.init_params(0)
    X, loss = data.inputs[:16], LossOracle("logistic", data.targets[:16])
    opr = make_jacobian_operator(model, w, X)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        regularized_dual_direction(opr, loss, opr.outputs, SubproblemSpec(tau=tau), w, reg)
        return (tracemalloc.get_traced_memory()[1] - start) / (8 * model.n_params)
    finally:
        tracemalloc.stop()


def test_unpenalized_dual_step_holds_one_parameter_vector():
    # Every vector of an unpenalized dual step lies in the range of J^T, so
    # the gradient, the right-hand side, the map-back and the descent inner
    # product are taken from stand-ins, and d is the one p-length array a
    # call makes (measured 1.53, against 2.35 when the gradient was a
    # p-vector).  A momentum step adds its velocity update (1.97, was 2.79).
    assert _dual_call_peak(Regularizer()) <= 1.9
    assert _steady_step_peak("momentum", "dual") <= 2.4


@pytest.mark.parametrize("kind, lam", [("l1", 0.01), ("l2", 0.3)])
def test_penalized_dual_direction_allocation_budget(kind, lam):
    # The prox right-hand side and map-back are formed in place: J^T g, the
    # right-hand side and one prox output at most (measured 3.51 for both
    # penalties, against 6.33 for l1 and 4.33 for l2 from fresh temporaries).
    assert _dual_call_peak(Regularizer(kind, lam)) <= 4.0


@pytest.mark.parametrize("method", ["momentum", "adam", "sgd", "spl"])
def test_steady_state_primal_step_allocation_budget(method):
    # The setup of test_steady_state_step_allocation_budget.  The run's CG
    # workspace is allocated before the first step, so a step's own peak
    # holds no residual, search direction or scratch vector.
    assert _steady_step_peak(method, "primal") <= 4.5


def test_primal_workspace_is_one_block_for_the_whole_run(monkeypatch):
    # p = 83 is one block, where the scratch is a third vector; p = 19,459
    # is past BLOCK, where the scratch is one block
    blocks = []
    solve = directions.cg_solve

    def spy(q_apply, c, *args, work=None, **kwargs):
        def q(d, D):
            blocks.append(work)
            assert any(np.shares_memory(d, a) for a in work)
            return q_apply(d, D)

        return solve(q, c, *args, work=work, **kwargs)

    monkeypatch.setattr(directions, "cg_solve", spy)
    for d_in, model in ((6, "mlp:8"), (300, "mlp:64")):
        blocks.clear()
        data = synth_blobs(0, n=48, d=d_in, k=3, spread=0.5)
        config = TrainConfig(
            method="momentum", path="primal", loss="logistic", model=model, tau=3,
            batch_size=16, epochs=2,
        )
        result = train(config, data)
        p = result.model.n_params
        assert len(blocks) == 6 * 3
        assert all(b is blocks[0] for b in blocks)
        assert [a.shape for a in blocks[0]] == [(p,), (p,), (p,) if p <= BLOCK else (BLOCK,)]
        assert not any(np.shares_memory(result.params, a) for a in blocks[0])


def test_primal_round_allocation_budget_past_one_block():
    # A whole primal training round, workspace included, on a problem with
    # p = 128,259 parameters (7.8 BLOCKs).  At tau = 16 each solve drops its
    # shadow after 11 iterations, so its last 5 products (15 in the round)
    # are plain ones, which add their ridge shift through the scratch.  The
    # workspace's scratch is one block, and J^T g is made in its residual
    # and not kept: measured 6.42 vectors, against 7.42 with J^T g kept
    # beside the workspace and 8.30 with a whole scratch vector as well.
    data = synth_blobs(0, n=48, d=2000, k=3, spread=0.5)
    config = TrainConfig(
        method="momentum", path="primal", loss="logistic", model="mlp:64", tau=16,
        batch_size=16, epochs=1, eta=0.05,
    )
    p = make_model(config.model, 2000, 3).n_params
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train(config, data)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak / (8 * p) <= 6.5


def test_adam_first_step_closed_form():
    config = TrainConfig(method="adam")
    w = np.array([1.0, -3.0])
    c = np.array([0.4, -0.2])
    state = OptimizerState()
    out = outer_update("adam", state, w, c, 0.05, config)
    want = w - 0.05 * c / (np.abs(c) + config.adam_eps)
    assert_allclose(out, want, rtol=1e-12)


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="unknown update rule"):
        outer_update("rmsprop", OptimizerState(), np.zeros(2), np.zeros(2), 0.1, TrainConfig())


def _tiny_batch(seed=0, m=8, d=2, k=2):
    rng = np.random.Generator(np.random.Philox(key=seed))
    X = rng.standard_normal((m, d))
    Y = rng.standard_normal((m, k))
    return X, Y


def test_spl_step_zero_gradient_is_identity():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]])
    config = TrainConfig(method="spl", loss="squared", model="linear", tau=4)
    w = np.eye(2).ravel()
    w_new = spl_step(w, (X, X), config)
    assert np.array_equal(w_new, w)


def test_spl_step_matches_direction_call():
    X, Y = _tiny_batch(3)
    config = TrainConfig(method="spl", gamma=0.6, tau=3, model="linear", loss="squared")
    model = make_model("linear", 2, 2)
    w = model.init_params(7)
    w_new = spl_step(w, (X, Y), config, model=model)
    loss = LossOracle("squared", Y)
    f = model.forward(w, X)
    res = dual_gn_direction(
        make_jacobian_operator(model, w, X), loss, f, SubproblemSpec(gamma=0.6, tau=3)
    )
    assert np.array_equal(w_new, w - res.d)
    with pytest.raises(ValueError, match="spl_step"):
        spl_step(w, (X, Y), TrainConfig(method="sgd"))


@pytest.mark.parametrize("kind, lam", [("l1", 0.01), ("l2", 0.3)])
@pytest.mark.parametrize("loss_kind", ["squared", "logistic"])
def test_penalized_spl_step_matches_the_regularized_direction(kind, lam, loss_kind):
    ds = synth_blobs(4, n=8, d=2, k=3, spread=0.3)
    X, Y = ds.inputs, ds.targets
    config = TrainConfig(method="spl", gamma=0.6, tau=3, model="mlp:4", loss=loss_kind,
                         **{kind: lam})
    model = make_model("mlp:4", 2, 3)
    w = model.init_params(7)
    w_new = spl_step(w, (X, Y), config, model=model)
    opr = make_jacobian_operator(model, w, X)
    res = regularized_dual_direction(
        opr, LossOracle(loss_kind, Y), opr.outputs, SubproblemSpec(gamma=0.6, tau=3), w,
        Regularizer(kind, lam),
    )
    assert np.array_equal(w_new, w - res.d)
    unpenalized = TrainConfig(method="spl", gamma=0.6, tau=3, model="mlp:4", loss=loss_kind)
    assert not np.array_equal(w_new, spl_step(w, (X, Y), unpenalized, model=model))


def test_spl_step_norm_monotone_in_gamma():
    X, Y = _tiny_batch(5)
    model = make_model("mlp:4", 2, 2)
    w = model.init_params(5)
    norms = []
    for gamma in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        config = TrainConfig(method="spl", gamma=gamma, tau=16, model="mlp:4", loss="squared")
        w_new = spl_step(w, (X, Y), config, model=model)
        norms.append(float(np.linalg.norm(w_new - w)))
    assert all(a < b for a, b in zip(norms, norms[1:]))
    assert norms[0] < 1e-3  # the step vanishes as gamma -> 0


def test_spl_step_huge_gamma_hits_ridge_limit():
    rng = np.random.Generator(np.random.Philox(key=91))
    X = rng.standard_normal((12, 6))
    Y = rng.standard_normal((12, 1))
    model = make_model("linear", 6, 1)
    w = model.init_params(91)
    config = TrainConfig(
        method="spl", gamma=1e9, tau=200, model="linear", loss="squared", path="primal"
    )
    w_new = spl_step(w, (X, Y), config, model=model)
    d = w - w_new
    residual = (model.forward(w, X) - Y).ravel()
    want = np.linalg.pinv(X) @ residual
    assert np.linalg.norm(d - want) / max(1.0, np.linalg.norm(want)) <= 1e-6


def test_armijo_spl_step_decreases_batch_loss():
    X, Y = _tiny_batch(9, m=12)
    config = TrainConfig(method="armijo_spl", tau=2, model="mlp:4", loss="squared")
    model = make_model("mlp:4", 2, 2)
    w = model.init_params(9)
    oracle = LossOracle("squared", Y)
    for _ in range(5):
        before = float(np.mean(loss_value(oracle, model.forward(w, X))))
        w_new, eta = armijo_spl_step(w, (X, Y), config, model=model)
        after = float(np.mean(loss_value(oracle, model.forward(w_new, X))))
        assert after <= before
        assert 0 < eta <= 1.0
        w = w_new
    with pytest.raises(ValueError, match="armijo_spl_step"):
        armijo_spl_step(w, (X, Y), TrainConfig(method="spl"))


def test_armijo_spl_accepted_steps_satisfy_inequality():
    # 200-step run; each accepted step is re-checked on its own batch
    ds = synth_blobs(4, n=96, d=2, k=3, spread=0.4)
    config = TrainConfig(
        method="armijo_spl", loss="logistic", model="mlp:6", tau=2, batch_size=24,
        epochs=50, seed=4,
    )
    model = make_model("mlp:6", 2, 3)
    w = model.init_params(config.seed)
    shuffle = np.random.Generator(np.random.Philox(key=[config.seed, 1]))
    checked = 0
    for _ in range(config.epochs):
        perm = shuffle.permutation(ds.n)
        for start in range(0, ds.n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            Xb, Yb = ds.inputs[idx], ds.targets[idx]
            oracle = LossOracle("logistic", Yb)
            f = model.forward(w, Xb)
            res = dual_gn_direction(
                make_jacobian_operator(model, w, Xb), oracle, f,
                SubproblemSpec(gamma=1.0, tau=2),
            )
            h = lambda v: float(np.mean(loss_value(oracle, model.forward(v, Xb))))
            dg = max(res.descent_inner_product, 0.0)
            w_new, eta = armijo_spl_step(w, (Xb, Yb), config, model=model)
            assert np.array_equal(w_new, w - eta * res.d)
            assert h(w - eta * res.d) <= h(w) - config.armijo_beta * eta * dg
            w = w_new
            checked += 1
    assert checked == 200


def _count_forward_traces(monkeypatch, model):
    calls = []
    original = type(model).forward_trace

    def counted(self, params, X, **kwargs):
        calls.append(1)
        return original(self, params, X, **kwargs)

    monkeypatch.setattr(type(model), "forward_trace", counted)
    return calls


def test_step_evaluates_the_model_once(monkeypatch):
    ds = synth_blobs(6, n=48, d=2, k=3, spread=0.4)
    for name in ("linear", "mlp:5"):
        model = make_model(name, 2, 3)
        calls = _count_forward_traces(monkeypatch, model)
        w = model.init_params(6)
        spl_step(w, (ds.inputs[:16], ds.targets[:16]), TrainConfig(method="spl", model=name))
        assert len(calls) == 1
        # in a run, only the step that ends an epoch adds the full-dataset metrics
        calls.clear()
        per_step = []
        config = TrainConfig(
            method="momentum", loss="logistic", model=name, batch_size=16, epochs=2
        )
        train(config, ds, on_record=lambda rec: per_step.append(len(calls)))
        assert np.diff([1] + per_step).tolist() == [1, 1, 2] * 2


def test_full_metrics_run_in_bounded_row_chunks(monkeypatch):
    ds = synth_blobs(8, n=600, d=5, k=3, spread=0.4)
    rows = []
    one_pass = MLPModel.forward
    monkeypatch.setattr(
        MLPModel, "forward", lambda self, p, X: rows.append(len(X)) or one_pass(self, p, X)
    )
    for name, chunks in (("mlp:128", [256, 256, 88]), ("mlp:200,16", [163] * 3 + [111])):
        model = make_model(name, 5, 3)
        w = model.init_params(8)
        f = one_pass(model, w, ds.inputs)
        for kind in ("logistic", "squared"):
            rows.clear()
            got = _full_metrics(model, w, ds.inputs, ds.targets, kind)
            # every chunk's widest activation holds at most METRICS_CHUNK floats
            assert rows == chunks and max(rows) * max(model.dims[1:]) <= METRICS_CHUNK
            # a BLAS call may round a shorter block differently
            assert got[0] == pytest.approx(
                float(np.mean(loss_value(LossOracle(kind, ds.targets), f))), rel=1e-14
            )
            assert got[1] == float(np.mean(np.argmax(f, 1) == np.argmax(ds.targets, 1)))
            # lists, as the benchmark's tests pass them
            assert _full_metrics(model, w, ds.inputs.tolist(), ds.targets.tolist(), kind) == got
            # a run's oracle and labels, built once, alone or together
            oracle, labels = LossOracle(kind, ds.targets), np.argmax(ds.targets, axis=1)
            assert _full_metrics(model, w, ds.inputs, ds.targets, kind, oracle) == got
            assert _full_metrics(model, w, ds.inputs, ds.targets, kind, oracle, labels) == got
    # a layer wider than the bound still makes progress, a row at a time
    model = make_model("mlp:40000", 2, 2)
    rows.clear()
    _full_metrics(model, model.init_params(0), ds.inputs[:3, :2], ds.targets[:3, :2], "logistic")
    assert rows == [1, 1, 1]


def test_armijo_step_evaluates_the_model_once_plus_once_per_trial(monkeypatch):
    ds = synth_blobs(7, n=96, d=2, k=3, spread=0.4)
    config = TrainConfig(method="armijo_spl", loss="logistic", model="mlp:6", tau=2)
    model = make_model("mlp:6", 2, 3)
    calls = _count_forward_traces(monkeypatch, model)
    w = model.init_params(7)
    total_trials = 0
    for start in range(0, 96, 24):
        # inputs scaled by 10 make the full step overshoot, so steps backtrack
        batch = (10.0 * ds.inputs[start : start + 24], ds.targets[start : start + 24])
        calls.clear()
        w, eta = armijo_spl_step(w, batch, config, model=model)
        trials = round(np.log2(1.0 / eta)) + 1  # the last trial was eta = 0.5**(trials - 1)
        assert len(calls) == 1 + trials
        total_trials += trials
    assert total_trials > 8  # steps backtracked


def test_train_deterministic_per_seed():
    ds = synth_blobs(2, n=48, d=2, k=3, spread=0.3)
    config = TrainConfig(
        method="spl", loss="logistic", model="mlp:4", tau=2, batch_size=16, epochs=2, seed=2
    )
    r1 = train(config, ds)
    r2 = train(config, ds)
    assert len(r1.records) == len(r2.records) == 2 * 3
    for a, b in zip(r1.records, r2.records):
        assert a.batch_loss == b.batch_loss
        assert a.train_loss == b.train_loss
        assert a.descent_ip == b.descent_ip
    assert np.array_equal(r1.params, r2.params)
    r3 = train(
        TrainConfig(method="spl", loss="logistic", model="mlp:4", tau=2,
                    batch_size=16, epochs=2, seed=3),
        ds,
    )
    assert not np.array_equal(r1.params, r3.params)


def test_train_full_batch_one_step_per_epoch():
    ds = synth_blobs(1, n=32, d=2, k=2, spread=0.3)
    config = TrainConfig(method="sgd", direction="gradient", loss="squared",
                         model="linear", eta=0.05, batch_size=32, epochs=4, seed=1)
    res = train(config, ds)
    assert len(res.records) == 4
    assert [r.epoch for r in res.records] == [0, 1, 2, 3]


def test_train_batch_size_exceeds_dataset():
    ds = synth_blobs(1, n=16, d=2, k=2, spread=0.3)
    with pytest.raises(ValueError, match="batch_size"):
        train(TrainConfig(batch_size=17), ds)


def test_train_accepts_plain_tuples():
    X = np.random.Generator(np.random.Philox(key=6)).standard_normal((20, 2))
    Y = np.eye(2)[np.arange(20) % 2]
    config = TrainConfig(method="spl", loss="squared", model="linear",
                         batch_size=10, epochs=1, seed=6)
    res = train(config, (X, Y))
    assert len(res.records) == 2
    assert not res.aborted


def test_train_record_bookkeeping():
    ds = synth_blobs(3, n=30, d=2, k=3, spread=0.3)
    config = TrainConfig(method="spl", loss="logistic", model="mlp:4", tau=3,
                         batch_size=10, epochs=2, seed=3)
    seen = []
    res = train(config, ds, on_record=seen.append)
    assert [r.step for r in res.records] == list(range(6))
    assert seen == res.records
    jvps = [r.jvp_calls for r in res.records]
    vjps = [r.vjp_calls for r in res.records]
    assert all(b >= a for a, b in zip(jvps, jvps[1:]))
    assert all(b >= a for a, b in zip(vjps, vjps[1:]))
    # tau jvps and tau+1 vjps per step, plus nothing else
    assert jvps[-1] == 6 * 3
    assert vjps[-1] == 6 * 4
    assert all(r.wall_ms >= 0 for r in res.records)
    assert all(r.inner_iters == 3 for r in res.records)
    assert all(r.gamma == 1.0 and r.eta == 1.0 for r in res.records)


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("method", METHODS)
def test_every_update_rule_records_its_step(method, direction):
    ds = synth_blobs(3, n=30, d=2, k=3, spread=0.3)
    tau, gamma, eta = 3, 0.5, 0.05
    config = TrainConfig(method=method, direction=direction, loss="logistic", model="mlp:4",
                         gamma=gamma, eta=eta, tau=tau, batch_size=10, epochs=2, seed=3)
    res = train(config, ds)
    assert not res.aborted and len(res.records) == 6
    per_step = (tau, tau + 1) if direction == "proxlinear" else (0, 1)
    jvp = vjp = 0
    for rec in res.records:
        assert rec.gamma == (1.0 if method == "armijo_spl" else gamma)
        if method == "spl":
            assert rec.eta == 1.0
        elif method == "armijo_spl":
            assert 0 < rec.eta <= 1
        else:
            assert rec.eta == eta
        assert rec.inner_iters == (tau if direction == "proxlinear" else 0)
        assert (rec.jvp_calls - jvp, rec.vjp_calls - vjp) == per_step
        jvp, vjp = rec.jvp_calls, rec.vjp_calls


@pytest.mark.parametrize("method", ["spl", "momentum"])
@pytest.mark.parametrize("loss_kind", ["squared", "logistic"])
@pytest.mark.parametrize("penalty", [{"l1": 0.01}, {"l2": 0.3}], ids=["l1", "l2"])
def test_penalized_training_runs_end_to_end(penalty, loss_kind, method):
    ds = synth_blobs(3, n=30, d=2, k=3, spread=0.3)
    config = TrainConfig(method=method, loss=loss_kind, model="mlp:4", gamma=0.5, eta=0.05,
                         tau=3, batch_size=10, epochs=2, seed=3, **penalty)
    res = train(config, ds)
    assert not res.aborted and len(res.records) == 6
    for rec in res.records:
        assert np.all(np.isfinite(list(vars(rec).values())))
        assert rec.inner_iters == 3
    assert np.all(np.isfinite(res.params))


@pytest.mark.parametrize("method", ["sgd", "momentum"])
def test_tau_zero_proxlinear_equals_scaled_gradient_method(method):
    ds = synth_blobs(5, n=40, d=2, k=2, spread=0.4)
    gamma, eta = 0.3, 0.5
    prox = TrainConfig(method=method, direction="proxlinear", path="dual", tau=0,
                       gamma=gamma, eta=eta, loss="logistic", model="mlp:4",
                       batch_size=10, epochs=2, seed=5)
    grad = TrainConfig(method=method, direction="gradient", eta=gamma * eta,
                       loss="logistic", model="mlp:4", batch_size=10, epochs=2, seed=5)
    rp = train(prox, ds)
    rg = train(grad, ds)
    assert_allclose(rp.params, rg.params, rtol=1e-12, atol=1e-14)


def test_tau_zero_adam_at_gamma_one_is_bit_identical():
    ds = synth_blobs(5, n=40, d=2, k=2, spread=0.4)
    prox = TrainConfig(method="adam", direction="proxlinear", tau=0, gamma=1.0,
                       eta=0.05, loss="squared", model="linear", batch_size=10,
                       epochs=2, seed=5)
    grad = TrainConfig(method="adam", direction="gradient", eta=0.05,
                       loss="squared", model="linear", batch_size=10, epochs=2, seed=5)
    assert np.array_equal(train(prox, ds).params, train(grad, ds).params)


def test_armijo_spl_separable_blobs_reach_full_accuracy():
    from oracles import gd_softmax_accuracy

    ds = synth_blobs(1, n=60, d=2, k=3, spread=0.01)
    # the oracle confirms the instance is linearly separable
    assert gd_softmax_accuracy(ds.inputs, ds.targets) == 1.0
    config = TrainConfig(method="armijo_spl", loss="logistic", model="linear",
                         tau=2, batch_size=20, epochs=20, seed=1)
    res = train(config, ds)
    assert max(r.train_acc for r in res.records) == 1.0


def test_train_aborts_on_non_finite_loss():
    ds = synth_blobs(7, n=32, d=2, k=2, spread=0.3)
    config = TrainConfig(method="sgd", direction="gradient", eta=1e12,
                         loss="squared", model="linear", batch_size=8, epochs=5, seed=7)
    res = train(config, ds)  # raises no numpy warning either
    assert res.aborted
    assert "non-finite batch loss" in res.abort_reason
    assert res.records[-1].step == int(res.abort_reason.rsplit(" ", 1)[1])
    assert len(res.records) < 5 * 4


def test_train_aborts_on_non_finite_train_loss():
    # one step per epoch: the step that diverges is the last, and only the
    # end-of-epoch metrics evaluate the model at its result
    ds = synth_blobs(7, n=8, d=2, k=2, spread=0.3)
    config = TrainConfig(method="sgd", eta=1e308, batch_size=8, epochs=3, seed=7)
    res = train(config, ds)
    assert res.abort_reason == "non-finite train loss at step 0"
    assert len(res.records) == 1 and not np.isfinite(res.records[0].train_loss)


@pytest.mark.parametrize("path", ["primal", "dual"])
def test_train_aborts_on_numeric_failure_in_the_solve(path):
    # inputs at 1e60 keep the batch loss finite but overflow the CG solve
    ds = synth_blobs(0, n=64, d=3, k=2, spread=0.3)
    ds = Dataset(ds.inputs * 1e60, ds.targets)
    config = TrainConfig(loss="squared", path=path, epochs=1)
    res = train(config, ds)
    assert res.aborted
    assert res.abort_reason.startswith("non-finite")
    assert "CG" in res.abort_reason and res.abort_reason.endswith("at step 0")
    assert len(res.records) == 1
    rec = res.records[0]
    assert np.isfinite(rec.batch_loss) and rec.eta == 0.0
    assert rec.vjp_calls >= 1  # the products spent before the failure


def test_single_steps_raise_on_non_finite_loss():
    rng = np.random.Generator(np.random.Philox(key=88))
    X = rng.standard_normal((8, 2)) * 1e200
    Y = np.eye(2)[rng.integers(2, size=8)]
    w = make_model("linear", 2, 2).init_params(0)
    with pytest.raises(NumericError, match="batch loss"):
        spl_step(w, (X, Y), TrainConfig(method="spl"))
    with pytest.raises(NumericError, match="batch loss"):
        armijo_spl_step(w, (X, Y), TrainConfig(method="armijo_spl"))
