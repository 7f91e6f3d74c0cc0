import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualgn import (
    Dataset,
    LossOracle,
    NumericError,
    OptimizerState,
    SubproblemSpec,
    TrainConfig,
    armijo_search,
    armijo_spl_step,
    batch_gradient,
    dual_gn_direction,
    loss_value,
    make_jacobian_operator,
    make_model,
    outer_update,
    spl_step,
    synth_blobs,
    train,
)
from dualgn.trainer import DIRECTIONS, METHODS
from oracles import adam_trajectory, momentum_trajectory, sgd_trajectory


def test_config_validation():
    with pytest.raises(ValueError, match="method"):
        TrainConfig(method="newton")
    with pytest.raises(ValueError, match="direction"):
        TrainConfig(direction="hessian")
    with pytest.raises(ValueError, match="gamma"):
        TrainConfig(gamma=-1.0)
    with pytest.raises(ValueError, match="armijo_beta"):
        TrainConfig(armijo_beta=1.0)
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


def test_armijo_quadratic_accepts_full_step():
    h = lambda w: 0.5 * float(w @ w)
    w = np.array([1.0])
    eta, accepted = armijo_search(h, w, np.array([1.0]), np.array([1.0]))
    assert (eta, accepted) == (1.0, True)


def test_armijo_backtracks_once_on_quartic():
    # h(w) = w^4 at w=1 with d=2: eta=1 overshoots to h(-1)=1, eta=0.5 lands
    # on h(0)=0, so exactly one backtrack happens
    h = lambda w: float(w[0] ** 4)
    w = np.array([1.0])
    d = np.array([2.0])
    g = np.array([4.0])
    eta, accepted = armijo_search(h, w, d, g)
    assert (eta, accepted) == (0.5, True)


def test_armijo_rejects_ascent_direction():
    h = lambda w: 0.5 * float(w @ w)
    with pytest.raises(ValueError, match="descent"):
        armijo_search(h, np.array([1.0]), np.array([-1.0]), np.array([1.0]))


def test_armijo_zero_direction_accepts_eta0():
    h = lambda w: 0.5 * float(w @ w)
    eta, accepted = armijo_search(h, np.array([1.0]), np.zeros(1), np.zeros(1))
    assert (eta, accepted) == (1.0, True)


def test_armijo_exhaustion_returns_smallest_eta():
    # a function that rises in every direction from w rejects every trial
    h = lambda w: float(abs(w[0] - 1.0))
    eta, accepted = armijo_search(
        h, np.array([1.0]), np.array([1.0]), np.array([1.0]), max_backtracks=3
    )
    assert not accepted
    assert eta == pytest.approx(0.5**3)


def test_backtrack_budget_must_be_a_nonnegative_integer():
    # at -1 the loop never ran and every step took eta = eta0 / shrink = 2
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match="armijo_max_backtracks"):
            TrainConfig(method="armijo_spl", armijo_max_backtracks=bad)
    assert TrainConfig(armijo_max_backtracks=3.0).armijo_max_backtracks == 3
    h = lambda w: float(abs(w[0] - 1.0))
    w, d, g = np.array([1.0]), np.array([1.0]), np.array([1.0])
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match="max_backtracks"):
            armijo_search(h, w, d, g, max_backtracks=bad)
    # a zero budget still tries eta0 once
    assert armijo_search(h, w, d, g, max_backtracks=0) == (1.0, False)


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


def test_momentum_mu_zero_equals_sgd():
    config = TrainConfig(method="momentum", momentum_mu=0.0)
    w = np.array([1.0, -2.0])
    s1, s2 = OptimizerState(), OptimizerState()
    for _ in range(3):
        a = outer_update("momentum", s1, w, _quad_grad(w), 0.1, config)
        b = outer_update("sgd", s2, w, _quad_grad(w), 0.1, config)
        assert_allclose(a, b, rtol=1e-15)
        w = a


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

    def counted(self, params, X):
        calls.append(1)
        return original(self, params, X)

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
    with np.errstate(over="ignore"):  # the blow-up is the point
        res = train(config, ds)
    assert res.aborted
    assert "non-finite batch loss" in res.abort_reason
    assert res.records[-1].step == int(res.abort_reason.rsplit(" ", 1)[1])
    assert len(res.records) < 5 * 4


@pytest.mark.parametrize("path", ["primal", "dual"])
def test_train_aborts_on_numeric_failure_in_the_solve(path):
    # inputs at 1e60 keep the batch loss finite but overflow the CG solve
    ds = synth_blobs(0, n=64, d=3, k=2, spread=0.3)
    ds = Dataset(ds.inputs * 1e60, ds.targets)
    config = TrainConfig(loss="squared", path=path, epochs=1)
    with np.errstate(all="ignore"):  # the blow-up is the point
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
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="batch loss"):
        spl_step(w, (X, Y), TrainConfig(method="spl"))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="batch loss"):
        armijo_spl_step(w, (X, Y), TrainConfig(method="armijo_spl"))
