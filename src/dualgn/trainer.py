"""Minibatch training loops built on the prox-linear direction routines.

A training method is a pairing of a direction source with an outer update
rule:

* direction source "proxlinear": the minibatch subproblem direction at
  regularization ``gamma`` (primal or dual route, optional l1/l2 penalty on
  the dual route);
* direction source "gradient": the plain batch gradient.

Update rules: ``spl`` takes the full step ``w - d`` (for the gradient source
it uses ``w - gamma * d``, matching the zero-inner-iteration prox-linear
step); ``armijo_spl`` computes the direction at ``gamma = 1`` and backtracks
a stepsize; ``sgd``, ``momentum`` and ``adam`` feed the direction into the
usual first-order update rules with stepsize ``eta``.  Every step is applied
by :func:`outer_update`: ``spl`` and ``armijo_spl`` go through its ``sgd``
rule, at eta 1 and at the searched eta.  A step evaluates the model at ``w``
once, to build the Jacobian operator, plus once per line-search trial.

All randomness (parameter init, epoch shuffling) is driven by counter-based
Philox streams keyed on the seed, so runs are bit-reproducible; epoch
shuffles draw a full permutation and the final short batch is kept.  A
non-finite batch loss or a numeric failure in the direction solve aborts the
run with a diagnostic record instead of raising; the single-step functions
raise :class:`NumericError` instead.
"""

import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .directions import (
    Regularizer,
    SubproblemSpec,
    _finite,
    _integer,
    batch_gradient,
    dual_gn_direction,
    primal_gn_direction,
    regularized_dual_direction,
)
from .exceptions import NumericError
from .linop import make_jacobian_operator
from .losses import LOSS_KINDS, LossOracle, loss_value
from .models import make_model

__all__ = [
    "TrainConfig",
    "OptimizerState",
    "RunRecord",
    "TrainResult",
    "armijo_search",
    "outer_update",
    "spl_step",
    "armijo_spl_step",
    "train",
]

METHODS = ("spl", "armijo_spl", "sgd", "momentum", "adam")
DIRECTIONS = ("gradient", "proxlinear")


@dataclass
class TrainConfig:
    """Everything that determines a training run (except the data)."""

    method: str = "spl"
    direction: str = "proxlinear"
    path: str = "dual"
    loss: str = "squared"
    model: str = "linear"
    gamma: float = 1.0
    eta: float = 0.1
    tau: int = 2
    batch_size: int = 32
    epochs: int = 5
    seed: int = 0
    l1: float = 0.0
    l2: float = 0.0
    momentum_mu: float = 0.9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    armijo_beta: float = 1e-4
    armijo_shrink: float = 0.5
    armijo_max_backtracks: int = 30

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )
        self.tau = SubproblemSpec(gamma=self.gamma, tau=self.tau, path=self.path).tau
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        _finite("eta", self.eta)
        self.batch_size = _integer("batch_size", self.batch_size, low=1)
        self.epochs = _integer("epochs", self.epochs)
        self.seed = _integer("seed", self.seed)
        if self.seed >= 2**63:
            raise ValueError(
                f"seed must be a nonnegative integer below 2**63, got {self.seed}"
            )
        _finite("l1", self.l1, positive=False)
        _finite("l2", self.l2, positive=False)
        if self.l1 > 0 and self.l2 > 0:
            raise ValueError("l1 and l2 penalties cannot be combined")
        if not 0 < self.armijo_beta < 1:
            raise ValueError(f"armijo_beta must lie in (0, 1), got {self.armijo_beta}")
        if not 0 < self.armijo_shrink < 1:
            raise ValueError(
                f"armijo_shrink must lie in (0, 1), got {self.armijo_shrink}"
            )
        self.armijo_max_backtracks = _integer(
            "armijo_max_backtracks", self.armijo_max_backtracks
        )
        if (self.l1 > 0 or self.l2 > 0) and (
            self.direction != "proxlinear"
            or self.path != "dual"
            or self.method == "armijo_spl"
        ):
            raise ValueError(
                "l1/l2 penalties require direction='proxlinear', path='dual' "
                "and a fixed-gamma method"
            )

    def regularizer(self):
        if self.l1 > 0:
            return Regularizer("l1", self.l1)
        if self.l2 > 0:
            return Regularizer("l2", self.l2)
        return None


@dataclass
class OptimizerState:
    """Mutable state for the stateful outer update rules."""

    velocity: object = None
    adam_m: object = None
    adam_v: object = None
    t: int = 0


@dataclass
class RunRecord:
    """One logged training step; the field order is the CSV schema.

    A step fills in its own facts, with ``jvp_calls``/``vjp_calls`` counting
    that step alone; :func:`train` then sets the step, epoch, metrics and
    wall time, and makes the counts cumulative over the run.
    """

    step: int = 0
    epoch: int = 0
    wall_ms: float = 0.0
    batch_loss: float = 0.0
    train_loss: float = 0.0
    train_acc: float = 0.0
    eta: float = 0.0
    gamma: float = 0.0
    inner_iters: int = 0
    jvp_calls: int = 0
    vjp_calls: int = 0
    descent_ip: float = 0.0


@dataclass
class TrainResult:
    records: list
    abort_reason: str = None
    params: object = None
    model: object = None

    @property
    def aborted(self):
        return self.abort_reason is not None


def armijo_search(
    batch_loss_eval, w, d, g, beta=1e-4, shrink=0.5, eta0=1.0, max_backtracks=30
):
    """Backtracking linesearch along ``-d`` for the batch objective.

    Tries ``eta = eta0 * shrink**j`` for ``j = 0, 1, ...`` and returns the
    first (largest) stepsize with

        h(w - eta d) <= h(w) - beta * eta * <d, g>,

    where ``g`` is the batch gradient at ``w``.  Returns ``(eta, accepted)``;
    after ``max_backtracks`` rejections the smallest stepsize tried is
    returned with ``accepted=False``.  Raises ValueError if ``max_backtracks``
    is not a nonnegative integer or if ``<d, g>`` is significantly negative.
    """
    max_backtracks = _integer("max_backtracks", max_backtracks)
    d = np.asarray(d, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    dg = float(np.vdot(d, g))
    if dg < -1e-10 * (1.0 + float(np.linalg.norm(d)) * float(np.linalg.norm(g))):
        raise ValueError(f"not a descent direction: <d, grad> = {dg:.3e}")
    h0 = float(batch_loss_eval(w))
    return _armijo_backtrack(
        batch_loss_eval, w, d, h0, max(dg, 0.0), beta, shrink, eta0, max_backtracks
    )


def _armijo_backtrack(batch_loss_eval, w, d, h0, dg, beta, shrink, eta0, max_backtracks):
    eta = eta0
    for _ in range(max_backtracks + 1):
        if float(batch_loss_eval(w - eta * d)) <= h0 - beta * eta * dg:
            return eta, True
        eta *= shrink
    return eta / shrink, False


def outer_update(rule, state, w, d, eta, config):
    """Apply one sgd/momentum/adam update with direction ``d``; returns new w.

    This is the only place a training step is applied; ``spl`` and
    ``armijo_spl`` use the ``sgd`` rule ``w - eta d``.

    ``state`` is mutated in place.  Momentum uses the heavy-ball recursion
    ``v <- mu v + d``; adam uses bias-corrected first and second moments.
    """
    if rule == "sgd":
        return w - eta * d
    if rule == "momentum":
        if state.velocity is None:
            state.velocity = np.zeros_like(w)
        state.velocity = config.momentum_mu * state.velocity + d
        return w - eta * state.velocity
    if rule == "adam":
        if state.adam_m is None:
            state.adam_m = np.zeros_like(w)
            state.adam_v = np.zeros_like(w)
        b1, b2 = config.adam_beta1, config.adam_beta2
        state.t += 1
        state.adam_m = b1 * state.adam_m + (1.0 - b1) * d
        state.adam_v = b2 * state.adam_v + (1.0 - b2) * d * d
        mhat = state.adam_m / (1.0 - b1 ** state.t)
        vhat = state.adam_v / (1.0 - b2 ** state.t)
        return w - eta * mhat / (np.sqrt(vhat) + config.adam_eps)
    raise ValueError(f"unknown update rule {rule!r}")


def _batch_step(model, w, Xb, Yb, config, state):
    """One minibatch update; returns ``(w_new, record, failure)``.

    ``record`` is the step's :class:`RunRecord`.  ``failure`` is None, or the
    message of a non-finite batch loss or a failed direction solve; ``w`` is
    then returned unchanged and the record has eta 0.
    """
    oracle = LossOracle(config.loss, Yb)
    opr = make_jacobian_operator(model, w, Xb)
    f = opr.outputs
    rec = RunRecord(
        batch_loss=float(np.mean(loss_value(oracle, f))),
        gamma=1.0 if config.method == "armijo_spl" else config.gamma,
    )
    try:
        if not np.isfinite(rec.batch_loss):
            raise NumericError("non-finite batch loss")
        if config.direction == "gradient":
            d = batch_gradient(opr, oracle, f)
            rec.descent_ip = float(np.vdot(d, d))
        else:
            spec = SubproblemSpec(gamma=rec.gamma, tau=config.tau, path=config.path)
            reg = config.regularizer()
            if config.path == "primal":
                res = primal_gn_direction(opr, oracle, f, spec)
            elif reg is not None:
                res = regularized_dual_direction(opr, oracle, f, spec, w, reg)
            else:
                res = dual_gn_direction(opr, oracle, f, spec)
            d, rec.descent_ip = res.d, res.descent_inner_product
            rec.inner_iters = res.report.iterations
    except NumericError as exc:
        return w, rec, str(exc)
    finally:
        rec.jvp_calls, rec.vjp_calls = opr.jvp_calls, opr.vjp_calls

    rule = "sgd"
    if config.method == "spl":
        rec.eta = 1.0
        if config.direction == "gradient":
            d = rec.gamma * d
    elif config.method == "armijo_spl":
        h_eval = lambda v: float(np.mean(loss_value(oracle, model.forward(v, Xb))))
        rec.eta, _ = _armijo_backtrack(
            h_eval,
            w,
            d,
            rec.batch_loss,
            max(rec.descent_ip, 0.0),
            config.armijo_beta,
            config.armijo_shrink,
            1.0,
            config.armijo_max_backtracks,
        )
    else:
        rule, rec.eta = config.method, config.eta
    return outer_update(rule, state, w, d, rec.eta, config), rec, None


def _single_step(w, batch, config, model):
    Xb, Yb = (np.asarray(b, dtype=np.float64) for b in batch)
    if model is None:
        model = make_model(config.model, Xb.shape[1], Yb.shape[1])
    w_new, rec, failure = _batch_step(model, w, Xb, Yb, config, OptimizerState())
    if failure is not None:
        raise NumericError(failure)
    return w_new, rec


def spl_step(w, batch, config, model=None):
    """One full prox-linear step ``w - d`` on the batch ``(X, Y)``.

    Raises :class:`NumericError` on a non-finite batch loss or solve.
    """
    if config.method != "spl":
        raise ValueError(f"spl_step requires method='spl', got {config.method!r}")
    return _single_step(w, batch, config, model)[0]


def armijo_spl_step(w, batch, config, model=None):
    """One backtracked prox-linear step at gamma=1; returns (w_new, eta).

    Raises :class:`NumericError` on a non-finite batch loss or solve.
    """
    if config.method != "armijo_spl":
        raise ValueError(
            f"armijo_spl_step requires method='armijo_spl', got {config.method!r}"
        )
    w_new, rec = _single_step(w, batch, config, model)
    return w_new, rec.eta


def _full_metrics(model, w, X, Y, loss_kind):
    f = model.forward(w, X)
    oracle = LossOracle(loss_kind, Y)
    mean_loss = float(np.mean(loss_value(oracle, f)))
    acc = float(np.mean(np.argmax(f, axis=1) == np.argmax(Y, axis=1)))
    return mean_loss, acc


def train(config, dataset, on_record=None):
    """Run the configured training loop on ``dataset``.

    Emits one :class:`RunRecord` per minibatch step (via the returned result
    and, if given, the ``on_record`` callback as each step completes).
    ``train_loss``/``train_acc`` are recomputed on the full training set at
    the end of every epoch and carried forward in between.  ``jvp_calls`` and
    ``vjp_calls`` are cumulative over the run.  A non-finite batch loss, or a
    :class:`NumericError` from the direction solve, stops the run after
    logging a diagnostic record; the result is then ``aborted`` and
    ``abort_reason`` names the failure and the step.
    """
    if not isinstance(dataset, Dataset):
        dataset = Dataset(dataset[0], dataset[1])
    X, Y = dataset.inputs, dataset.targets
    n, in_dim = X.shape
    k = Y.shape[1]
    if config.batch_size > n:
        raise ValueError(
            f"batch_size {config.batch_size} exceeds dataset size {n}"
        )

    model = make_model(config.model, in_dim, k)
    w = model.init_params(config.seed)
    shuffle_rng = np.random.Generator(np.random.Philox(key=[config.seed, 1]))
    state = OptimizerState()

    records = []
    abort_reason = None
    train_loss, train_acc = _full_metrics(model, w, X, Y, config.loss)

    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            t0 = time.perf_counter()
            idx = perm[start : start + config.batch_size]
            w, rec, failure = _batch_step(model, w, X[idx], Y[idx], config, state)
            if failure is None and start + config.batch_size >= n:
                train_loss, train_acc = _full_metrics(model, w, X, Y, config.loss)
            rec.step, rec.epoch = len(records), epoch
            rec.train_loss, rec.train_acc = train_loss, train_acc
            if records:
                rec.jvp_calls += records[-1].jvp_calls
                rec.vjp_calls += records[-1].vjp_calls
            rec.wall_ms = (time.perf_counter() - t0) * 1000.0
            records.append(rec)
            if on_record is not None:
                on_record(rec)
            if failure is not None:
                abort_reason = f"{failure} at step {rec.step}"
                break
        if abort_reason is not None:
            break

    return TrainResult(
        records=records,
        abort_reason=abort_reason,
        params=w,
        model=model,
    )
