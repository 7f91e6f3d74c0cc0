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
once, to build the Jacobian operator, plus once per line-search trial.  The
trials and the end-of-epoch metrics need outputs only, so they call the
untraced ``model.forward``, which builds no SiLU derivatives and keeps no
layer inputs.

All randomness (parameter init, epoch shuffling) is driven by counter-based
Philox streams keyed on the seed, so runs are bit-reproducible; epoch
shuffles draw a full permutation and the final short batch is kept.  The
end-of-epoch train loss and accuracy come from forward passes over row chunks
of the dataset, each bounded by ``METRICS_CHUNK`` scalars in its widest
layer, so that the step that ends an epoch reuses heap memory instead of
mapping fresh pages for whole-dataset activations; the results are those of
one pass.  A
non-finite batch loss, a numeric failure in the direction solve or a
non-finite end-of-epoch train loss aborts the run with a diagnostic record
instead of raising; the single-step functions raise :class:`NumericError`
instead.  Either way numpy's overflow and invalid-value warnings along the
way are not raised.
"""

import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cgsolver import _finite, _integer, _seed_range, cg_workspace
from .data import Dataset
from .directions import (
    Regularizer,
    SubproblemSpec,
    batch_gradient,
    dual_gn_direction,
    primal_gn_direction,
    regularized_dual_direction,
)
from .exceptions import NumericError
from .linop import make_jacobian_operator
from .losses import LOSS_KINDS, LossOracle, loss_eval, loss_value
from .models import make_model

__all__ = [
    "TrainConfig",
    "OptimizerState",
    "RunRecord",
    "TrainResult",
    "outer_update",
    "spl_step",
    "armijo_spl_step",
    "train",
]

METHODS = ("spl", "armijo_spl", "sgd", "momentum", "adam")
DIRECTIONS = ("gradient", "proxlinear")


@dataclass
class TrainConfig:
    """Everything that determines a training run (except the data).

    The fields are the run's settings; :mod:`dualgn.cli` derives its ``run``
    flags and config-file keys from them.  The class constants are the usual
    settings of the momentum and Adam rules and of the Armijo line search,
    which no run varies.
    """

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
    momentum_mu: ClassVar[float] = 0.9
    adam_beta1: ClassVar[float] = 0.9
    adam_beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8
    armijo_beta: ClassVar[float] = 1e-4
    armijo_shrink: ClassVar[float] = 0.5
    armijo_max_backtracks: ClassVar[int] = 30

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
        self.seed = _seed_range(_integer("seed", self.seed))
        _finite("l1", self.l1, positive=False)
        _finite("l2", self.l2, positive=False)
        if self.l1 > 0 and self.l2 > 0:
            raise ValueError("l1 and l2 penalties cannot be combined")
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

    def subproblem(self):
        """The step's :class:`SubproblemSpec` (gamma 1 under ``armijo_spl``)
        and :meth:`regularizer`, which a run builds once."""
        gamma = 1.0 if self.method == "armijo_spl" else self.gamma
        return SubproblemSpec(gamma=gamma, tau=self.tau, path=self.path), self.regularizer()


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


def _armijo_backtrack(batch_loss_eval, w, d, h0, dg):
    """Backtracking line search along ``-d`` for the batch objective ``h``.

    Tries ``eta = shrink**j`` for ``j = 0, 1, ...`` and returns the first
    (largest) stepsize with ``h(w - eta d) <= h0 - beta * eta * dg``, where
    ``h0 = h(w)``, ``dg`` is the descent inner product ``<d, grad>``, and
    ``beta`` and ``shrink`` are :class:`TrainConfig`'s ``armijo_beta`` and
    ``armijo_shrink``.  Returns ``(eta, accepted)``; after
    ``TrainConfig.armijo_max_backtracks`` rejections the smallest stepsize
    tried is returned with ``accepted=False``.
    """
    beta, shrink = TrainConfig.armijo_beta, TrainConfig.armijo_shrink
    eta = 1.0
    for _ in range(TrainConfig.armijo_max_backtracks + 1):
        if float(batch_loss_eval(w - eta * d)) <= h0 - beta * eta * dg:
            return eta, True
        eta *= shrink
    return eta / shrink, False


def outer_update(rule, state, w, d, eta, config, out=None):
    """Apply one sgd/momentum/adam update with direction ``d``; returns new w.

    This is the only place a training step is applied; ``spl`` and
    ``armijo_spl`` use the ``sgd`` rule ``w - eta d``.

    ``state`` is mutated in place, its arrays included.  Momentum uses the
    heavy-ball recursion ``v <- mu v + d``; adam uses bias-corrected first
    and second moments.  The new parameters are written into ``out`` and
    returned.  The default ``out=None`` writes them into a fresh array and
    leaves ``w`` and ``d`` as they were; ``out=d`` reuses the direction's
    buffer, with the same values.
    """
    if rule not in ("sgd", "momentum", "adam"):
        raise ValueError(f"unknown update rule {rule!r}")
    w, d = np.asarray(w, dtype=np.float64), np.asarray(d, dtype=np.float64)
    if out is None:
        out = np.empty_like(w)
    step = d
    if rule == "momentum":
        if state.velocity is None:
            state.velocity = np.zeros_like(w)
        state.velocity *= config.momentum_mu
        state.velocity += d
        step = state.velocity
    if rule == "adam":
        if state.adam_m is None:
            state.adam_m = np.zeros_like(w)
            state.adam_v = np.zeros_like(w)
        b1, b2 = config.adam_beta1, config.adam_beta2
        state.t += 1
        state.adam_m *= b1
        state.adam_m += (1.0 - b1) * d
        state.adam_v *= b2
        state.adam_v += (1.0 - b2) * d * d
        denom = np.sqrt(state.adam_v / (1.0 - b2 ** state.t))
        denom += config.adam_eps
        np.divide(state.adam_m, 1.0 - b1 ** state.t, out=out)  # mhat
        out *= eta
        out /= denom
    else:
        np.multiply(eta, step, out=out)
    return np.subtract(w, out, out=out)


# A diverging step overflows into a non-finite loss, residual or curvature,
# which the step and the run report (a non-finite line-search trial is
# rejected), so numpy's overflow and invalid-value warnings are not raised.
_QUIET = dict(over="ignore", invalid="ignore")


def _mean(values):
    # what np.mean computes, without its per-call overhead
    return float(values.sum() / values.size)


@np.errstate(**_QUIET)
def _batch_step(model, w, Xb, Yb, config, state, subproblem, work=None):
    """One minibatch update; returns ``(w_new, record, failure)``.

    ``record`` is the step's :class:`RunRecord`.  ``failure`` is None, or the
    message of a non-finite batch loss or a failed direction solve; ``w`` is
    then returned unchanged and the record has eta 0.  ``subproblem`` is
    :meth:`TrainConfig.subproblem`, and ``work`` the primal route's CG
    workspace (see :func:`dualgn.directions.primal_gn_direction`).  The loss
    at the batch outputs is evaluated once, for the batch loss, the gradient
    and the softmax alike.
    """
    spec, reg = subproblem
    oracle = LossOracle(config.loss, Yb)
    opr = make_jacobian_operator(model, w, Xb)
    f = opr.outputs
    at = loss_eval(oracle, f)
    rec = RunRecord(batch_loss=_mean(at[0]), gamma=spec.gamma)
    try:
        if not np.isfinite(rec.batch_loss):
            raise NumericError("non-finite batch loss")
        if config.direction == "gradient":
            d = batch_gradient(opr, oracle, f, at)
            rec.descent_ip = float(np.vdot(d, d))
        else:
            if config.path == "primal":
                res = primal_gn_direction(opr, oracle, f, spec, work=work, at=at)
            elif reg is not None:
                res = regularized_dual_direction(opr, oracle, f, spec, w, reg, at=at)
            else:
                res = dual_gn_direction(opr, oracle, f, spec, at=at)
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
        h_eval = lambda v: _mean(loss_value(oracle, model.forward(v, Xb)))
        rec.eta, _ = _armijo_backtrack(h_eval, w, d, rec.batch_loss, max(rec.descent_ip, 0.0))
    else:
        rule, rec.eta = config.method, config.eta
    return outer_update(rule, state, w, d, rec.eta, config, out=d), rec, None


def _single_step(w, batch, config, model):
    Xb, Yb = (np.asarray(b, dtype=np.float64) for b in batch)
    if model is None:
        model = make_model(config.model, Xb.shape[1], Yb.shape[1])
    w_new, rec, failure = _batch_step(
        model, w, Xb, Yb, config, OptimizerState(), config.subproblem()
    )
    if failure is not None:
        raise NumericError(failure)
    return w_new, rec


def spl_step(w, batch, config, model=None):
    """One full prox-linear step ``w - d`` on the batch ``(X, Y)``.

    Raises :class:`NumericError` on a non-finite batch loss or a failed solve.
    """
    if config.method != "spl":
        raise ValueError(f"spl_step requires method='spl', got {config.method!r}")
    return _single_step(w, batch, config, model)[0]


def armijo_spl_step(w, batch, config, model=None):
    """One backtracked prox-linear step at gamma=1; returns (w_new, eta).

    Raises :class:`NumericError` on a non-finite batch loss or a failed solve.
    """
    if config.method != "armijo_spl":
        raise ValueError(
            f"armijo_spl_step requires method='armijo_spl', got {config.method!r}"
        )
    w_new, rec = _single_step(w, batch, config, model)
    return w_new, rec.eta


# The end-of-epoch metrics run the model on row chunks whose widest activation
# holds at most this many float64 (256 KiB).  A forward pass over the whole
# dataset at once makes arrays so large that glibc maps each one and unmaps it
# when it is freed, so every call faults all their pages in afresh.
METRICS_CHUNK = 32768


def _full_metrics(model, w, X, Y, loss_kind, oracle=None, labels=None):
    """Mean loss and accuracy of ``model`` at ``w`` on the whole dataset.

    The forward pass runs on chunks of ``max(1, METRICS_CHUNK // widest
    layer)`` rows into one n x k output block; the per-sample losses and hits
    are then n-length arrays with one mean each, as in one pass.  ``oracle``
    (the loss bound to ``Y``) and ``labels`` (``argmax(Y, axis=1)``) are the
    same at every epoch, so :func:`train` builds them once; None builds them
    here.
    """
    X = np.asarray(X, dtype=np.float64)
    if oracle is None:
        oracle = LossOracle(loss_kind, Y)
    if labels is None:
        labels = np.argmax(oracle.y, axis=1)
    rows = max(1, METRICS_CHUNK // max(model.dims[1:]))
    f = np.empty((X.shape[0], model.out_dim))
    with np.errstate(**_QUIET):  # train() reports a non-finite loss
        for lo in range(0, X.shape[0], rows):
            f[lo : lo + rows] = model.forward(w, X[lo : lo + rows])
        mean_loss = _mean(loss_value(oracle, f))
    return mean_loss, _mean(np.argmax(f, axis=1) == labels)


def train(config, dataset, on_record=None):
    """Run the configured training loop on ``dataset``.

    Emits one :class:`RunRecord` per minibatch step (via the returned result
    and, if given, the ``on_record`` callback as each step completes).
    ``train_loss``/``train_acc`` are recomputed on the full training set at
    the end of every epoch and carried forward in between.  ``jvp_calls`` and
    ``vjp_calls`` are cumulative over the run.  A non-finite batch loss or
    end-of-epoch train loss, or a :class:`NumericError` from the direction
    solve, stops the run after logging a diagnostic record; the result is
    then ``aborted`` and ``abort_reason`` names the failure and the step.

    On the primal route one CG workspace serves every step, so that a
    steady-state step allocates no solver state of its own.  The subproblem
    spec and penalty, and the full-dataset loss oracle and labels of the
    end-of-epoch metrics, are built once per run.
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
    work = None
    if config.direction == "proxlinear" and config.path == "primal":
        work = cg_workspace((model.n_params,))

    subproblem = config.subproblem()
    oracle = LossOracle(config.loss, Y)
    labels = np.argmax(Y, axis=1)
    records = []
    abort_reason = None
    train_loss, train_acc = _full_metrics(model, w, X, Y, config.loss, oracle, labels)

    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            t0 = time.perf_counter()
            idx = perm[start : start + config.batch_size]
            w, rec, failure = _batch_step(
                model, w, X[idx], Y[idx], config, state, subproblem, work
            )
            if failure is None and start + config.batch_size >= n:
                train_loss, train_acc = _full_metrics(model, w, X, Y, config.loss, oracle, labels)
                if not np.isfinite(train_loss):
                    failure = "non-finite train loss"
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
