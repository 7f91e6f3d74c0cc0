"""Dual Gauss-Newton / prox-linear minibatch directions and training loops.

The package computes regularized Gauss-Newton (prox-linear) directions for
finite-sum compositions of convex losses with nonlinear model outputs, either
by CG on the parameter-space normal equations or by an equivalent CG on a
small output-space dual system, and wires the directions into standard
stochastic training loops with full cost and descent accounting.
"""

from .cgsolver import CGReport, cg_solve, projected_cg_solve
from .data import Dataset, load_idx_dataset, load_idx_images, load_idx_labels, synth_blobs
from .directions import (
    DirectionResult,
    Regularizer,
    SubproblemSpec,
    batch_gradient,
    dual_gn_direction,
    primal_gn_direction,
    regularized_dual_direction,
    sdca_closed_form_squared,
    soft_threshold,
)
from .exceptions import NumericError, UsageError
from .linop import (
    JacobianOperator,
    adjoint_dot_test,
    finite_diff_jvp,
    make_jacobian_operator,
)
from .losses import (
    LossOracle,
    conjugate_value,
    constraint_project,
    loss_grad,
    loss_hvp,
    loss_value,
    softmax,
)
from .models import LinearModel, MLPModel, make_model
from .trainer import (
    OptimizerState,
    RunRecord,
    TrainConfig,
    TrainResult,
    armijo_search,
    armijo_spl_step,
    outer_update,
    spl_step,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "CGReport",
    "cg_solve",
    "projected_cg_solve",
    "Dataset",
    "synth_blobs",
    "load_idx_dataset",
    "load_idx_images",
    "load_idx_labels",
    "DirectionResult",
    "Regularizer",
    "SubproblemSpec",
    "batch_gradient",
    "dual_gn_direction",
    "primal_gn_direction",
    "regularized_dual_direction",
    "sdca_closed_form_squared",
    "soft_threshold",
    "NumericError",
    "UsageError",
    "JacobianOperator",
    "adjoint_dot_test",
    "finite_diff_jvp",
    "make_jacobian_operator",
    "LossOracle",
    "conjugate_value",
    "constraint_project",
    "loss_grad",
    "loss_hvp",
    "loss_value",
    "softmax",
    "LinearModel",
    "MLPModel",
    "make_model",
    "OptimizerState",
    "RunRecord",
    "TrainConfig",
    "TrainResult",
    "armijo_search",
    "armijo_spl_step",
    "outer_update",
    "spl_step",
    "train",
]
