import dualgn

EXPORTS = [
    "CGReport", "Dataset", "DirectionResult", "JacobianOperator", "LinearModel",
    "LossOracle", "MLPModel", "NumericError", "OptimizerState", "Regularizer",
    "RunRecord", "SubproblemSpec", "TrainConfig", "TrainResult", "UsageError",
    "armijo_spl_step", "batch_gradient", "cg_solve", "constraint_project",
    "dual_gn_direction", "load_idx_dataset", "load_idx_images", "load_idx_labels",
    "loss_grad", "loss_hvp", "loss_value", "make_jacobian_operator", "make_model",
    "outer_update", "primal_gn_direction", "projected_cg_solve",
    "regularized_dual_direction", "sdca_closed_form_squared", "soft_threshold",
    "softmax", "spl_step", "synth_blobs", "train",
]


def test_package_exports_the_modules_lists_and_nothing_else():
    # __all__ is built from the modules' own lists, so a name added to or
    # dropped from one of them changes the package's public surface here
    assert sorted(dualgn.__all__) == EXPORTS
    assert len(set(dualgn.__all__)) == len(EXPORTS) == 38
    for name in EXPORTS:
        assert getattr(dualgn, name).__module__.startswith("dualgn.")
