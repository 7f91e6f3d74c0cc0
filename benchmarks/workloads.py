"""The benchmark's workloads: one training configuration each, on synth_blobs data.

Every workload trains with the logistic loss through ``dualgn.train``.  A run
alternates two kinds of training round:

* reference rounds train on the fixed problem ``REFERENCE_SEED`` (data and
  initialisation).  Its loss curve is a pure function of the code, so the
  quality metrics (``final_train_loss``, ``time_to_target_s``) and the
  bit-reproducibility check come from these rounds;
* seeded rounds train on a fresh problem per round, derived from the
  benchmark's ``--seed``.  Step times in an armijo workload depend on the
  data through the number of line-search trials, so drawing many problems
  per run keeps the pooled step-time percentiles steady across seeds.

Every workload has eight steps per epoch, so the steps that end an epoch
(and so also compute the full-dataset metrics) are one in eight.  The 90th
percentile of step time then falls among them, not on the edge of the tail
of ordinary steps, which moves with the load on the machine.
"""

from dataclasses import dataclass

REFERENCE_SEED = 1


@dataclass
class Workload:
    name: str
    why: str
    blobs: tuple  # synth_blobs (n, d, k, spread)
    config: dict  # TrainConfig fields other than seed
    target: float  # train_loss the reference problem must reach
    cli_parity: bool = False  # also replay the reference round through the CLI
    partner: str = None  # workload on the other CG route, for the cost ratio

    @property
    def steps_per_epoch(self):
        return -(-self.blobs[0] // self.config["batch_size"])


_LOGISTIC = {"loss": "logistic", "direction": "proxlinear"}
_MLP784 = dict(
    _LOGISTIC,
    method="momentum",
    eta=0.05,
    gamma=1.0,
    model="mlp:256",
    tau=8,
    batch_size=64,
    epochs=8,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="blobs_small_armijo",
            why="README example at half the samples: tiny arrays, so time is "
            "Python per-call overhead and line-search forward passes",
            blobs=(256, 2, 3, 0.2),
            config=dict(
                _LOGISTIC,
                method="armijo_spl",
                path="dual",
                model="mlp:8",
                tau=2,
                batch_size=32,
                epochs=60,
            ),
            # Reference loss is 0.0137 after epoch 5 and 0.0108 after epoch 6.
            target=0.0122,
            cli_parity=True,
        ),
        Workload(
            name="mlp_wide_armijo",
            why="mlp:128,128 at m=128: elementwise SiLU/sigmoid work in model "
            "forward, jvp and vjp dominates; directions are under 2%",
            blobs=(1024, 64, 10, 0.5),
            config=dict(
                _LOGISTIC,
                method="armijo_spl",
                path="dual",
                model="mlp:128,128",
                tau=4,
                batch_size=128,
                epochs=12,
            ),
            # Reference loss is 0.27 after epoch 4 and 0.13 after epoch 5.
            target=0.18,
        ),
        Workload(
            name="mlp784_primal",
            why="p=203,530 >> m*k=640 on the primal route: the only workload "
            "that runs cgsolver.cg_solve on p-length vectors",
            blobs=(512, 784, 10, 0.5),
            config=dict(_MLP784, path="primal"),
            # Reference loss is 1.03 after epoch 4 and 0.52 after epoch 5.
            target=0.8,
            partner="mlp784_dual",
        ),
        Workload(
            name="mlp784_dual",
            why="same problem on the dual route: the hand-written dual CG loop "
            "in directions, testing the paper's p >> m*k cost claim",
            blobs=(512, 784, 10, 0.5),
            config=dict(_MLP784, path="dual"),
            target=0.8,
            partner="mlp784_primal",
        ),
    )
}


def round_seed(seed, index):
    """Data and initialisation seed of the ``index``-th seeded round of a run."""
    return (seed + 2) * 100_000 + index
