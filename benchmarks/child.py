"""Child process of the dualgn benchmark; ``run.py`` starts it.

  child.py setup <workload> <spawn_time>
      One set-up: imports, data generation, model construction and the
      initial full-dataset metrics, timed from ``spawn_time`` (the parent's
      ``time.monotonic()`` just before it started this process) to the start
      of the first training step.  Prints ``{"setup_s": ...}``.
  child.py run <workload> <seed> <seconds> <trace> <out_dir>
      Trains the workload's rounds (see workloads.py) for ``seconds``, one
      step after another, checks every output and prints the result as the
      last line of JSON.  With ``trace`` 1 pairs of rounds alternate between
      untraced and traced, and the metrics are the per-layer ones.

BLAS is pinned to one thread before numpy is imported: the thread count
changes floating-point results, and one thread gives the tighter tail.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from dualgn import (  # noqa: E402
    LossOracle,
    SubproblemSpec,
    TrainConfig,
    dual_gn_direction,
    make_jacobian_operator,
    make_model,
    primal_gn_direction,
    synth_blobs,
    train,
)

import spans  # noqa: E402
from summary import metric, percentile, timing  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, round_seed  # noqa: E402

# Spans kept for the span file; every traced span is still aggregated.
SPAN_FILE_CAP = 50_000


def make_data(w, seed):
    n, d, k, spread = w.blobs
    return synth_blobs(seed, n, d, k, spread)


def make_config(w, seed):
    return TrainConfig(seed=seed, **w.config)


class _FirstStep(Exception):
    pass


def setup(w, spawn_time):
    def stop(rec):
        raise _FirstStep(time.monotonic() - rec.wall_ms / 1000.0)

    try:
        train(make_config(w, REFERENCE_SEED), make_data(w, REFERENCE_SEED), on_record=stop)
    except _FirstStep as first:
        return {"setup_s": first.args[0] - spawn_time}
    raise RuntimeError("training produced no step")


def train_round(w, seed, data):
    """Train once; returns the result and each ``on_record`` call's time."""
    stamps = []
    result = train(make_config(w, seed), data, on_record=lambda rec: stamps.append(time.perf_counter()))
    return result, stamps


def step_intervals(result, stamps):
    """``(start, end)`` of each step: callback to callback, and the first
    step from its own start, which the record's ``wall_ms`` gives."""
    first = stamps[0] - result.records[0].wall_ms / 1000.0
    return [(first, stamps[0])] + list(zip(stamps, stamps[1:]))


class Phase:
    """What the rounds given to one arm of a run measured.

    A phase with a ``tracer`` trains with it installed, aggregates each
    round's spans and keeps up to ``SPAN_FILE_CAP`` of them as ``span_rows``.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.span_rows = []
        self.step_ms = array("d")
        self.samples = 0
        self.train_s = 0.0
        self.to_target_s = []
        self.final_loss = None
        self.jvp_calls = 0
        self.vjp_calls = 0
        self.totals = Counter()


class Run:
    """Rounds of one workload, alternating reference and seeded problems,
    with the output checks of every round."""

    def __init__(self, w, seed):
        self.w = w
        self.seed = seed
        self.reference = make_data(w, REFERENCE_SEED)
        self.reference_params = None
        self.reference_records = None
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message):
        if len(self.problems) < 20:
            self.problems.append(message)

    def train_for(self, seconds, phases):
        """Train rounds for ``seconds``, handing each consecutive pair (one
        reference and one seeded round) to the next phase in turn, so that
        load on the machine falls alike on every phase."""
        deadline = time.perf_counter() + seconds
        while self.rounds < 2 * len(phases) or time.perf_counter() < deadline:
            phase = phases[(self.rounds // 2) % len(phases)]
            reference = self.rounds % 2 == 0
            if reference:
                seed, data = REFERENCE_SEED, self.reference
            else:
                seed = round_seed(self.seed, self.rounds // 2)
                data = make_data(self.w, seed)
            if phase.tracer is not None:
                phase.tracer.install()
            try:
                result, stamps = train_round(self.w, seed, data)
            finally:
                if phase.tracer is not None:
                    phase.tracer.restore()
            steps = step_intervals(result, stamps)
            if phase.tracer is not None:
                self.add_spans(phase, phase.tracer.drain(), steps)
            self.add_round(phase, result, steps, reference)
            self.rounds += 1

    def add_spans(self, phase, round_spans, steps):
        phase.totals.update(spans.layer_totals(round_spans, steps))
        if len(phase.span_rows) < SPAN_FILE_CAP:
            phase.span_rows += spans.span_lines(
                round_spans, steps, len(phase.span_rows), phase.totals["steps"] - len(steps)
            )

    def add_round(self, phase, result, steps, reference):
        w, recs = self.w, result.records
        tau = w.config["tau"]
        m = w.config["batch_size"]
        n = w.blobs[0]
        spe = w.steps_per_epoch
        tag = f"round {self.rounds} ({'reference' if reference else 'seeded'})"

        bad = set()
        jvp = vjp = 0
        for i, rec in enumerate(recs):
            if not math.isfinite(rec.batch_loss):
                bad.add(i)
                self.fail(f"{tag} step {i}: non-finite batch loss {rec.batch_loss}")
            if not rec.descent_ip >= 0:
                bad.add(i)
                self.fail(f"{tag} step {i}: descent_ip {rec.descent_ip!r} < 0")
            counts = (rec.jvp_calls - jvp, rec.vjp_calls - vjp)
            if counts != (tau, tau + 1):
                bad.add(i)
                self.fail(f"{tag} step {i}: jvp/vjp {counts}, expected {(tau, tau + 1)}")
            jvp, vjp = rec.jvp_calls, rec.vjp_calls

        whole_round_ok = True
        if result.aborted:
            whole_round_ok = False
            self.fail(f"{tag}: aborted: {result.abort_reason}")
        if not np.all(np.isfinite(result.params)):
            whole_round_ok = False
            self.fail(f"{tag}: non-finite final parameters")
        if reference:
            final = recs[-1].train_loss
            if not final <= w.target:
                whole_round_ok = False
                self.fail(f"{tag}: final train_loss {final!r} above target {w.target}")
            if self.reference_params is None:
                self.reference_params = result.params.tobytes()
                self.reference_records = recs
            elif result.params.tobytes() != self.reference_params:
                whole_round_ok = False
                self.fail(f"{tag}: final parameters differ from the first reference round")
            start = steps[0][0]
            hit = next(
                (i for i, rec in enumerate(recs) if (i + 1) % spe == 0 and rec.train_loss <= w.target),
                None,
            )
            # A round that misses the target has failed above; it counts
            # with its whole training time.
            phase.to_target_s.append(steps[-1 if hit is None else hit][1] - start)
            phase.final_loss = final

        self.attempted += len(recs)
        self.failed += len(recs) if not whole_round_ok else len(bad)
        phase.step_ms.extend((end - start) * 1000.0 for start, end in steps)
        phase.samples += sum(min(m, n - (i % spe) * m) for i in range(len(recs)))
        phase.train_s += steps[-1][1] - steps[0][0]
        phase.jvp_calls += recs[-1].jvp_calls
        phase.vjp_calls += recs[-1].vjp_calls

    def check_cli_parity(self, out_dir):
        """Replay the reference round through ``dualgn.cli.main`` into a CSV;
        every column but ``wall_ms`` must match the library records."""
        from dualgn.cli import CSV_FIELDS, main

        n, d, k, spread = self.w.blobs
        path = out_dir / f"cli_{self.w.name}.csv"
        argv = ["run", "--data", f"blobs:{n},{d},{k},{spread}",
                "--seed", str(REFERENCE_SEED), "--out", str(path)]
        for key, value in self.w.config.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        code = main(argv)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        records = self.reference_records
        self.attempted += len(records)
        if code != 0 or not rows or rows[0] != CSV_FIELDS or len(rows) - 1 != len(records):
            self.failed += len(records)
            self.fail(f"cli: exit code {code}, header {rows[:1]}, {len(rows) - 1} rows "
                      f"for {len(records)} records")
            return
        compared = [f for f in CSV_FIELDS if f != "wall_ms"]
        for i, (row, rec) in enumerate(zip(rows[1:], records)):
            got = dict(zip(CSV_FIELDS, row))
            diff = [f for f in compared if got[f] != str(getattr(rec, f))]
            if diff:
                self.failed += 1
                self.fail(f"cli row {i}: {diff} differ from the library run")


def end_to_end(phase):
    out = timing("step_ms", phase.step_ms)
    out["samples_per_s"] = metric(phase.samples / phase.train_s, "1/s", phase.samples)
    out["time_to_target_s"] = metric(
        percentile(phase.to_target_s, 50), "s", len(phase.to_target_s)
    )
    out["final_train_loss"] = metric(phase.final_loss, "loss")
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def per_layer(w, traced, untraced):
    values = spans.layer_metrics(traced.totals)
    steps = traced.totals["steps"]
    values["linop.jvp_calls_per_step"] = traced.jvp_calls / steps
    values["linop.vjp_calls_per_step"] = traced.vjp_calls / steps
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        make_data(w, REFERENCE_SEED)
        times.append(time.perf_counter() - t0)
    values["data.generate_s"] = percentile(times, 50)
    values["tracing_overhead_ms_per_step"] = (
        percentile(traced.step_ms, 50) - percentile(untraced.step_ms, 50)
    )
    return {name: metric(value, unit_of(name)) for name, value in values.items()}


def unit_of(name):
    if "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def vector_ops_per_step(w, data):
    """The direction routine's vector-op counter for one batch of ``w``."""
    cfg = make_config(w, REFERENCE_SEED)
    m = cfg.batch_size
    X, Y = data.inputs[:m], data.targets[:m]
    model = make_model(cfg.model, X.shape[1], Y.shape[1])
    params = model.init_params(cfg.seed)
    opr = make_jacobian_operator(model, params, X)
    spec = SubproblemSpec(gamma=cfg.gamma, tau=cfg.tau, path=cfg.path)
    route = dual_gn_direction if cfg.path == "dual" else primal_gn_direction
    return route(opr, LossOracle(cfg.loss, Y), model.forward(params, X), spec).report.vector_op_scalar_count


def print_path_ratios(run):
    """The paper's cost claim on the primal/dual pair: the counter beside the
    clock.  Both routes train the reference problem in turn, three times."""
    pair = (run.w, WORKLOADS[run.w.partner])
    step_ms = {x.config["path"]: [] for x in pair}
    for _ in range(3):
        for x in pair:
            result, stamps = train_round(x, REFERENCE_SEED, run.reference)
            step_ms[x.config["path"]] += [(e - s) * 1000.0 for s, e in step_intervals(result, stamps)]
    clock = {path: percentile(values, 50) for path, values in step_ms.items()}
    ops = {x.config["path"]: vector_ops_per_step(x, run.reference) for x in pair}
    print(f"paths: dual/primal step_ms_p50 = {clock['dual']:.4f} ms / "
          f"{clock['primal']:.4f} ms = {clock['dual'] / clock['primal']:.4f}")
    print(f"paths: dual/primal directions.vector_op_scalars_per_step = {ops['dual']} / "
          f"{ops['primal']} = {ops['dual'] / ops['primal']:.4f}")


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def run(w, seed, seconds, trace, out_dir):
    env = environment()
    pristine = spans.current_objects()
    bench = Run(w, seed)
    span_file = None
    if not trace:
        phase = Phase()
        bench.train_for(seconds, [phase])
        metrics = end_to_end(phase)
    else:
        untraced, traced = Phase(), Phase(spans.Tracer())
        bench.train_for(seconds, [untraced, traced])
        span_file = out_dir / f"spans_{w.name}_seed{seed}.jsonl"
        with open(span_file, "w") as fh:
            for row in traced.span_rows:
                fh.write(json.dumps(row) + "\n")
        metrics = per_layer(w, traced, untraced)
        if w.partner:
            print_path_ratios(bench)
    if w.cli_parity:
        bench.check_cli_parity(out_dir)
    moved = [
        key for key, obj in spans.current_objects().items()
        if obj is not pristine[key] or hasattr(obj, "__wrapped__")
    ]
    if moved:
        bench.fail(f"attributes not restored to the package's own objects: {moved}")
    if env["blas_threads"] not in (None, 1):
        bench.fail(f"BLAS runs {env['blas_threads']} threads, expected 1")
    return {
        "metrics": metrics,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "problems": bench.problems,
        "env": env,
        "rounds": bench.rounds,
        "span_file": None if span_file is None else str(span_file.relative_to(ROOT)),
    }


def main(argv):
    mode, name = argv[0], argv[1]
    w = WORKLOADS[name]
    if mode == "setup":
        out = setup(w, float(argv[2]))
    else:
        seed, seconds, trace, out_dir = int(argv[2]), float(argv[3]), int(argv[4]), Path(argv[5])
        out = run(w, seed, seconds, trace, out_dir)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
