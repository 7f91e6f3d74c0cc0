"""dualgn training benchmark.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Drives the public ``dualgn.train(config, dataset, on_record)`` in a closed
loop with one client: each training step starts only after the previous one
returns, in one process with BLAS pinned to one thread.  Workloads are listed
in ``workloads.py``; ``--seed`` makes the seeded problems of a run.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median of
``SETUPS`` set-ups, each in a fresh process, and the rest come from one
process that trains for ``--seconds`` with tracing off.  ``--trace 1``
reports the per-layer metrics: one process alternates untraced and traced
pairs of rounds for ``--seconds`` and writes its spans to ``.bench_out/``.

Prints one line per metric (with sample counts), the environment, and last
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 if
an output check failed and 2 if the benchmark could not run.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from summary import metric, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 11
# Whole-run budget in seconds; a child that would overrun it is killed.
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def child(argv, deadline):
    """Run ``child.py`` with ``argv``; relay its output lines and return its
    last line parsed as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *map(str, argv)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {argv[:2]} exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"child {argv[:2]} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def measure(args, out_dir):
    deadline = time.monotonic() + BUDGET_S
    setups = []

    def time_setups(count):
        for _ in range(count):
            setups.append(child(["setup", args.workload, time.monotonic()], deadline)["setup_s"])

    # Half the set-ups before the timed process and half after, so that a
    # passing burst of load on the machine weighs on fewer of them.
    if not args.trace:
        time_setups(SETUPS // 2)
    res = child(
        ["run", args.workload, args.seed, args.seconds, args.trace, out_dir], deadline
    )
    metrics = {}
    if not args.trace:
        time_setups(SETUPS - SETUPS // 2)
        metrics["setup_s"] = metric(percentile(setups, 50), "s", len(setups))
    metrics.update(res.pop("metrics"))
    return metrics, res


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "dualgn" / "__init__.py").is_file():
        print(f"error: no dualgn package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        metrics, res = measure(args, out_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and not res["problems"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {res['rounds']}")
    for name, m in metrics.items():
        count = f"  (n={m['n']})" if "n" in m else ""
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}{count}")
    print(f"  {'failed_step_ratio':40s} {failed / attempted:>16.6g} ({failed} of {attempted} steps)")
    for problem in res["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print("env: " + json.dumps(res["env"], sort_keys=True))
    if res["span_file"]:
        print(f"spans: {res['span_file']}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, **res}
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
