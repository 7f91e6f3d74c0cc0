"""Command-line front end: training runs, gamma/eta grids, CSV metrics,
and the built-in verification suites.

Exit codes: 0 success, 1 usage error, 2 numeric abort, 3 verification
failure.  Settings come from defaults, then a ``key = value`` config file
(``--config``), then flags; ``DUALGN_SEED`` in the environment supplies the
seed when neither file nor flag sets one.
"""

import argparse
import csv
import dataclasses
import os
import sys

from .data import load_idx_dataset, synth_blobs
from .directions import PATHS
from .exceptions import NumericError, UsageError
from .losses import LOSS_KINDS
from .models import make_model
from .trainer import DIRECTIONS, METHODS, RunRecord, TrainConfig, train
from .verify import SUITES, run_suite

__all__ = ["main", "CSV_FIELDS"]

CSV_FIELDS = [f.name for f in dataclasses.fields(RunRecord)]

DEFAULT_DATA = "blobs:512,2,3,0.2"
DEFAULT_OUT = "metrics.csv"

_INT_KEYS = ("tau", "batch_size", "epochs", "seed")
_FLOAT_KEYS = ("gamma", "eta", "l1", "l2")
_STR_KEYS = ("method", "direction", "path", "loss", "model", "data", "out", "grid")
_ALL_KEYS = _INT_KEYS + _FLOAT_KEYS + _STR_KEYS


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as usage errors instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="dualgn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train a model and write per-step CSV metrics")
    run_p.add_argument("--config", help="key = value settings file")
    run_p.add_argument("--method", choices=METHODS)
    run_p.add_argument("--direction", choices=DIRECTIONS)
    run_p.add_argument("--path", choices=PATHS)
    run_p.add_argument("--loss", choices=LOSS_KINDS)
    run_p.add_argument("--model", help="linear | mlp:<h1,h2,...>")
    run_p.add_argument("--gamma", type=float)
    run_p.add_argument("--eta", type=float)
    run_p.add_argument("--tau", type=int)
    run_p.add_argument("--batch-size", type=int)
    run_p.add_argument("--epochs", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--l1", type=float)
    run_p.add_argument("--l2", type=float)
    run_p.add_argument(
        "--grid",
        help="comma list sweeping gamma (spl) or eta (sgd/momentum/adam); "
        "one CSV per value",
    )
    run_p.add_argument(
        "--data", help=f"blobs:<n,d,k,spread> or idx:<images,labels> (default {DEFAULT_DATA})"
    )
    run_p.add_argument("--out", help=f"CSV path (default {DEFAULT_OUT})")

    ver_p = sub.add_parser("verify", help="run a built-in verification suite")
    ver_p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    ver_p.add_argument("--seed", type=int, default=0)
    return parser


def _convert(key, value):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError:
        raise UsageError(f"key {key!r}: cannot parse number from {value!r}") from None
    return value


def _read_config_file(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    settings = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _ALL_KEYS:
            raise UsageError(f"{path}:{line_no}: unknown key {key!r}")
        settings[key] = _convert(key, value)
    return settings


def _assemble(args, env):
    """Merge defaults < config file < flags; returns (config, data, out, grid)."""
    settings = {}
    if args.config:
        settings.update(_read_config_file(args.config))
    for key in _ALL_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if "seed" not in settings and env.get("DUALGN_SEED") is not None:
        settings["seed"] = _convert("seed", env["DUALGN_SEED"])

    data_spec = settings.pop("data", DEFAULT_DATA)
    out = settings.pop("out", DEFAULT_OUT)
    grid = settings.pop("grid", None)
    try:
        config = TrainConfig(**settings)
        make_model(config.model, 1, 2)  # eager model-spec validation
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return config, data_spec, out, grid


def _load_data(spec, seed):
    kind, _, rest = spec.partition(":")
    if kind == "blobs":
        parts = [p.strip() for p in rest.split(",")] if rest else []
        if len(parts) != 4:
            raise UsageError(f"data spec {spec!r}: blobs needs n,d,k,spread")
        try:
            n, d, k = (int(p) for p in parts[:3])
            spread = float(parts[3])
        except ValueError:
            raise UsageError(f"data spec {spec!r}: cannot parse numbers") from None
        try:
            return synth_blobs(seed, n=n, d=d, k=k, spread=spread)
        except ValueError as exc:
            raise UsageError(f"data spec {spec!r}: {exc}") from None
    if kind == "idx":
        parts = [p.strip() for p in rest.split(",")] if rest else []
        if len(parts) != 2:
            raise UsageError(f"data spec {spec!r}: idx needs <images>,<labels>")
        try:
            return load_idx_dataset(parts[0], parts[1])
        except (OSError, ValueError) as exc:
            raise UsageError(f"data spec {spec!r}: {exc}") from None
    raise UsageError(f"data spec {spec!r}: unknown kind {kind!r}")


def _run_one(config, dataset, out_path):
    """Train once, streaming records to ``out_path`` row by row."""
    try:
        fh = open(out_path, "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc}") from None
    with fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        fh.flush()

        def emit(rec):
            writer.writerow([getattr(rec, field) for field in CSV_FIELDS])
            fh.flush()

        result = train(config, dataset, on_record=emit)
    return result


def _cmd_run(args, env):
    config, data_spec, out, grid = _assemble(args, env)
    dataset = _load_data(data_spec, config.seed)
    if config.batch_size > dataset.n:
        raise UsageError(f"batch_size {config.batch_size} exceeds dataset size {dataset.n}")

    if grid is None:
        result = _run_one(config, dataset, out)
        if result.aborted:
            print(f"aborted: {result.abort_reason}", file=sys.stderr)
            return 2
        return 0

    tokens = [t.strip() for t in grid.split(",") if t.strip()]
    if not tokens:
        raise UsageError("grid: empty value list")
    if config.method == "armijo_spl":
        raise UsageError(
            "grid: armijo_spl fixes gamma=1 and searches the stepsize itself; "
            "nothing to sweep"
        )
    key = "gamma" if config.method == "spl" else "eta"
    root, ext = os.path.splitext(out)
    code = 0
    for token in tokens:
        value = _convert(key, token)
        try:
            point = dataclasses.replace(config, **{key: value})
        except ValueError as exc:
            raise UsageError(f"grid value {token!r}: {exc}") from None
        result = _run_one(point, dataset, f"{root}_g{token}{ext or '.csv'}")
        if result.aborted:
            print(f"aborted at {key}={token}: {result.abort_reason}", file=sys.stderr)
            code = 2
    return code


def _cmd_verify(args):
    try:
        ok, lines = run_suite(args.suite, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    for line in lines:
        print(line)
    print(f"suite {args.suite}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 3


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_run(args, os.environ)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
