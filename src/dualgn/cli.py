"""Command-line front end: training runs, gamma/eta grids and CSV metrics.

Exit codes: 0 success, 1 usage error, 2 numeric abort.  Settings come from
defaults, then a ``key = value`` config file (``--config``) that sets each key
at most once, then flags; ``DUALGN_SEED`` in the environment supplies the seed
when neither file nor flag sets one.  The run settings are the fields of
:class:`~dualgn.trainer.TrainConfig`: each is a config-file key and a flag
(``batch_size`` is ``--batch-size``) of the field's type, beside ``data``,
``out`` and ``grid``.
"""

import argparse
import csv
import dataclasses
import os
import sys

from .data import load_idx_dataset, synth_blobs
from .directions import PATHS
from .exceptions import UsageError
from .losses import LOSS_KINDS
from .models import make_model
from .trainer import DIRECTIONS, METHODS, RunRecord, TrainConfig, train

__all__ = ["main", "CSV_FIELDS"]

CSV_FIELDS = [f.name for f in dataclasses.fields(RunRecord)]

DEFAULT_DATA = "blobs:512,2,3,0.2"
DEFAULT_OUT = "metrics.csv"

_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_CHOICES = {"method": METHODS, "direction": DIRECTIONS, "path": PATHS, "loss": LOSS_KINDS}
_ALL_KEYS = (*_TYPES, "data", "out", "grid")


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as usage errors instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="dualgn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train a model and write per-step CSV metrics")
    run_p.add_argument("--config", help="key = value settings file")
    for name, kind in _TYPES.items():
        run_p.add_argument(
            "--" + name.replace("_", "-"), type=kind, choices=_CHOICES.get(name),
            help="linear | mlp:<h1,h2,...>" if name == "model" else None,
        )
    run_p.add_argument(
        "--grid",
        help="comma list sweeping gamma (spl) or eta (sgd/momentum/adam); "
        "one CSV per value",
    )
    run_p.add_argument(
        "--data", help=f"blobs:<n,d,k,spread> or idx:<images,labels> (default {DEFAULT_DATA})"
    )
    run_p.add_argument("--out", help=f"CSV path (default {DEFAULT_OUT})")
    return parser


def _convert(key, value):
    try:
        return _TYPES.get(key, str)(value)
    except ValueError:
        raise UsageError(f"key {key!r}: cannot parse number from {value!r}") from None


def _read_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    settings, set_on = {}, {}
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
        if key in set_on:
            raise UsageError(f"{path}:{line_no}: key {key!r} is already set on line {set_on[key]}")
        set_on[key] = line_no
        settings[key] = _convert(key, value)
    return settings


def _assemble(args, env):
    """Merge defaults < config file < flags; returns (config, data, runs).

    ``runs`` lists each run as ``(csv_path, abort_suffix, config)``: the one
    run ``[(out, "", config)]``, or :func:`_grid_points` of the ``--grid``
    value, so a bad grid is rejected before any data is built.
    """
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
    runs = [(out, "", config)] if grid is None else _grid_points(config, grid, out)
    return config, data_spec, runs


def _grid_points(config, grid, out):
    """The runs of a ``--grid`` value, as ``(csv_path, abort_suffix, config)``.

    Each value of the swept setting ``key`` (gamma under ``spl``, else eta)
    is checked before the first run writes a file, and a value that appears
    twice (``0.1,1e-1``) is a usage error; its run writes
    ``{root}_g{token}{ext}`` of ``out`` (``.csv`` if ``out`` has no
    extension), and an abort reads `` at {key}={token}``.
    """
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
    runs = []
    for token in tokens:
        value = _convert(key, token)
        try:
            point = dataclasses.replace(config, **{key: value})
        except ValueError as exc:
            raise UsageError(f"grid value {token!r}: {exc}") from None
        if any(getattr(run, key) == value for *_, run in runs):
            raise UsageError(f"grid value {token!r}: {key}={value} appears twice")
        runs.append((f"{root}_g{token}{ext or '.csv'}", f" at {key}={token}", point))
    return runs


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
        except (ValueError, MemoryError) as exc:
            raise UsageError(f"data spec {spec!r}: {exc}") from None
    if kind == "idx":
        parts = [p.strip() for p in rest.split(",")] if rest else []
        if len(parts) != 2:
            raise UsageError(f"data spec {spec!r}: idx needs <images>,<labels>")
        try:
            return load_idx_dataset(parts[0], parts[1])
        except (OSError, ValueError, MemoryError) as exc:
            raise UsageError(f"data spec {spec!r}: {exc}") from None
    raise UsageError(f"data spec {spec!r}: unknown kind {kind!r}")


def _run_one(config, dataset, out_path):
    """Train once, streaming records to ``out_path`` row by row.

    The path is opened for appending first, which changes no file, so an
    unwritable path is a usage error before training starts.  The file is
    written, header first, from the run's first record on (or at the end of
    a run without records).  Running out of memory, as a model too large to
    allocate does, is a usage error that names the model, and a write that
    fails, as on a full disk, is one that names the path.  Either way a file
    that was there before and has no record yet is left as it was, and any
    other regular file is removed; a device such as ``/dev/full`` never is.
    """
    made = not os.path.exists(out_path)
    try:
        open(out_path, "a").close()
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc}") from None
    fh = writer = None

    def emit(rec):
        nonlocal fh, writer
        if fh is None:
            fh = open(out_path, "w", newline="")
            writer = csv.writer(fh)
            writer.writerow(CSV_FIELDS)
        if rec is not None:
            writer.writerow([getattr(rec, field) for field in CSV_FIELDS])
        fh.flush()

    try:
        try:
            result = train(config, dataset, on_record=emit)
            emit(None)
        finally:  # a close after a failed write fails again, and is caught below
            if fh is not None:
                fh.close()
        return result
    except (MemoryError, OSError) as exc:
        if (made or fh is not None) and os.path.isfile(out_path):
            os.remove(out_path)
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write {out_path}: {exc}") from None
        raise UsageError(f"model {config.model!r} does not fit in memory: {exc}") from None


def _cmd_run(args, env):
    config, data_spec, runs = _assemble(args, env)
    dataset = _load_data(data_spec, config.seed)
    if config.batch_size > dataset.n:
        raise UsageError(f"batch_size {config.batch_size} exceeds dataset size {dataset.n}")
    code = 0
    for out_path, suffix, run_config in runs:
        result = _run_one(run_config, dataset, out_path)
        if result.aborted:
            print(f"aborted{suffix}: {result.abort_reason}", file=sys.stderr)
            code = 2
    return code


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return _cmd_run(args, os.environ)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
