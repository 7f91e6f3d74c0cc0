import contextlib
import csv
import dataclasses
import gzip
import io
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dualgn
from dualgn import TrainConfig, TrainResult, cli
from dualgn.cli import CSV_FIELDS, main
from strategies import blob_specs, config_files, grid_values, run_flags

HEADER = "step,epoch,wall_ms,batch_loss,train_loss,train_acc,eta,gamma,inner_iters,jvp_calls,vjp_calls,descent_ip"


def _run(args, monkeypatch=None, env=None):
    if monkeypatch is not None:
        for key in ("DUALGN_SEED",):
            monkeypatch.delenv(key, raising=False)
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
    return main(args)


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_header_and_row_count(tmp_path, monkeypatch):
    out = tmp_path / "m.csv"
    code = _run(
        ["run", "--data", "blobs:64,2,3,0.3", "--batch-size", "32", "--epochs", "5",
         "--method", "spl", "--out", str(out)],
        monkeypatch,
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == HEADER
    rows = _read(out)
    assert rows[0] == CSV_FIELDS
    assert len(rows) == 1 + 10  # 2 steps per epoch * 5 epochs
    steps = [int(r[0]) for r in rows[1:]]
    assert steps == list(range(10))


def test_same_seed_identical_except_wall_ms(tmp_path, monkeypatch):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = _run(
            ["run", "--data", "blobs:48,2,3,0.3", "--batch-size", "16", "--epochs", "2",
             "--seed", "3", "--out", str(out)],
            monkeypatch,
        )
        assert code == 0
        outs.append(_read(out))
    a, b = outs
    assert len(a) == len(b)
    wall_col = CSV_FIELDS.index("wall_ms")
    for ra, rb in zip(a, b):
        for j, (va, vb) in enumerate(zip(ra, rb)):
            if j != wall_col:
                assert va == vb


def test_grid_writes_one_file_per_value(tmp_path, monkeypatch):
    out = tmp_path / "grid.csv"
    code = _run(
        ["run", "--data", "blobs:32,2,2,0.3", "--batch-size", "16", "--epochs", "1",
         "--method", "spl", "--grid", "0.01,0.1,1", "--out", str(out)],
        monkeypatch,
    )
    assert code == 0
    assert not out.exists()
    gammas = []
    for token in ("0.01", "0.1", "1"):
        rows = _read(tmp_path / f"grid_g{token}.csv")
        assert len(rows) == 1 + 2
        gammas.append(rows[1][CSV_FIELDS.index("gamma")])
    assert [float(g) for g in gammas] == [0.01, 0.1, 1.0]


def test_grid_sweeps_eta_for_gradient_methods(tmp_path, monkeypatch):
    out = tmp_path / "g.csv"
    code = _run(
        ["run", "--data", "blobs:32,2,2,0.3", "--batch-size", "16", "--epochs", "1",
         "--method", "sgd", "--eta", "0.5", "--grid", "0.001,0.01", "--out", str(out)],
        monkeypatch,
    )
    assert code == 0
    for token in ("0.001", "0.01"):
        rows = _read(tmp_path / f"g_g{token}.csv")
        assert rows[1][CSV_FIELDS.index("eta")] == repr(float(token))


def test_grid_rejected_for_armijo_spl(tmp_path, monkeypatch, capsys):
    code = _run(
        ["run", "--method", "armijo_spl", "--grid", "0.1,1",
         "--out", str(tmp_path / "x.csv")],
        monkeypatch,
    )
    assert code == 1
    assert "armijo_spl" in capsys.readouterr().err


def test_bad_grid_value_fails_before_any_run(tmp_path, monkeypatch, capsys):
    # the 0.5 point used to train and write g_g0.5.csv before inf was checked
    code = _run(
        ["run", "--data", "blobs:16,2,3,0.2", "--batch-size", "8", "--method", "spl",
         "--grid", "0.5,inf", "--out", str(tmp_path / "g.csv")],
        monkeypatch,
    )
    assert code == 1
    assert "usage error: grid value 'inf'" in capsys.readouterr().err
    assert list(tmp_path.glob("*_g*.csv")) == []


def test_gamma_zero_is_usage_error(tmp_path, monkeypatch, capsys):
    code = _run(["run", "--gamma", "0", "--out", str(tmp_path / "x.csv")], monkeypatch)
    assert code == 1
    assert "gamma" in capsys.readouterr().err


def test_bad_flag_value_is_usage_error(tmp_path, monkeypatch, capsys):
    code = _run(["run", "--tau", "two"], monkeypatch)
    assert code == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_unknown_config_key_named(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = spl\nwarp_factor = 9\n")
    code = _run(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")], monkeypatch)
    assert code == 1
    err = capsys.readouterr().err
    assert "warp_factor" in err
    assert f"{cfg}:2" in err


def test_config_file_flag_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# settings\nmethod = spl\ngamma = 0.25\ndata = blobs:32,2,2,0.3\n"
        "batch-size = 16\nepochs = 1\n"
    )
    out = tmp_path / "m.csv"
    code = _run(
        ["run", "--config", str(cfg), "--gamma", "0.5", "--out", str(out)], monkeypatch
    )
    assert code == 0
    rows = _read(out)
    assert rows[1][CSV_FIELDS.index("gamma")] == "0.5"

    # without the flag the file's value wins over the default
    code = _run(["run", "--config", str(cfg), "--out", str(out)], monkeypatch)
    assert code == 0
    assert _read(out)[1][CSV_FIELDS.index("gamma")] == "0.25"


def test_every_train_config_field_is_a_run_flag_and_a_config_key(tmp_path, monkeypatch, capsys):
    # a TrainConfig field that neither a flag nor a config file can set is a
    # setting no run varies; such settings are class constants instead
    samples = {
        "method": "adam", "direction": "gradient", "path": "primal", "loss": "logistic",
        "model": "mlp:4", "gamma": 0.5, "eta": 0.25, "tau": 3, "batch_size": 8,
        "epochs": 2, "seed": 7, "l1": 0.01, "l2": 0.02,
    }
    fields = dataclasses.fields(TrainConfig)
    assert [f.name for f in fields] == list(samples)
    seen = []
    monkeypatch.setattr(
        cli, "train", lambda config, dataset, on_record: seen.append(config) or TrainResult([])
    )
    cfg = tmp_path / "run.cfg"
    for f in fields:
        cfg.write_text(f"{f.name} = {samples[f.name]}\n")
        flag = "--" + f.name.replace("_", "-")
        for args in ([flag, str(samples[f.name])], ["--config", str(cfg)]):
            seen.clear()
            assert _run(["run", *args, "--out", str(tmp_path / "x.csv")], monkeypatch) == 0
            value = getattr(seen[0], f.name)
            assert type(value) is f.type and value == samples[f.name], (args, value)

    with pytest.raises(SystemExit):
        main(["run", "--help"])
    flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    assert flags - {"--help", "--config", "--data", "--out", "--grid"} == {
        "--" + f.name.replace("_", "-") for f in fields
    }
    cfg.write_text("momentum_mu = 0.5\n")
    assert _run(["run", "--config", str(cfg)], monkeypatch) == 1
    assert "unknown key 'momentum_mu'" in capsys.readouterr().err
    with pytest.raises(TypeError):
        TrainConfig(momentum_mu=0.5)
    constants = ("momentum_mu", "adam_beta1", "adam_beta2", "adam_eps", "armijo_beta",
                 "armijo_shrink", "armijo_max_backtracks")
    assert [getattr(TrainConfig, name) for name in constants] == [
        0.9, 0.9, 0.999, 1e-8, 1e-4, 0.5, 30
    ]


@pytest.mark.parametrize("penalty", ["--l1", "--l2"])
def test_penalized_run_writes_its_csv(penalty, tmp_path, monkeypatch):
    out = tmp_path / "m.csv"
    code = _run(
        ["run", "--data", "blobs:32,2,3,0.3", "--batch-size", "16", "--epochs", "2",
         "--method", "momentum", "--loss", "logistic", penalty, "0.01", "--out", str(out)],
        monkeypatch,
    )
    assert code == 0
    rows = _read(out)
    assert rows[0] == CSV_FIELDS and len(rows) == 1 + 4


def test_bad_config_files_are_usage_errors(tmp_path, monkeypatch, capsys):
    out = tmp_path / "x.csv"
    cfg = tmp_path / "run.cfg"
    for text, message in (
        (None, f"cannot read config file {cfg}"),
        ("method = spl\ngamma 0.5\n", f"{cfg}:2: expected `key = value`, got 'gamma 0.5'"),
        ("gamma = half\n", "key 'gamma': cannot parse number from 'half'"),
        # a key set twice used to take the later value silently
        ("batch_size = 8\nbatch-size = 16\n", f"{cfg}:2: key 'batch_size' is already set on line 1"),
        ("# a\nbatch-size = 8\nmethod = sgd\nbatch_size = 8\n",
         f"{cfg}:4: key 'batch_size' is already set on line 2"),
        # bytes that are not UTF-8 ended in a raw UnicodeDecodeError traceback
        (b"tau = 2\n\xff\xfe = 3\n",
         f"cannot read config file {cfg}: 'utf-8' codec can't decode byte 0xff in position 8"),
    ):
        if isinstance(text, bytes):
            cfg.write_bytes(text)
        elif text is not None:
            cfg.write_text(text)
        code = _run(["run", "--config", str(cfg), "--out", str(out)], monkeypatch)
        assert code == 1
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_empty_grid_is_usage_error(tmp_path, monkeypatch, capsys):
    for grid in ("", " , ,"):
        code = _run(["run", "--grid", grid, "--out", str(tmp_path / "g.csv")], monkeypatch)
        assert code == 1
        assert "usage error: grid: empty value list" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_grid_point_that_aborts_exits_2(tmp_path, monkeypatch, capsys):
    # the gamma=1e14 run of test_dual_alpha_at_round_off_aborts_with_diagnostic_row
    # aborts; the other point trains, and both write their CSV
    out = tmp_path / "g.csv"
    code = _run(
        ["run", "--data", "blobs:32,16,3,1e2", "--loss", "squared", "--model", "linear",
         "--method", "spl", "--tau", "12", "--batch-size", "4", "--epochs", "1",
         "--grid", "0.5,1e14", "--out", str(out)],
        monkeypatch,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("aborted at gamma=1e14: dual variable alpha")
    assert err.count("aborted") == 1
    assert len(_read(tmp_path / "g_g0.5.csv")) == 1 + 8
    assert _read(tmp_path / "g_g1e14.csv")[0] == CSV_FIELDS


def test_env_seed_fallback(tmp_path, monkeypatch):
    base = ["run", "--data", "blobs:32,2,2,0.3", "--batch-size", "16", "--epochs", "1"]
    out_env = tmp_path / "env.csv"
    code = _run(base + ["--out", str(out_env)], monkeypatch, env={"DUALGN_SEED": "5"})
    assert code == 0
    out_flag = tmp_path / "flag.csv"
    monkeypatch.setenv("DUALGN_SEED", "99")  # the explicit flag must win
    assert main(base + ["--seed", "5", "--out", str(out_flag)]) == 0
    loss_col = CSV_FIELDS.index("batch_loss")
    assert [r[loss_col] for r in _read(out_env)] == [r[loss_col] for r in _read(out_flag)]

    out_other = tmp_path / "other.csv"
    code = _run(base + ["--out", str(out_other)], monkeypatch, env={"DUALGN_SEED": "6"})
    assert code == 0
    assert [r[loss_col] for r in _read(out_env)] != [r[loss_col] for r in _read(out_other)]


def test_numeric_abort_leaves_parseable_prefix(tmp_path, monkeypatch, capsys):
    out = tmp_path / "abort.csv"
    code = _run(
        ["run", "--data", "blobs:32,2,2,0.3", "--method", "sgd", "--direction",
         "gradient", "--eta", "1e12", "--model", "linear", "--batch-size", "8",
         "--epochs", "5", "--out", str(out)],
        monkeypatch,
    )
    assert code == 2
    assert "aborted" in capsys.readouterr().err
    rows = _read(out)
    assert rows[0] == CSV_FIELDS
    assert 1 < len(rows) < 1 + 20
    for row in rows[1:]:
        assert len(row) == len(CSV_FIELDS)
        int(row[0])  # parseable step index


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "sgd", "--eta", "1e308"],
        ["--method", "sgd", "--eta", "1e308", "--loss", "logistic"],
        ["--method", "sgd", "--eta", "1e308", "--model", "mlp:4"],
        ["--method", "momentum", "--eta", "1e154"],
        ["--method", "adam", "--eta", "1e308"],
        ["--method", "armijo_spl", "--model", "mlp:4", "--data", "blobs:32,2,3,1e150"],
        # every line-search trial overflows and is rejected
        ["--method", "armijo_spl", "--direction", "gradient", "--model", "mlp:4",
         "--data", "blobs:32,2,3,1e50"],
        # the first step diverges and is the last: only the epoch's metrics see it
        ["--method", "sgd", "--eta", "1e308", "--batch-size", "32", "--epochs", "1"],
    ],
)
def test_diverging_run_exits_2_without_warnings(flags, tmp_path, monkeypatch, capsys):
    # warnings are errors in this suite, so an escaping RuntimeWarning fails it
    out = tmp_path / "div.csv"
    base = ["run", "--data", "blobs:32,2,3,0.2", "--batch-size", "8", "--epochs", "2"]
    code = _run(base + flags + ["--out", str(out)], monkeypatch)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("aborted: non-finite") and "Warning" not in err
    rows = _read(out)
    assert rows[0] == CSV_FIELDS and len(rows) >= 2
    assert rows[-1][0] == err.rsplit(" ", 1)[1].strip()  # the diagnostic row


def test_unwritable_out_is_usage_error(tmp_path, monkeypatch, capsys):
    code = _run(
        ["run", "--out", str(tmp_path / "missing_dir" / "x.csv")], monkeypatch
    )
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def test_bad_data_specs(tmp_path, monkeypatch, capsys):
    assert _run(["run", "--data", "blobs:1,2", "--out", str(tmp_path / "x.csv")], monkeypatch) == 1
    assert _run(["run", "--data", "blobs:a,b,c,d", "--out", str(tmp_path / "x.csv")], monkeypatch) == 1
    assert _run(["run", "--data", "parquet:x", "--out", str(tmp_path / "x.csv")], monkeypatch) == 1
    assert _run(["run", "--data", "idx:only_one", "--out", str(tmp_path / "x.csv")], monkeypatch) == 1
    capsys.readouterr()


def test_data_too_large_for_memory_is_usage_error(tmp_path, monkeypatch, capsys):
    # blobs:99999999999,2,3,0.2 ended in a raw numpy _ArrayMemoryError traceback
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB")

    monkeypatch.setattr(cli, "synth_blobs", out_of_memory)
    monkeypatch.setattr(cli, "load_idx_dataset", out_of_memory)
    out = tmp_path / "x.csv"
    for spec in ("blobs:99999999999,2,3,0.2", "idx:img.idx,lab.idx"):
        code = _run(["run", "--data", spec, "--out", str(out)], monkeypatch)
        assert code == 1
        assert f"usage error: data spec {spec!r}: Unable to allocate" in capsys.readouterr().err
        assert not out.exists()


def test_truncated_idx_header_is_usage_error(tmp_path, monkeypatch, capsys):
    images = tmp_path / "img.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, 1, 1, 2) + bytes(2))
    stub = tmp_path / "stub.idx"
    stub.write_bytes(bytes(3))
    for spec in (f"idx:{stub},{stub}", f"idx:{images},{stub}"):
        code = _run(["run", "--data", spec, "--out", str(tmp_path / "x.csv")], monkeypatch)
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "truncated header" in err


def test_idx_header_declaring_more_than_the_file_is_usage_error(tmp_path, monkeypatch, capsys):
    # n = rows = cols = 2**32 - 1 ended in a raw OverflowError traceback
    top = 2**32 - 1
    huge = tmp_path / "huge.idx"
    huge.write_bytes(struct.pack(">IIII", 0x00000803, top, top, top) + bytes(8))
    images = tmp_path / "img.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, 2, 1, 2) + bytes(4))
    labels = tmp_path / "lab.idx"
    labels.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([0, 1]))
    over = tmp_path / "over.idx"
    over.write_bytes(struct.pack(">II", 0x00000801, 60000) + bytes(2))
    out = tmp_path / "x.csv"
    for spec, what in ((f"idx:{huge},{labels}", "image"), (f"idx:{images},{over}", "label")):
        code = _run(["run", "--data", spec, "--batch-size", "2", "--out", str(out)], monkeypatch)
        assert code == 1
        err = capsys.readouterr().err
        assert f"usage error: data spec {spec!r}" in err and f"truncated {what} data" in err
        assert not out.exists()


def test_dual_alpha_at_round_off_aborts_with_diagnostic_row(tmp_path, monkeypatch, capsys):
    # At gamma=1e14 the dual solve's alpha = g - beta cancels to the round-off
    # of g at step 1; the run stops there instead of stepping along noise.
    out = tmp_path / "abort.csv"
    code = _run(
        ["run", "--data", "blobs:32,16,3,1e2", "--loss", "squared", "--model",
         "linear", "--method", "spl", "--gamma", "1e14", "--tau", "12",
         "--batch-size", "4", "--epochs", "1", "--out", str(out)],
        monkeypatch,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("aborted: dual variable alpha") and "round-off of g" in err
    rows = _read(out)
    assert rows[0] == CSV_FIELDS and len(rows) >= 2
    assert rows[-1][0] == err.rsplit(" ", 1)[1].strip()  # the diagnostic row


def test_numeric_failure_in_solve_leaves_diagnostic_row(tmp_path, monkeypatch, capsys):
    out = tmp_path / "abort.csv"
    code = _run(
        ["run", "--data", "blobs:64,3,2,1e60", "--loss", "squared", "--path",
         "primal", "--epochs", "1", "--out", str(out)],
        monkeypatch,
    )
    assert code == 2
    assert "aborted: non-finite" in capsys.readouterr().err
    rows = _read(out)
    assert rows[0] == CSV_FIELDS
    assert len(rows) == 2 and rows[1][0] == "0"


def test_batch_larger_than_dataset_is_usage_error(tmp_path, monkeypatch, capsys):
    out = tmp_path / "x.csv"
    code = _run(
        ["run", "--data", "blobs:16,2,3,0.2", "--batch-size", "32", "--out", str(out)],
        monkeypatch,
    )
    assert code == 1
    assert "usage error: batch_size 32 exceeds dataset size 16" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys):
    # flag, config file and environment, on blobs and on IDX data
    images = tmp_path / "img.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, 2, 1, 2) + bytes(4))
    labels = tmp_path / "lab.idx"
    labels.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([0, 1]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n")
    out = tmp_path / "x.csv"
    for args, env in (
        (["--seed", "-1", "--data", f"idx:{images},{labels}", "--batch-size", "2"], None),
        (["--seed", "-1", "--data", "blobs:16,2,3,0.2", "--batch-size", "8"], None),
        (["--config", str(cfg)], None),
        ([], {"DUALGN_SEED": "-1"}),
    ):
        code = _run(["run", *args, "--out", str(out)], monkeypatch, env=env)
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error: seed must be a nonnegative integer, got -1" in err
        assert not out.exists()


def test_bad_model_is_usage_error(tmp_path, monkeypatch, capsys):
    out = tmp_path / "x.csv"
    for spec in ("mlp:x", "mlp:0", "mlp:8,,8"):
        code = _run(["run", "--model", spec, "--out", str(out)], monkeypatch)
        assert code == 1
        err = capsys.readouterr().err
        assert f"usage error: bad mlp hidden dims in '{spec}'" in err
        assert not out.exists()


def _gzipped_images(path, damage):
    """A gzipped IDX file of two 1x2 images, cut short or with its first
    deflate block's type bits set to the reserved value 3."""
    data = bytearray(gzip.compress(struct.pack(">IIII", 0x00000803, 2, 1, 2) + bytes(4), mtime=0))
    if damage == "cut":
        del data[-3:]
    else:
        data[10] = 0xFF  # gzip.compress writes a 10-byte header
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "case, named",
    [
        # numpy's MemoryError from init_params, after a header-only CSV was written
        pytest.param(
            ["--model", "mlp:10000000000000"],
            "model 'mlp:10000000000000' does not fit in memory",
            id="huge-model",
        ),
        # numpy's ValueError from init_params at the data's input size, after a
        # header-only CSV was written
        pytest.param(
            ["--model", "mlp:99999999999999999999"],
            "model 'mlp:99999999999999999999' does not fit in memory",
            id="model-too-wide-for-an-array",
        ),
        pytest.param(
            ["--model", "mlp:4611686018427387904"],
            "model 'mlp:4611686018427387904' does not fit in memory",
            id="model-too-wide-for-the-data",
        ),
        # a TypeError from np.repeat: n // k made an object array
        pytest.param(
            ["--data", "blobs:99999999999999999999,2,3,0.3"],
            "99999999999999999999 samples of 2 inputs and 3 classes do not fit in an array",
            id="huge-blob-count",
        ),
        # numpy's overflow RuntimeWarning from synth_blobs, then a numeric abort
        pytest.param(
            ["--data", "blobs:64,2,3,1e308"], "spread 1e+308 overflows the samples",
            id="overflowing-spread",
        ),
        pytest.param("cut", "damaged gzip file: Compressed file ended", id="cut-gz"),  # EOFError
        pytest.param("corrupt", "damaged gzip file: Error -3", id="corrupt-gz"),  # zlib.error
    ],
)
def test_unusable_inputs_exit_1_without_traceback_warning_or_csv(
    case, named, tmp_path, monkeypatch, capsys
):
    # warnings are errors in this suite, so an escaping warning fails it too
    flags = case
    if isinstance(case, str):
        images, labels = tmp_path / "img.idx.gz", tmp_path / "lab.idx"
        _gzipped_images(images, case)
        labels.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([0, 1]))
        flags = ["--data", f"idx:{images},{labels}", "--batch-size", "2"]
    out = tmp_path / "x.csv"
    code = _run(["run", *flags, "--out", str(out)], monkeypatch)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("usage error:") and err.count("\n") == 1 and named in err
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("model", ["mlp:10000000000000", "mlp:99999999999999999999"])
@pytest.mark.parametrize("grid", [None, "0.1,0.2"])
def test_a_model_usage_error_leaves_an_existing_out_file_unchanged(model, grid, tmp_path, monkeypatch, capsys):
    # The CSV used to be truncated before the model was allocated, and the
    # MemoryError handler then removed it.  A new path is still left absent.
    out = tmp_path / "old.csv"
    kept = [out] if grid is None else [tmp_path / "old_g0.1.csv", tmp_path / "old_g0.2.csv"]
    for path in kept:
        path.write_text("keep me\n")
    flags = [] if grid is None else ["--method", "sgd", "--grid", grid]
    code = _run(["run", "--data", "blobs:64,2,3,0.3", "--model", model, *flags, "--out", str(out)],
                monkeypatch)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"usage error: model '{model}' does not fit in memory") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == sorted(kept)
    assert all(path.read_text() == "keep me\n" for path in kept)
    # a run that writes its first record replaces the old file whole
    assert _run(["run", "--data", "blobs:16,2,3,0.3", "--batch-size", "8", "--epochs", "1",
                 *flags, "--out", str(out)], monkeypatch) == 0
    assert all(_read(path)[0] == CSV_FIELDS and len(_read(path)) == 3 for path in kept)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_write_to_a_full_device_is_a_usage_error(monkeypatch, capsys):
    # The first record's flush raised OSError (ENOSPC) as a raw traceback, and
    # the close raised it again.  The run removes no device: os.remove is
    # replaced by a recorder, so that a fault here cannot delete /dev/full.
    removed = []
    monkeypatch.setattr(cli.os, "remove", removed.append)
    code = _run(["run", "--data", "blobs:64,2,3,0.3", "--batch-size", "16", "--epochs", "1",
                 "--out", "/dev/full"], monkeypatch)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("usage error: cannot write /dev/full: [Errno 28]") and err.count("\n") == 1
    assert removed == [] and os.path.exists("/dev/full")


@pytest.mark.parametrize("old", [False, True])
def test_a_write_that_fails_mid_run_removes_the_partial_file(old, tmp_path, monkeypatch, capsys):
    # a write that fails after the first record leaves no partial CSV behind,
    # whether the path was new or held an old file
    out = tmp_path / "x.csv"
    if old:
        out.write_text("keep me\n")
    train = cli.train

    def full_after_one_record(config, dataset, on_record):
        def emit(rec):
            on_record(rec)
            raise OSError(28, "No space left on device")

        return train(config, dataset, on_record=emit)

    monkeypatch.setattr(cli, "train", full_after_one_record)
    code = _run(["run", "--data", "blobs:16,2,3,0.3", "--batch-size", "8", "--epochs", "1",
                 "--out", str(out)], monkeypatch)
    assert code == 1
    assert capsys.readouterr().err == f"usage error: cannot write {out}: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == []


def test_a_run_without_records_writes_its_header_over_an_old_file(tmp_path, monkeypatch):
    out = tmp_path / "old.csv"
    out.write_text("keep me\n")
    assert _run(["run", "--data", "blobs:16,2,3,0.3", "--batch-size", "8", "--epochs", "0",
                 "--out", str(out)], monkeypatch) == 0
    assert out.read_text().splitlines() == [HEADER]


def test_out_may_be_a_device(monkeypatch):
    # the CSV is opened for writing at the first record, not truncated in
    # place after the appending probe: a device refuses that with an OSError
    assert _run(["run", "--data", "blobs:16,2,3,0.3", "--batch-size", "8", "--epochs", "1",
                 "--out", os.devnull], monkeypatch) == 0


def _drawn_run(args, config=None):
    """``main(["run", *args])`` writing ``m.csv`` in a new directory, and a
    ``run.cfg`` of text ``config`` there if given: the exit code, stderr and
    the rows of each CSV left behind, by name."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        if config is not None:
            with open(os.path.join(tmp, "run.cfg"), "w") as fh:
                fh.write(config)
            args = [*args, "--config", os.path.join(tmp, "run.cfg")]
        code = main(["run", *args, "--out", os.path.join(tmp, "m.csv")])
        files = {
            name: _read(os.path.join(tmp, name)) for name in os.listdir(tmp) if name.endswith(".csv")
        }
    return code, err.getvalue(), files


@given(method=st.sampled_from(["spl", "sgd", "momentum", "adam", "armijo_spl"]), grid=grid_values())
def test_drawn_grids_exit_0_to_3_without_traceback_warning_or_stray_csv(method, grid):
    # Warnings are errors in this suite, so an escaping warning fails it too.
    # A usage error leaves no CSV; otherwise each value has its CSV, and an
    # aborted point's CSV ends in its diagnostic row.
    code, err, files = _drawn_run(["--data", "blobs:16,2,3,0.3", "--batch-size", "8", "--epochs", "1",
                                   "--seed", "0", "--method", method, f"--grid={grid}"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err
    if code == 1:
        assert err.startswith("usage error:") and files == {}
        return
    tokens = [t.strip() for t in grid.split(",") if t.strip()]
    assert sorted(files) == sorted(f"m_g{t}.csv" for t in tokens)
    aborted = re.findall(r"^aborted at \w+=(\S+): ", err, flags=re.M)
    assert (code == 2) == bool(aborted)
    for token in aborted:
        rows = files[f"m_g{token}.csv"]
        assert rows[0] == CSV_FIELDS and len(rows) >= 2


def _assert_run_contract(code, err, files, steps=True):
    # Warnings are errors in this suite, so an escaping warning fails it too.
    # A usage error is one line and leaves no CSV; an abort's CSV ends in its
    # diagnostic row, the step the message names.  A run of zero epochs
    # (steps False) writes the header alone.
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err
    if code == 1:
        assert err.startswith("usage error:") and err.count("\n") == 1 and files == {}
        return
    rows = files["m.csv"]
    assert rows[0] == CSV_FIELDS and (len(rows) >= 2 if steps else rows == [CSV_FIELDS])
    if code == 2:
        assert rows[-1][0] == err.rsplit(" ", 1)[1].strip()


@settings(max_examples=100)
@given(flags=run_flags())
@example(["--model=mlp:10000000000000"])  # a MemoryError from init_params
@example(["--gamma=1e300"])  # a numeric abort on the dual route
@example(["--path=primal", "--gamma=1e300"])  # exits 0
@example(["--method=sgd", "--eta=1e308"])  # a non-finite batch loss at step 1
def test_drawn_run_flags_exit_0_to_2_without_traceback_warning_or_stray_csv(flags):
    # every TrainConfig field's flag, with values non-finite, zero, negative,
    # huge, fractional, unparsable or empty
    epochs = [flag.split("=", 1)[1] for flag in ["--epochs=1", *flags] if flag.startswith("--epochs=")]
    code, err, files = _drawn_run(["--data", "blobs:16,2,3,0.3", "--batch-size", "8", "--epochs=1", *flags])
    _assert_run_contract(code, err, files, steps=epochs[-1].strip() not in ("0", "-0"))


@settings(max_examples=100)
@given(spec=blob_specs())
@example("blobs:99999999999999999999,2,3,0.3")  # a raw TypeError from np.repeat
@example("blobs:18446744073709551616,2,3,0.3")  # a segfault in np.repeat
def test_drawn_blob_specs_exit_0_to_2_without_traceback_warning_or_stray_csv(spec):
    _assert_run_contract(*_drawn_run(["--data", spec, "--batch-size", "8", "--epochs", "1"]))


@settings(max_examples=100)
@given(drawn=config_files())
# a key set twice took the later value silently, and these models ended in a
# raw ValueError from init_params after the CSV header was written
@example(("batch_size = 8\nbatch-size = 16\n", True))
@example(("model = mlp:99999999999999999999\n", False))
@example(("model = mlp:4611686018427387904\n", False))
def test_drawn_config_files_exit_0_to_2_and_reject_a_repeated_key(drawn):
    text, repeated = drawn
    code, err, files = _drawn_run(["--data", "blobs:32,2,3,0.3", "--epochs", "1"], text)
    _assert_run_contract(code, err, files)
    if repeated:
        assert code == 1


def test_verify_unknown_suite_is_usage_error(capsys):
    # `verify` is retired, so it is an unknown command: one usage-error line,
    # with or without a suite name
    for args in (["verify"], ["verify", "spectral"]):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "usage error: argument command: invalid choice: 'verify' (choose from 'run')\n"
        )
        assert captured.out == ""


def test_verify_failure_exit_code(capsys):
    # Exit code 3 reported a failed verify suite and went with the subcommand:
    # each former suite call is a usage error, and the codes are 0, 1 and 2.
    assert "Exit codes: 0 success, 1 usage error, 2 numeric abort." in " ".join(cli.__doc__.split())
    for suite in ("adjoint", "descent", "duality", "constraints", "cost", "all"):
        assert main(["verify", suite, "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1
        assert captured.out == ""


def test_verify_seed_out_of_range_is_usage_error(tmp_path, monkeypatch, recwarn, capsys):
    # The seeds this test gave the retired `verify --seed` reach the same range
    # check, now TrainConfig's alone, through `run`: 2**64 - 2 and up overflowed
    # a numpy integer (2**64 - 1 with a warning first); a negative seed reached
    # numpy's key check.
    out = tmp_path / "x.csv"
    base = ["run", "--data", "blobs:16,2,3,0.2", "--batch-size", "8", "--epochs", "1",
            "--out", str(out)]
    for seed in (-1, 2**63, 2**64 - 2, 2**64 - 1):
        assert _run([*base, f"--seed={seed}"], monkeypatch) == 1
        captured = capsys.readouterr()
        bound = "" if seed < 0 else " below 2**63"
        assert captured.err == f"usage error: seed must be a nonnegative integer{bound}, got {seed}\n"
        assert captured.out == "" and not out.exists()
    assert len(recwarn) == 0
    assert _run([*base, f"--seed={2**63 - 1}"], monkeypatch) == 0


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_dataset_seed_follows_config(tmp_path, monkeypatch):
    # the blobs dataset is regenerated from the run seed
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    base = ["run", "--data", "blobs:32,2,2,0.3", "--batch-size", "32", "--epochs", "1"]
    _run(base + ["--seed", "1", "--out", str(out1)], monkeypatch)
    _run(base + ["--seed", "2", "--out", str(out2)], monkeypatch)
    col = CSV_FIELDS.index("train_loss")
    assert _read(out1)[1][col] != _read(out2)[1][col]


def test_seed_at_or_above_2_pow_63_is_usage_error(tmp_path, monkeypatch, capsys):
    # 2**63 used to collide with 2**63 + 5 in the shuffle key; 2**64 overflowed
    out = tmp_path / "x.csv"
    for seed in (2**63, 2**64):
        code = _run(
            ["run", "--data", "blobs:16,2,3,0.2", "--batch-size", "8", "--seed", str(seed),
             "--out", str(out)],
            monkeypatch,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"usage error: seed must be a nonnegative integer below 2**63, got {seed}" in err
        assert not out.exists()


def test_degenerate_data_is_usage_error(tmp_path, monkeypatch, capsys):
    labels = tmp_path / "lab.idx"
    labels.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([0, 1]))
    specs = ["blobs:16,0,3,0.2", "blobs:16,2,3,nan", "blobs:16,2,3,inf"]
    for rows, cols in ((0, 2), (2, 0)):
        images = tmp_path / f"img_{rows}x{cols}.idx"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 2, rows, cols))
        specs.append(f"idx:{images},{labels}")
    out = tmp_path / "x.csv"
    for spec in specs:
        code = _run(["run", "--data", spec, "--batch-size", "2", "--out", str(out)], monkeypatch)
        assert code == 1
        assert f"usage error: data spec {spec!r}" in capsys.readouterr().err
        assert not out.exists()


def test_non_finite_or_negative_floats_are_usage_errors(tmp_path, monkeypatch, capsys):
    # gamma inf (or 1e400) ended in a raw ZeroDivisionError with a header-only
    # CSV, l1 nan and l2 inf trained and exited 0, eta inf was a numeric abort
    out = tmp_path / "x.csv"
    for key, value, kind in (
        ("gamma", "inf", "positive"),
        ("gamma", "1e400", "positive"),
        ("gamma", "nan", "positive"),
        ("eta", "inf", "positive"),
        ("l1", "nan", "nonnegative"),
        ("l2", "inf", "nonnegative"),
        ("l2", "-1", "nonnegative"),
    ):
        code = _run(
            ["run", "--data", "blobs:16,2,3,0.2", "--batch-size", "8", "--method", "sgd",
             f"--{key}", value, "--out", str(out)],
            monkeypatch,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"usage error: {key} must be a finite {kind} number, got {float(value)}" in err
        assert not out.exists()


def test_python_dash_m_runs_the_cli_from_a_checkout(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "DUALGN_SEED"}
    env["PYTHONPATH"] = str(Path(dualgn.__file__).parents[1])
    base = [sys.executable, "-m", "dualgn", "run", "--data", "blobs:32,2,3,0.2",
            "--batch-size", "8", "--epochs", "1"]
    out = tmp_path / "m.csv"
    proc = subprocess.run(base + ["--out", str(out)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == HEADER
    proc = subprocess.run(base + ["--gamma", "0", "--out", str(out)], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "usage error" in proc.stderr


def test_bad_grid_is_rejected_before_the_data_is_built(tmp_path, monkeypatch, capsys):
    def no_data(spec, seed):
        raise AssertionError("the data was built before the grid was checked")

    monkeypatch.setattr(cli, "_load_data", no_data)
    cases = [
        ([], "", "usage error: grid: empty value list"),
        (["--method", "armijo_spl"], "0.1,1", "usage error: grid: armijo_spl fixes gamma=1"),
        (["--method", "spl"], "0.5,nan", "usage error: grid value 'nan': gamma must be"),
        (["--method", "sgd"], "nan", "usage error: grid value 'nan': eta must be"),
        # a repeated value used to train its point twice, the second run
        # overwriting g_g0.1.csv; values are compared after parsing
        (["--method", "sgd"], "0.1,0.1", "usage error: grid value '0.1': eta=0.1 appears twice"),
        (["--method", "spl"], "0.5,1,5e-1", "usage error: grid value '5e-1': gamma=0.5 appears twice"),
    ]
    for flags, grid, message in cases:
        out = tmp_path / "g.csv"
        code = _run(["run", *flags, "--grid", grid, "--out", str(out)], monkeypatch)
        assert code == 1
        assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
