"""Hypothesis strategies shared by the test modules."""

import dataclasses
import gzip
import math
import struct

import numpy as np
from hypothesis import strategies as st

from dualgn import TrainConfig, make_model

# model-name templates; the hidden widths are drawn
MODELS = ["linear", "mlp:{h}", "mlp:{h},{h2}"]


@st.composite
def jacobian_cases(draw, name, relation, scales=(1.0, 1e2, 1e3), k=None):
    """A model, parameters, batch and cotangent; ``relation`` sets m against d.

    ``relation`` is "lt", "eq" or "gt" for a batch size m below, equal to or
    above the input dimension d, or "one" for m = 1.  The batch may have a
    duplicate or a zero row, and its entries are scaled by one of ``scales``.
    The model has ``k`` outputs, drawn from 1 to 4 when ``k`` is None.
    """
    if relation == "one":
        d, m = draw(st.integers(1, 12)), 1
    elif relation == "lt":
        d = draw(st.integers(2, 12))
        m = draw(st.integers(1, d - 1))
    else:
        d = draw(st.integers(1, 12))
        m = d if relation == "eq" else d + draw(st.integers(1, 4))
    k = draw(st.integers(1, 4)) if k is None else k
    name = name.format(h=draw(st.integers(1, 10)), h2=draw(st.integers(1, 10)))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from(scales))
    rows = draw(st.sampled_from(["plain", "duplicate", "zero"]))
    rng = np.random.Generator(np.random.Philox(key=seed))
    model = make_model(name, d, k)
    X = scale * rng.standard_normal((m, d))
    if rows == "duplicate":
        X[-1] = X[0]
    elif rows == "zero":
        X[0] = 0.0
    return model, model.init_params(seed), X, rng.standard_normal((m, k))


IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC = 0x00000803, 0x00000801
# bodies past this many bytes are drawn short, so their files are truncated
IDX_BODY_CAP = 64


@st.composite
def idx_files(draw):
    """An IDX file for one of the two loaders, as ``(images, data, gz)``.

    ``images`` says whether the file is for the image loader (three sizes in
    its header) or the label loader (one).  The magic number is mostly that
    loader's, else the other loader's or any 32-bit value; each size is
    mostly 0 to 4, else ``2**32 - 1`` or any 32-bit value.  The body holds
    the sizes' product in bytes, plus up to two trailing ones, unless that
    product passes ``IDX_BODY_CAP``: then it is shorter.  This payload may
    be cut at any header or body byte, and it is the file's ``data`` unless
    the file is gzipped (``gz``).  A gzipped file holds the payload
    compressed whole, and then maybe cut at any byte or with one byte
    changed: most such changes damage the gzip stream, but one in its time
    stamp or OS byte does not.
    """
    images = draw(st.booleans())
    u32 = st.integers(0, 2**32 - 1)
    own, other = IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC
    if not images:
        own, other = other, own
    magic = draw(st.sampled_from([own, own, own, other, None]))
    magic = draw(u32) if magic is None else magic
    sizes = []
    for _ in range(3 if images else 1):
        size = draw(st.sampled_from([0, 1, 2, 3, 4, 2**32 - 1, None]))
        sizes.append(draw(u32) if size is None else size)
    size = math.prod(sizes)
    if size <= IDX_BODY_CAP:
        body = draw(st.binary(min_size=size, max_size=size + 2))
    else:
        body = draw(st.binary(max_size=IDX_BODY_CAP))
    payload = struct.pack(f">{len(sizes) + 1}I", magic, *sizes) + body
    payload = payload[: draw(st.none() | st.integers(0, len(payload)))]
    if not draw(st.booleans()):
        return images, payload, False
    data = bytearray(gzip.compress(payload, mtime=0))
    damage = draw(st.sampled_from([None, "cut", "flip"]))
    if damage == "cut":
        del data[draw(st.integers(0, len(data) - 1)) :]
    elif damage == "flip":
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return images, bytes(data), True


# --grid tokens beside the drawn floats: non-finite, zero, negative, huge,
# fractional and unparsable values, and empty items
GRID_TOKENS = [
    "nan", "inf", "-inf", "0", "-0.0", "-1", "1e308", "1e400", "1e-300", "0.5", "0.05", "3", "x", "", " ",
]


@st.composite
def grid_values(draw):
    """A ``--grid`` value: one to four comma-separated tokens, and maybe a
    repeat of one of them, as written or spelled another way with the same
    value (``0.5`` and ``5.00000000000000000e-01``)."""
    token = st.sampled_from(GRID_TOKENS) | st.floats(1e-3, 10).map(repr) | st.floats().map(repr)
    tokens = draw(st.lists(token, min_size=1, max_size=4))
    repeat = draw(st.sampled_from([None, "same", "spelled"]))
    if repeat is not None:
        t = draw(st.sampled_from(tokens))
        if repeat == "spelled":
            try:
                t = f"{float(t):.17e}"
            except ValueError:
                pass
        tokens.insert(draw(st.integers(0, len(tokens))), t)
    return ",".join(tokens)


# A part of a blob spec that is bad: zero, negative, unparsable, empty, or at
# or past 2**63, where numpy's integers end.  The huge sizes must be rejected
# before anything is allocated, so no moderately large size is drawn.
BAD_BLOB_PARTS = ["0", "-1", "x", "", "1.5", str(2**63), str(2**64), "99999999999999999999"]
# valid n, d, k and spread, kept to runs of a few steps; a spread of 1e150
# makes a run that aborts, and 1e308 one whose samples overflow
BLOB_PARTS = (["16", "24"], ["1", "3"], ["2", "3"], ["0.3", "2", "1e150", "1e308"])


@st.composite
def blob_specs(draw):
    """A ``blobs:n,d,k,spread`` data spec of valid small parts, with one of
    them replaced by one of ``BAD_BLOB_PARTS``, or one part missing or one
    too many, or neither."""
    parts = [draw(st.sampled_from(valid)) for valid in BLOB_PARTS]
    damage = draw(st.sampled_from([None, "missing", "extra", 0, 1, 2, 3]))
    if damage == "missing":
        del parts[draw(st.integers(0, 3))]
    elif damage == "extra":
        parts.append("1")
    elif damage is not None:
        parts[damage] = draw(st.sampled_from(BAD_BLOB_PARTS))
    return "blobs:" + ",".join(parts)


# config-file keys and values, valid and not, kept to runs of a few steps
CONFIG_VALUES = {
    "method": ["spl", "sgd", "armijo_spl", "newton"],
    "model": ["linear", "mlp:3", "mlp:x", "mlp:99999999999999999999", "mlp:4611686018427387904"],
    "gamma": ["0.5", "2", "0", "nan", "x"],
    "tau": ["1", "3", "0", "-1"],
    "batch_size": ["8", "16", "0", "1e3"],
    "seed": ["0", "7", "-1", str(2**63)],
    "loss": ["squared", "logistic"],
}


@st.composite
def config_files(draw):
    """A config file's text and whether it sets a key twice.

    Each of up to five lines sets a key of ``CONFIG_VALUES`` (maybe one set
    before) or an unknown key, or is a setting with its ``=`` missing, a
    comment or a blank line.  A key is written in either spelling
    (``batch_size`` or ``batch-size``), and a setting may end in a comment.
    """
    lines, keys = [], []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["set", "again", "unknown", "no_equals", "comment", "blank"]))
        if kind in ("comment", "blank"):
            lines.append("# note" if kind == "comment" else "")
            continue
        key = draw(st.sampled_from(keys if kind == "again" and keys else sorted(CONFIG_VALUES)))
        value = draw(st.sampled_from(CONFIG_VALUES.get(key, ["9"])))
        if kind == "unknown":
            key = draw(st.sampled_from(["warp_factor", "momentum_mu"]))
        if kind != "no_equals":
            keys.append(key)
        if draw(st.booleans()):
            key = key.replace("_", "-")
        tail = draw(st.sampled_from(["", "  # note"]))
        lines.append(f"{key} {value}" if kind == "no_equals" else f"{key} = {value}{tail}")
    return "\n".join(lines) + "\n", len(set(keys)) < len(keys)


# Run-flag values by field type: non-finite, zero, negative, huge,
# fractional, unparsable and empty ones.  A valid huge epochs or tau trains
# without end, so those two fields draw only values that are rejected or
# small: NUMBER_VALUES holds no huge valid integer, and the drawn integers
# are small.
NUMBER_VALUES = ["nan", "inf", "-inf", "0", "-0.0", "-1", "1e308", "0.5", "2.5", "x", "", "1"]
HUGE_INTEGER = "99999999999999999999"
ENDLESS = ("epochs", "tau")
# the string fields' values: the valid ones, and some that are not
STRING_VALUES = {
    "method": ["spl", "armijo_spl", "sgd", "momentum", "adam", "newton", ""],
    "direction": ["gradient", "proxlinear", "x"],
    "path": ["primal", "dual", "auto"],
    "loss": ["squared", "logistic", "hinge"],
    "model": ["linear", "mlp:3", "mlp:4,2", "mlp:x", "mlp:0", "", "mlp:10000000000000",
              "mlp:99999999999999999999"],
}


@st.composite
def run_flags(draw):
    """One to three ``--flag=value`` arguments, each for a field of
    :class:`~dualgn.TrainConfig` drawn from ``dataclasses.fields``, with a
    value for its type: a string field's from ``STRING_VALUES``, a number
    field's from ``NUMBER_VALUES``, a float's repr or a small integer, and
    ``HUGE_INTEGER`` for the fields outside ``ENDLESS``."""
    fields = draw(st.lists(st.sampled_from(dataclasses.fields(TrainConfig)), min_size=1,
                           max_size=3, unique_by=lambda f: f.name))
    args = []
    for field in fields:
        if field.type is str:
            value = draw(st.sampled_from(STRING_VALUES[field.name]))
        else:
            values = NUMBER_VALUES + ([] if field.name in ENDLESS else [HUGE_INTEGER])
            value = draw(st.sampled_from(values) | st.integers(0, 3).map(str)
                         | st.floats().map(repr))
        args.append(f"--{field.name.replace('_', '-')}={value}")
    return args
