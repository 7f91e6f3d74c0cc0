import gzip
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings

from dualgn import (
    Dataset,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    synth_blobs,
)
from strategies import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, idx_files


def test_blobs_balance_and_one_hot():
    ds = synth_blobs(0, n=30, d=2, k=3, spread=0.2)
    assert ds.inputs.shape == (30, 2)
    assert ds.targets.shape == (30, 3)
    counts = ds.targets.sum(axis=0)
    assert list(counts) == [10, 10, 10]
    assert np.array_equal(ds.targets.sum(axis=1), np.ones(30))
    assert set(np.unique(ds.targets)) == {0.0, 1.0}


def test_blobs_uneven_split_within_one():
    ds = synth_blobs(1, n=32, d=2, k=3, spread=0.2)
    counts = sorted(ds.targets.sum(axis=0))
    assert counts == [10, 11, 11]


def test_blobs_deterministic():
    a = synth_blobs(7, n=40, d=3, k=4, spread=0.5)
    b = synth_blobs(7, n=40, d=3, k=4, spread=0.5)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    c = synth_blobs(8, n=40, d=3, k=4, spread=0.5)
    assert not np.array_equal(a.inputs, c.inputs)


def test_blobs_validation():
    with pytest.raises(ValueError, match="n=2 < k=3"):
        synth_blobs(0, n=2, d=2, k=3, spread=0.1)
    with pytest.raises(ValueError, match="two clusters"):
        synth_blobs(0, n=5, d=2, k=1, spread=0.1)
    with pytest.raises(ValueError, match="spread"):
        synth_blobs(0, n=5, d=2, k=2, spread=0.0)


def test_dataset_validation():
    with pytest.raises(ValueError, match="sample count"):
        Dataset(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="2-D"):
        Dataset(np.zeros(3), np.zeros((3, 2)))
    ds = Dataset(np.zeros((3, 2)), np.zeros((3, 1)))
    assert ds.n == 3


def _write_idx_images(path, images):
    n, rows, cols = images.shape
    payload = struct.pack(">IIII", 0x00000803, n, rows, cols) + images.astype(
        np.uint8
    ).tobytes()
    if str(path).endswith(".gz"):
        with gzip.open(path, "wb") as fh:
            fh.write(payload)
    else:
        path.write_bytes(payload)


def _write_idx_labels(path, labels):
    payload = struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)
    path.write_bytes(payload)


def test_idx_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=2))
    images = rng.integers(0, 256, size=(4, 3, 2), dtype=np.uint8)
    labels = [0, 2, 1, 2]
    img_path = tmp_path / "img.idx"
    lbl_path = tmp_path / "lbl.idx"
    _write_idx_images(img_path, images)
    _write_idx_labels(lbl_path, labels)

    X = load_idx_images(img_path)
    assert X.shape == (4, 6)
    np.testing.assert_allclose(X, images.reshape(4, 6) / 255.0)
    y = load_idx_labels(lbl_path)
    assert list(y) == labels

    ds = load_idx_dataset(img_path, lbl_path)
    assert ds.targets.shape == (4, 3)
    assert np.array_equal(np.argmax(ds.targets, axis=1), labels)

    ds5 = load_idx_dataset(img_path, lbl_path, num_classes=5)
    assert ds5.targets.shape == (4, 5)
    # a label past num_classes ended in a raw IndexError, and -1 in numpy's
    # "negative dimensions"
    for bad in (2, -1, 1.5):
        with pytest.raises(ValueError, match="num_classes"):
            load_idx_dataset(img_path, lbl_path, num_classes=bad)


def test_idx_gzip(tmp_path):
    images = np.arange(12, dtype=np.uint8).reshape(2, 3, 2)
    img_path = tmp_path / "img.idx.gz"
    _write_idx_images(img_path, images)
    X = load_idx_images(img_path)
    np.testing.assert_allclose(X, images.reshape(2, 6) / 255.0)


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + bytes(4))
    with pytest.raises(ValueError, match="magic"):
        load_idx_images(path)
    lbl = tmp_path / "bad_lbl.idx"
    lbl.write_bytes(struct.pack(">II", 0x00000803, 1) + bytes(1))
    with pytest.raises(ValueError, match="magic"):
        load_idx_labels(lbl)


def test_idx_truncated(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(5))
    with pytest.raises(ValueError, match="truncated"):
        load_idx_images(path)


def test_idx_truncated_header(tmp_path):
    path = tmp_path / "stub.idx"
    path.write_bytes(bytes(3))
    with pytest.raises(ValueError, match="truncated header"):
        load_idx_images(path)
    with pytest.raises(ValueError, match="truncated header"):
        load_idx_labels(path)


def test_idx_count_mismatch(tmp_path):
    img_path = tmp_path / "img.idx"
    lbl_path = tmp_path / "lbl.idx"
    _write_idx_images(img_path, np.zeros((3, 2, 2), dtype=np.uint8))
    _write_idx_labels(lbl_path, [0, 1])
    with pytest.raises(ValueError, match="mismatch"):
        load_idx_dataset(img_path, lbl_path)


def test_blobs_reject_zero_width_and_non_finite_spread():
    # d=0 used to divide by a zero mean norm; a NaN or inf spread built NaN inputs
    with pytest.raises(ValueError, match="d=0"):
        synth_blobs(0, n=16, d=0, k=3, spread=0.2)
    for spread in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="spread must be finite and positive"):
            synth_blobs(0, n=16, d=2, k=3, spread=spread)


@pytest.mark.parametrize("shape", [(2, 0, 3), (2, 3, 0), (0, 0, 0)])
def test_idx_rejects_zero_width_images(tmp_path, shape):
    path = tmp_path / "empty.idx"
    _write_idx_images(path, np.zeros(shape, dtype=np.uint8))
    with pytest.raises(ValueError, match=f"empty {shape[1]}x{shape[2]} images"):
        load_idx_images(path)


def _write_idx(path, header, body):
    payload = header + body
    if str(path).endswith(".gz"):
        with gzip.open(path, "wb") as fh:
            fh.write(payload)
    else:
        path.write_bytes(payload)


@pytest.mark.parametrize("name", ["over.idx", "over.idx.gz"])
def test_idx_header_declaring_more_than_the_file_is_truncated_data(tmp_path, name):
    images = tmp_path / f"img_{name}"
    _write_idx(images, struct.pack(">IIII", 0x00000803, 1000, 28, 28), bytes(784))
    with pytest.raises(ValueError, match="truncated image data"):
        load_idx_images(images)
    labels = tmp_path / f"lbl_{name}"
    _write_idx(labels, struct.pack(">II", 0x00000801, 60000), bytes(3))
    with pytest.raises(ValueError, match="truncated label data"):
        load_idx_labels(labels)


def test_idx_header_declaring_more_than_can_be_read_is_truncated_data(tmp_path):
    # n * rows * cols ~ 7.9e28 bytes used to be passed to read(), which raised
    # OverflowError; a 2**32 - 1 label count would have requested 4 GiB.
    top = 2**32 - 1
    images = tmp_path / "img.idx"
    _write_idx(images, struct.pack(">IIII", 0x00000803, top, top, top), bytes(16))
    with pytest.raises(ValueError, match="truncated image data"):
        load_idx_images(images)
    labels = tmp_path / "lbl.idx"
    _write_idx(labels, struct.pack(">II", 0x00000801, top), bytes(16))
    with pytest.raises(ValueError, match="truncated label data"):
        load_idx_labels(labels)


def test_idx_trailing_bytes_are_ignored(tmp_path):
    images = tmp_path / "img.idx"
    _write_idx(images, struct.pack(">IIII", 0x00000803, 1, 1, 2), bytes([0, 255, 7, 7]))
    np.testing.assert_array_equal(load_idx_images(images), [[0.0, 1.0]])
    labels = tmp_path / "lbl.idx"
    _write_idx(labels, struct.pack(">II", 0x00000801, 2), bytes([3, 1, 9]))
    assert list(load_idx_labels(labels)) == [3, 1]


def _idx_outcome(images, payload):
    """What the IDX format makes of ``payload`` for the image loader
    (``images``) or the label loader: the array, or the message of the
    ValueError it raises, after the path."""
    dims = 3 if images else 1
    head = 4 * (dims + 1)
    if len(payload) < head:
        return "truncated header"
    magic, *sizes = struct.unpack(f">{dims + 1}I", payload[:head])
    kind, want = ("image", IDX_IMAGE_MAGIC) if images else ("label", IDX_LABEL_MAGIC)
    if magic != want:
        return f"bad {kind} magic 0x{magic:08x}, expected 0x{want:08x}"
    size = math.prod(sizes)
    if len(payload) - head < size:
        return f"truncated {kind} data"
    body = np.frombuffer(payload[head : head + size], dtype=np.uint8)
    if not images:
        return body.astype(np.int64)
    n, rows, cols = sizes
    if rows == 0 or cols == 0:
        return f"empty {rows}x{cols} images"
    if rows * cols >= 2**63:
        return f"{rows}x{cols} images are too large for an array"
    return body.reshape(n, rows * cols) / 255.0


@example(case=(True, struct.pack(">IIII", IDX_IMAGE_MAGIC, 0, 2**32 - 1, 2**32 - 1), False))
@example(case=(False, struct.pack(">II", IDX_LABEL_MAGIC, 0), True))
@settings(max_examples=150)
@given(case=idx_files())
def test_idx_loaders_return_the_declared_arrays_or_their_own_errors(tmp_path_factory, case):
    # Drawn byte strings: either the declared array comes back, bit for bit,
    # or a ValueError with the reader's message for the file; nothing else
    # escapes.  The first example is zero images whose row length no array
    # can hold, for which numpy's reshape raises its own ValueError.
    images, payload, gz = case
    path = tmp_path_factory.getbasetemp() / ("fuzz.idx.gz" if gz else "fuzz.idx")
    _write_idx(path, payload, b"")
    want = _idx_outcome(images, payload)
    load = load_idx_images if images else load_idx_labels
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == f"{path}: {want}"
    else:
        got = load(path)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
