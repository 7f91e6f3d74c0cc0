import gzip
import struct

import numpy as np
import pytest

from dualgn import (
    Dataset,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    synth_blobs,
)


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
