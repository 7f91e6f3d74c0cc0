"""Datasets: synthetic Gaussian blobs and the IDX binary image/label format."""

import gzip
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "synth_blobs",
    "load_idx_images",
    "load_idx_labels",
    "load_idx_dataset",
]

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """A supervised dataset with row-per-sample inputs and targets.

    Attributes
    ----------
    inputs : ndarray, shape (n, d)
    targets : ndarray, shape (n, k)
        One-hot rows for classification, arbitrary reals for regression.
    seed : int or None
        Seed the dataset was generated from, if synthetic.
    """

    inputs: np.ndarray
    targets: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise ValueError("inputs and targets must be 2-D arrays")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"inputs and targets disagree on sample count: "
                f"{self.inputs.shape[0]} vs {self.targets.shape[0]}"
            )

    @property
    def n(self):
        return self.inputs.shape[0]


def synth_blobs(seed, n, d, k, spread):
    """Sample ``n`` points from ``k`` Gaussian clusters in ``R^d``.

    Cluster means are drawn from a standard normal and rescaled to norm 2;
    points are ``mean + spread * noise``.  Class counts are balanced to
    within one sample, and classes are assigned largest-remainder first.
    All randomness comes from a Philox counter-based generator keyed on
    ``seed``, so the dataset is a pure function of its arguments.

    Returns a :class:`Dataset` with one-hot targets (n, k).
    """
    if n < k:
        raise ValueError(f"need at least one sample per cluster: n={n} < k={k}")
    if k < 2:
        raise ValueError(f"need at least two clusters, got k={k}")
    if d < 1:
        raise ValueError(f"need at least one input dimension, got d={d}")
    if not 0 < spread < np.inf:
        raise ValueError(f"spread must be finite and positive, got {spread}")
    rng = np.random.Generator(np.random.Philox(key=seed))

    means = rng.standard_normal((k, d))
    means *= 2.0 / np.linalg.norm(means, axis=1, keepdims=True)

    counts = np.full(k, n // k)
    counts[: n % k] += 1
    labels = np.repeat(np.arange(k), counts)
    labels = labels[rng.permutation(n)]

    inputs = means[labels] + spread * rng.standard_normal((n, d))
    targets = np.zeros((n, k))
    targets[np.arange(n), labels] = 1.0
    return Dataset(inputs=inputs, targets=targets, seed=seed)


def _idx_open(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _idx_header(fh, size, path):
    header = fh.read(size)
    if len(header) != size:
        raise ValueError(f"{path}: truncated header")
    return header


def load_idx_images(path):
    """Read an IDX image file into a (n, rows*cols) float64 array in [0, 1]."""
    with _idx_open(path) as fh:
        magic, n, rows, cols = struct.unpack(">IIII", _idx_header(fh, 16, path))
        if magic != _IDX_IMAGE_MAGIC:
            raise ValueError(
                f"{path}: bad image magic 0x{magic:08x}, expected 0x{_IDX_IMAGE_MAGIC:08x}"
            )
        if rows == 0 or cols == 0:
            raise ValueError(f"{path}: empty {rows}x{cols} images")
        raw = fh.read(n * rows * cols)
    if len(raw) != n * rows * cols:
        raise ValueError(f"{path}: truncated image data")
    pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    return pixels.reshape(n, rows * cols)


def load_idx_labels(path):
    """Read an IDX label file into a (n,) int array."""
    with _idx_open(path) as fh:
        magic, n = struct.unpack(">II", _idx_header(fh, 8, path))
        if magic != _IDX_LABEL_MAGIC:
            raise ValueError(
                f"{path}: bad label magic 0x{magic:08x}, expected 0x{_IDX_LABEL_MAGIC:08x}"
            )
        raw = fh.read(n)
    if len(raw) != n:
        raise ValueError(f"{path}: truncated label data")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def load_idx_dataset(image_path, label_path, num_classes=None):
    """Load paired IDX image/label files as a :class:`Dataset` with one-hot targets."""
    inputs = load_idx_images(image_path)
    labels = load_idx_labels(label_path)
    if inputs.shape[0] != labels.shape[0]:
        raise ValueError(
            f"image/label count mismatch: {inputs.shape[0]} vs {labels.shape[0]}"
        )
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if labels.size else 0
    targets = np.zeros((labels.shape[0], num_classes))
    targets[np.arange(labels.shape[0]), labels] = 1.0
    return Dataset(inputs=inputs, targets=targets)
