"""Datasets: synthetic Gaussian blobs and the IDX binary image/label format."""

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .cgsolver import _integer

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
    """

    inputs: np.ndarray
    targets: np.ndarray

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

    Returns a :class:`Dataset` with one-hot targets (n, k).  A ``spread``
    so large that a sample overflows raises a ValueError.
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

    with np.errstate(over="ignore"):
        inputs = means[labels] + spread * rng.standard_normal((n, d))
    if not np.isfinite(inputs).all():
        raise ValueError(f"spread {spread} overflows the samples")
    targets = np.zeros((n, k))
    targets[np.arange(n), labels] = 1.0
    return Dataset(inputs=inputs, targets=targets)


def _read_idx(path, magic, kind, dims):
    """The ``dims`` sizes in an IDX file's header and its uint8 body.

    The one reader of both loaders: it reads all of ``path`` (through gzip
    if it ends in ``.gz``), then checks the big-endian ``magic`` number and
    takes the body from what the file holds, never by the size the header
    declares: a bad header may declare more bytes than can be requested at
    all.  The sizes are Python integers, so their product cannot overflow;
    body bytes past it are ignored.  A damaged gzip stream (cut, corrupt or
    not gzip at all), a short header, another magic number or a body shorter
    than the sizes' product raises a ValueError that names ``path`` and, in
    the last two, ``kind``.
    """
    with gzip.open(path, "rb") if str(path).endswith(".gz") else open(path, "rb") as fh:
        try:
            raw = fh.read()
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ValueError(f"{path}: damaged gzip file: {exc}") from None
    head = 4 * (dims + 1)
    if len(raw) < head:
        raise ValueError(f"{path}: truncated header")
    found, *sizes = struct.unpack_from(f">{dims + 1}I", raw)
    if found != magic:
        raise ValueError(f"{path}: bad {kind} magic 0x{found:08x}, expected 0x{magic:08x}")
    size = math.prod(sizes)
    if len(raw) - head < size:
        raise ValueError(f"{path}: truncated {kind} data")
    return sizes, np.frombuffer(raw, dtype=np.uint8, count=size, offset=head)


def load_idx_images(path):
    """Read an IDX image file into a (n, rows*cols) float64 array in [0, 1].

    The header, magic number and body are checked by the reader that
    :func:`load_idx_labels` shares.  Images with no rows or no columns raise
    a ValueError too, and so do zero images whose row length no array can
    hold.
    """
    (n, rows, cols), raw = _read_idx(path, _IDX_IMAGE_MAGIC, "image", 3)
    if rows == 0 or cols == 0:
        raise ValueError(f"{path}: empty {rows}x{cols} images")
    if rows * cols > np.iinfo(np.intp).max:  # only n = 0 gets here
        raise ValueError(f"{path}: {rows}x{cols} images are too large for an array")
    return (raw.astype(np.float64) / 255.0).reshape(n, rows * cols)


def load_idx_labels(path):
    """Read an IDX label file into a (n,) int array.

    The header, magic number and body are checked by the reader that
    :func:`load_idx_images` shares.
    """
    _, raw = _read_idx(path, _IDX_LABEL_MAGIC, "label", 1)
    return raw.astype(np.int64)


def load_idx_dataset(image_path, label_path, num_classes=None):
    """Load paired IDX image/label files as a :class:`Dataset` with one-hot targets.

    ``num_classes`` (default: the largest label plus one) must exceed every
    label; a ValueError names it otherwise.
    """
    inputs = load_idx_images(image_path)
    labels = load_idx_labels(label_path)
    if inputs.shape[0] != labels.shape[0]:
        raise ValueError(
            f"image/label count mismatch: {inputs.shape[0]} vs {labels.shape[0]}"
        )
    top = int(labels.max(initial=-1))
    num_classes = _integer("num_classes", top + 1 if num_classes is None else num_classes)
    if top >= num_classes:
        raise ValueError(f"num_classes {num_classes} does not cover label {top}")
    targets = np.zeros((labels.shape[0], num_classes))
    targets[np.arange(labels.shape[0]), labels] = 1.0
    return Dataset(inputs=inputs, targets=targets)
