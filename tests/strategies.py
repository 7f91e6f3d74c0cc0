"""Hypothesis strategies shared by the test modules."""

import math
import struct

import numpy as np
from hypothesis import strategies as st

from dualgn import make_model

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
    """An IDX file for one of the two loaders, as ``(images, payload, gz)``.

    ``images`` says whether the file is for the image loader (three sizes in
    its header) or the label loader (one).  The magic number is mostly that
    loader's, else the other loader's or any 32-bit value; each size is
    mostly 0 to 4, else ``2**32 - 1`` or any 32-bit value.  The body holds
    the sizes' product in bytes, plus up to two trailing ones, unless that
    product passes ``IDX_BODY_CAP``: then it is shorter.  The payload may be
    cut at any header or body byte, and the file may be gzipped (``gz``), in
    which case the cut payload is compressed whole.
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
    cut = draw(st.none() | st.integers(0, len(payload)))
    return images, payload[:cut], draw(st.booleans())
