"""Hypothesis strategies shared by the test modules."""

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
