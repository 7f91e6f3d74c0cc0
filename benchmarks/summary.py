"""Percentiles and metric records shared by the benchmark's parent and child."""

import math


def percentile(values, q):
    """The ``q``-th percentile (0..100) by linear interpolation between ranks.

    Matches numpy's default ``percentile`` method; raises on an empty input.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def metric(value, unit, n=None):
    """One reported metric; ``n`` is the number of samples it summarises."""
    out = {"value": float(value), "unit": unit}
    if n is not None:
        out["n"] = int(n)
    return out


def timing(name, values_ms):
    """``<name>_p50`` and ``<name>_p90`` of a sample in milliseconds, with its size."""
    n = len(values_ms)
    return {
        f"{name}_p50": metric(percentile(values_ms, 50), "ms", n),
        f"{name}_p90": metric(percentile(values_ms, 90), "ms", n),
    }
