"""Numeric summaries used by the benches to assert the paper's shapes."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigError

__all__ = ["monotone_fraction", "series_auc"]


def monotone_fraction(values: Sequence[float], decreasing: bool = True) -> float:
    """Fraction of consecutive steps moving in the expected direction
    (ties count as conforming) — a noise-tolerant monotonicity score."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        return 1.0
    diffs = np.diff(arr)
    good = diffs <= 0 if decreasing else diffs >= 0
    return float(np.count_nonzero(good)) / diffs.size


def series_auc(x: Sequence[float], y: Sequence[float]) -> float:
    """Trapezoidal area under a series, normalized by the x span.

    Used to compare attack efficiency curves: a guided attack's
    accuracy-vs-strikes curve has lower AUC than the blind baseline's.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.size < 2:
        raise ConfigError("need matching x/y series with >= 2 points")
    span = xa[-1] - xa[0]
    if span <= 0:
        raise ConfigError("x must be increasing")
    return float(np.trapezoid(ya, xa) / span)
