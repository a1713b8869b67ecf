"""Quantiles over weighted samples."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

__all__ = ["weighted_quantiles"]


def weighted_quantiles(values: Sequence[float], weights: Sequence[int],
                       qs: Sequence[float]) -> Dict[float, float]:
    """``q -> value`` where ``value`` is the smallest sample whose
    cumulative weight reaches ``q`` of the total (nearest rank)."""
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.int64)
    if not len(v) or w.sum() <= 0:
        return {q: 0.0 for q in qs}
    order = np.argsort(v, kind="stable")
    v, cum = v[order], np.cumsum(w[order])
    total = cum[-1]
    return {q: float(v[min(np.searchsorted(cum, q * total), len(v) - 1)])
            for q in qs}
