"""Ratio-based threshold specification (paper §V).

Users specify the two PEXESO thresholds as intuitive ratios:

* the distance threshold τ as a *percentage of the maximum distance*
  between unit-normalised vectors (2 for Euclidean), and
* the joinability threshold T as a *percentage of the query column size*.

These helpers convert between the ratio forms and the absolute values the
algorithms consume.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.metric import Metric

#: guard against float boundary error when converting T ratios to counts
_EPS = 1e-9


def distance_threshold(fraction: float, metric: Metric, dim: int) -> float:
    """Convert a τ ratio (e.g. ``0.06`` for the paper's default 6%) to a distance.

    Args:
        fraction: fraction of the maximum distance, in ``(0, 1]``.
        metric: the metric in use.
        dim: dimensionality of the (unit-normalised) embeddings.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"distance fraction must be in (0, 1], got {fraction}")
    return fraction * metric.max_distance(dim)


def resolve_tau(
    tau: Optional[float], tau_fraction: Optional[float], dim: int, metric: Metric
) -> float:
    """An absolute τ from exactly one of its two request forms.

    ``tau`` is already absolute; ``tau_fraction`` is converted as the CLI
    does, relative to the metric's maximum distance at ``dim``. Serving
    backends bind their metric and expose this as ``backend.resolve_tau``.
    """
    if (tau is None) == (tau_fraction is None):
        raise ValueError("give exactly one of tau / tau_fraction")
    if tau is not None:
        return float(tau)
    return distance_threshold(float(tau_fraction), metric, dim)


def joinability_count(threshold: float | int, query_size: int) -> int:
    """Convert a joinability threshold to the minimum match count.

    Accepts either a fraction of the query column size in ``(0, 1]``
    (the paper's §V convention — ``jn(Q, S) >= T`` iff the match count is
    at least ``ceil(T * |Q|)``) or an absolute integer count.
    """
    if query_size <= 0:
        raise ValueError("query column must be non-empty")
    if isinstance(threshold, bool):
        raise TypeError("joinability threshold must be a number, not bool")
    if isinstance(threshold, int):
        if not 1 <= threshold <= query_size:
            raise ValueError(
                f"joinability count must be in [1, {query_size}], got {threshold}"
            )
        return threshold
    if not 0.0 < threshold <= 1.0:
        raise ValueError(
            f"fractional joinability threshold must be in (0, 1], got {threshold}"
        )
    return max(1, math.ceil(threshold * query_size - _EPS))
