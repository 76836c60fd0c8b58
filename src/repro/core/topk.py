"""Top-k joinable column search (extension).

The paper's related work ([1], Bogatu et al.) studies *top-k* dataset
discovery; PEXESO's threshold search extends to exact top-k naturally:
find the k columns with the highest joinability ``jn(Q, S)``, breaking
ties by column ID.

Strategy: a top-k search is one :func:`~repro.core.search.pexeso_search`
call with ``T = 1``, whose counts are exact, then sort and cut at k. The
result provably equals sorting all exact joinabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.index import PexesoIndex
from repro.core.search import pexeso_search
from repro.core.stats import SearchStats


@dataclass
class TopKResult:
    """Top-k hits as ``(column_id, match_count, joinability)`` rows."""

    hits: list[tuple[int, int, float]]
    stats: SearchStats
    tau: float
    k: int

    @property
    def column_ids(self) -> list[int]:
        return [cid for cid, _, _ in self.hits]


def pexeso_topk(
    index: PexesoIndex,
    query_vectors: np.ndarray,
    tau: float,
    k: int,
    stats: Optional[SearchStats] = None,
) -> TopKResult:
    """Exact top-k columns by joinability.

    Args:
        index: a built :class:`~repro.core.index.PexesoIndex`.
        query_vectors: ``(|Q|, dim)`` query column.
        tau: distance threshold.
        k: number of columns to return (clamped to the repository size).

    Returns:
        Hits sorted by decreasing joinability, ties by ascending column ID.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n_q = np.atleast_2d(np.asarray(query_vectors)).shape[0]
    if n_q == 0:
        raise ValueError("query column is empty")
    k = min(k, index.n_columns)

    # T = 1: every column with a match is a hit, with its exact count.
    result = pexeso_search(index, query_vectors, tau, 1, stats=stats)
    ranked = sorted(
        result.joinable, key=lambda hit: (-hit.match_count, hit.column_id)
    )
    hits = [(hit.column_id, hit.match_count, hit.joinability) for hit in ranked[:k]]
    return TopKResult(hits=hits, stats=result.stats, tau=float(tau), k=k)


def naive_topk(
    columns, query_vectors: np.ndarray, tau: float, k: int, metric=None
) -> list[tuple[int, int, float]]:
    """Exhaustive top-k oracle for tests (zero-match columns excluded)."""
    from repro.core.metric import EuclideanMetric

    metric = metric if metric is not None else EuclideanMetric()
    query_vectors = np.atleast_2d(np.asarray(query_vectors, dtype=np.float64))
    n_q = query_vectors.shape[0]
    scored = []
    for cid, column in enumerate(columns):
        pairwise = metric.pairwise(query_vectors, np.atleast_2d(column))
        count = int((pairwise <= tau).any(axis=1).sum())
        if count > 0:
            scored.append((cid, count, count / n_q))
    scored.sort(key=lambda row: (-row[1], row[0]))
    return scored[: min(k, len(columns))]
