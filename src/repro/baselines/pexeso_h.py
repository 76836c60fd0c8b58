"""PEXESO-H: grid blocking + naive per-cell verification (paper §VI-A).

PEXESO-H shares blocking with PEXESO (Algorithm 1's Lemmas 3/5 and quick
browsing, run as one flat pass over every (query row, occupied leaf)
pair, :mod:`repro.core.blocker`) but replaces the inverted-index
verification: for each candidate pair it
computes the exact distance between the query vector and *every* vector in
the candidate cell — no Lemma 1/2 point filtering, no DaaT traversal, no
Lemma 7 mismatch bound. Only the early-accept rule (stop once a column
reaches T) is kept, since the paper equips every method with it.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.blocker import block
from repro.core.index import PexesoIndex
from repro.core.search import JoinableColumn, SearchResult
from repro.core.stats import SearchStats
from repro.core.thresholds import joinability_count


def pexeso_h_search(
    index: PexesoIndex,
    query_vectors: np.ndarray,
    tau: float,
    joinability: float | int,
    early_accept: bool = True,
    stats: Optional[SearchStats] = None,
) -> SearchResult:
    """Search with grid blocking but naive verification.

    Args and result match :func:`repro.core.search.pexeso_search`; the
    same blocking guarantees the same exact answer, only with more
    distance computations during verification (Fig. 6a).
    """
    if index.pivot_space is None or index.grid is None:
        raise RuntimeError("index is not built; call fit() first")
    stats = stats if stats is not None else SearchStats()
    query_vectors = np.atleast_2d(np.asarray(query_vectors, dtype=np.float64))
    n_q = query_vectors.shape[0]
    t_count = joinability_count(joinability, n_q)

    query_mapped = index.pivot_space.map_vectors(query_vectors)
    stats.pivot_mapping_distances += query_mapped.size
    pairs = block(None, index.grid, query_mapped, tau, stats=stats)

    started = time.perf_counter()
    match_counts: dict[int, int] = {}
    joinable: set[int] = set()
    target_vectors = index.vectors
    metric = index.metric

    query_rows = np.union1d(pairs.match.rows, pairs.candidate.rows)
    for q in query_rows.tolist():
        q_vec = query_vectors[q]
        matched_cols: set[int] = set()

        match_cells = pairs.cells_of(q, match=True)
        if match_cells.size:
            for col in index.inverted.columns_in_cells(match_cells):
                if col in matched_cols:
                    continue
                matched_cols.add(col)
                if col in joinable and early_accept:
                    continue
                match_counts[col] = match_counts.get(col, 0) + 1
                if match_counts[col] >= t_count:
                    joinable.add(col)

        cand_cells = pairs.cells_of(q, match=False)
        if not cand_cells.size:
            continue
        for col, rows in index.inverted.columns_in_cells(cand_cells).items():
            if col in matched_cols:
                continue
            if col in joinable and early_accept:
                continue
            rows_arr = np.asarray(rows, dtype=np.intp)
            distances = metric.distances_to(q_vec, target_vectors[rows_arr])
            stats.distance_computations += int(rows_arr.size)
            if (distances <= tau).any():
                matched_cols.add(col)
                match_counts[col] = match_counts.get(col, 0) + 1
                if match_counts[col] >= t_count:
                    joinable.add(col)

    stats.verification_seconds += time.perf_counter() - started
    hits = [
        JoinableColumn(
            column_id=col,
            match_count=match_counts.get(col, 0),
            joinability=match_counts.get(col, 0) / n_q,
            exact_count=not early_accept,
        )
        for col in sorted(joinable)
        if col in index.column_rows
    ]
    return SearchResult(
        joinable=hits, stats=stats, tau=float(tau), t_count=t_count, query_size=n_q
    )
