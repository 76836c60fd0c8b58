"""Verification: one GEMM over the blocker's candidate rows (paper §III-C).

Blocking (Algorithm 1) leaves, per query row, *match* leaf cells proven
within τ (Lemmas 5/6) and *candidate* leaf cells. :func:`verify_row_blocks`
decides each query column of a batch in four steps:

1. gather the union of lake rows in the query's candidate cells —
   ``columns_in_cells_arrays`` concatenates the distinct cells' slices of
   the leaf → row CSR and sorts them, which groups them by column
   (deleted columns have no rows there, so they never appear);
2. decide every (query row, union row) pair in chunks of the union:
   Euclidean by the Gram form ``|q|² + |x|² - 2 Q Xᵀ`` (one GEMM, row
   norms per gathered chunk), other metrics by ``Metric.pairwise``;
3. re-decide Euclidean pairs whose d² lies in the rounding band around
   τ² with ``Metric.distances_to`` (``SearchStats.exact_rechecks``);
4. turn hits, plus the pairs blocking proved (credited without a
   distance), into exact per-column counts, then ``>= T``.

Pairs outside a row's own candidate cells are decided too: blocking is
sound, so they are misses, and deciding them is cheaper than carving the
union per row. Algorithm 2's Lemma 1/2 filters and early termination
(Lemma 7, early accept) measured ~1x and are gone; every count is exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.blocker import BlockResult, PairCSR
from repro.core.inverted_index import InvertedIndex
from repro.core.metric import EuclideanMetric, Metric
from repro.core.stats import SearchStats

#: target size, in float64 elements, of one chunk's gathered lake rows plus
#: its (rows x union) temporaries
CHUNK_ELEMENTS = 1 << 18

_EPS = float(np.finfo(np.float64).eps)


@dataclass
class VerifyResult:
    """Exact per-column match counts and the joinable columns of one query.

    ``match_counts[c]`` is the number of query vectors with at least one
    vector of column ``c`` within τ (columns with no match are absent).
    """

    match_counts: dict[int, int] = field(default_factory=dict)
    joinable: set[int] = field(default_factory=set)


def chunk_rows(n_q: int, dim: int, euclidean: bool) -> int:
    """Union rows one chunk decides: about :data:`CHUNK_ELEMENTS` float64s
    of temporaries, never fewer than one row.

    A chunk gathers ``(rows x dim)`` lake vectors; the Gram form's
    temporaries are ``(n_q x rows)``, ``Metric.pairwise``'s
    ``(n_q x rows x dim)``.
    """
    return max(1, CHUNK_ELEMENTS // (n_q * (1 if euclidean else dim) + dim))


def _rows_of(csr: PairCSR, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """``(row, cell)`` pairs of the global rows ``lo <= row < hi``."""
    a, b = np.searchsorted(csr.rows, [lo, hi])
    lengths = np.diff(csr.starts[a : b + 1])
    cells = csr.cells[csr.starts[a] : csr.starts[b]]
    return np.repeat(csr.rows[a:b], lengths), cells


def _chunk_hits(
    queries: np.ndarray, x: np.ndarray, metric: Metric, tau: float
) -> tuple[np.ndarray, int]:
    """``(|Q|, len(x))`` mask of the pairs within ``tau``, and how many
    pairs fell in the rounding band and went through ``distances_to``."""
    if not isinstance(metric, EuclideanMetric):
        return metric.pairwise(queries, x) <= tau, 0
    tau2 = tau * tau
    qq = np.einsum("ij,ij->i", queries, queries)
    xx = np.einsum("ij,ij->i", x, x)
    diff = (-2.0 * queries) @ x.T
    diff += xx[None, :]
    diff += (qq - tau2)[:, None]  # d² - τ²
    hits = diff <= 0.0
    # the band: twice the worst-case rounding of this Gram form plus the
    # one distances_to evaluates, at the chunk's largest norms
    band = 8.0 * (queries.shape[1] + 2) * _EPS * (qq.max() + xx.max())
    band += 4.0 * _EPS * tau2
    np.abs(diff, out=diff)
    close = diff <= band
    if not close.any():
        return hits, 0
    rows, cols = np.nonzero(close)
    # rows come out ascending: one distances_to call per query row
    firsts = np.flatnonzero(np.diff(rows, prepend=-1))
    for r, r_cols in zip(rows[firsts].tolist(), np.split(cols, firsts[1:])):
        hits[r, r_cols] = metric.distances_to(queries[r], x[r_cols]) <= tau
    return hits, int(rows.size)


def verify_row_blocks(
    block_result: BlockResult,
    inverted_index: InvertedIndex,
    query_vectors: np.ndarray,
    query_mapped: np.ndarray,
    target_vectors: np.ndarray,
    target_mapped: Optional[np.ndarray],
    metric: Metric,
    tau: float,
    t_counts: Sequence[int],
    query_sizes: Sequence[int],
    query_of_row: np.ndarray,
    stats: Optional[SearchStats] = None,
    per_query_stats: Optional[list[SearchStats]] = None,
    allowed_columns: Optional[Sequence[Optional[np.ndarray]]] = None,
    row_block_size: Optional[int] = None,
) -> list[VerifyResult]:
    """Exact verification of a batch of queries sharing one blocking pass.

    Args:
        block_result: blocking output over *global* (stacked) rows.
        query_vectors: all queries' rows stacked ``(R, dim)``.
        query_mapped / target_mapped: unused; kept in the positional
            signature the perf ledger calls (until its next re-baseline).
        target_vectors: the index's ``(N, dim)`` vector store.
        t_counts: per-query joinability threshold as absolute counts.
        query_sizes: per-query |Q| (rows per query column).
        query_of_row: unused; rows of query ``i`` are the ``i``-th
            contiguous run of ``query_sizes`` rows.
        stats: aggregate counters for the whole batch.
        per_query_stats: optional per-query counter objects (parallel to
            ``query_sizes``); each receives only its query's share.
        allowed_columns: optional per-query ANN candidate restriction —
            one array of allowed column IDs per query (or ``None`` for
            "all columns" on that query); other columns never surface.
        row_block_size: ignored; the perf ledger still passes it (drop
            it with the ledger's next re-baseline).

    Returns:
        One :class:`VerifyResult` per query, in query order.
    """
    stats = stats if stats is not None else SearchStats()
    started = time.perf_counter()
    n_queries = len(query_sizes)
    if per_query_stats is not None and len(per_query_stats) != n_queries:
        raise ValueError("per_query_stats must have one entry per query")
    if allowed_columns is not None and len(allowed_columns) != n_queries:
        raise ValueError("allowed_columns must have one entry per query")
    bounds = np.r_[0, np.cumsum(np.asarray(query_sizes, dtype=np.intp))]

    euclidean = isinstance(metric, EuclideanMetric)
    counters = np.zeros((n_queries, 3), dtype=np.int64)
    results: list[VerifyResult] = []
    for q_idx in range(n_queries):
        lo, hi = int(bounds[q_idx]), int(bounds[q_idx + 1])
        queries, n_q = query_vectors[lo:hi], hi - lo
        chunk = chunk_rows(n_q, queries.shape[1], euclidean)
        cand_cells = np.unique(_rows_of(block_result.candidate, lo, hi)[1])
        cand_cols, union, lens = inverted_index.columns_in_cells_arrays(cand_cells)
        match_rows, match_cells = _rows_of(block_result.match, lo, hi)
        entry, match_cols = inverted_index.cell_postings(match_cells)

        columns = np.union1d(cand_cols, match_cols)
        hit = np.zeros((n_q, columns.size), dtype=bool)
        hit[match_rows[entry] - lo, np.searchsorted(columns, match_cols)] = True
        # union rows are grouped by column: each chunk ORs the column
        # segments it overlaps into `hit`
        ends = np.cumsum(lens)
        seg_starts = ends - lens
        cand_pos = np.searchsorted(columns, cand_cols)
        rechecks = 0
        for at in range(0, union.size, chunk):
            stop = min(at + chunk, union.size)
            x = target_vectors[union[at:stop]]
            pairs, n_band = _chunk_hits(queries, x, metric, tau)
            rechecks += n_band
            first = int(np.searchsorted(ends, at, side="right"))
            last = int(np.searchsorted(seg_starts, stop, side="left"))
            offsets = np.maximum(seg_starts[first:last], at) - at
            hit[:, cand_pos[first:last]] |= np.logical_or.reduceat(
                pairs, offsets, axis=1
            )
        counters[q_idx] = (n_q * union.size, rechecks, cand_cols.size)

        counts = np.count_nonzero(hit, axis=0)
        keep = counts > 0
        if allowed_columns is not None and allowed_columns[q_idx] is not None:
            keep &= np.isin(columns, np.asarray(allowed_columns[q_idx], dtype=np.int64))
        columns, counts = columns[keep].tolist(), counts[keep].tolist()
        t_need = int(t_counts[q_idx])
        results.append(
            VerifyResult(
                match_counts=dict(zip(columns, counts)),
                joinable={c for c, n in zip(columns, counts) if n >= t_need},
            )
        )

    elapsed = time.perf_counter() - started
    stats.verification_seconds += elapsed
    stats.stage_seconds.add("verify", elapsed)
    targets = [stats] if per_query_stats is None else [stats, *per_query_stats]
    for target, row in zip(targets, [counters.sum(axis=0), *counters]):
        target.distance_computations += int(row[0])
        target.exact_rechecks += int(row[1])
        target.columns_verified += int(row[2])
    return results
