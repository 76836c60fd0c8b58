"""Verification: one GEMM over the blocker's candidate rows (paper §III-C).

Blocking (Algorithm 1) leaves, per query row, *match* leaf cells proven
within τ (Lemmas 5/6) and *candidate* leaf cells. :func:`verify_row_blocks`
decides each query column of a batch in four steps:

1. find the lake rows of the query's candidate cells
   (:meth:`InvertedIndex.candidate_rows`). The vector store is in leaf
   order, so they are runs of touching leaves. Runs that average at
   least a quarter of a chunk are read in place; shorter ones have
   their live rows gathered, as have rows added since the last
   compaction (the tail);
2. decide every (query row, candidate row) pair in chunks of about
   :data:`CHUNK_ELEMENTS`: a run's chunk is a view of the store, a
   gathered chunk a copy. Euclidean pairs go through the Gram form
   ``|q|² + |x|² - 2 Q Xᵀ`` (one GEMM, row norms per chunk), other
   metrics through ``Metric.pairwise``;
3. re-decide Euclidean pairs whose d² lies in the rounding band around
   τ² with ``Metric.distances_to`` (``SearchStats.exact_rechecks``);
4. OR each chunk's hits into one (query row, column) mask through the
   rows' columns (run-length coded per segment of one column's rows),
   add the pairs blocking proved (credited without a distance), and
   count exactly per column, then ``>= T``. A deleted column's rows
   inside a run are decided but belong to no column.

Pairs outside a row's own candidate cells are decided too: blocking is
sound, so they are misses, and deciding them is cheaper than carving the
union per row. Algorithm 2's Lemma 1/2 filters and early termination
(Lemma 7, early accept) measured ~1x and are gone; every count is exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.core.blocker import BlockResult, PairCSR
from repro.core.inverted_index import CandidateRows, InvertedIndex
from repro.core.metric import EuclideanMetric, Metric
from repro.core.stats import SearchStats

#: target size, in float64 elements, of one chunk's lake rows (when copied)
#: plus its (rows x candidate rows) temporaries
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


def _chunks(store: np.ndarray, cand: CandidateRows, chunk: int) -> Iterator[np.ndarray]:
    """``cand``'s rows in their virtual order, at most ``chunk`` at a time:
    views of the store first, then gathered copies."""
    for a, b in cand.views.tolist():
        for at in range(a, b, chunk):
            yield store[at : min(at + chunk, b)]
    for at in range(0, cand.gathered.size, chunk):
        yield store[cand.gathered[at : at + chunk]]


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
        cand = inverted_index.candidate_rows(
            np.unique(_rows_of(block_result.candidate, lo, hi)[1]), max(1, chunk // 4)
        )
        n_rows = cand.n_rows
        # each candidate row's column, as an index into `columns`
        columns, local = np.unique(cand.segment_columns, return_inverse=True)
        seg_sizes = np.diff(np.append(cand.segment_starts, n_rows))
        row_column = np.repeat(local.astype(np.int32), seg_sizes)
        hit = np.zeros((n_q, columns.size), dtype=bool)
        rechecks, at = 0, 0
        for x in _chunks(target_vectors, cand, chunk):
            pairs, n_band = _chunk_hits(queries, x, metric, tau)
            rechecks += n_band
            # flatnonzero: a 2-d nonzero costs ~10x more on a sparse mask
            q_rows, x_rows = np.divmod(np.flatnonzero(pairs), x.shape[0])
            hit[q_rows, row_column[at + x_rows]] = True
            at += x.shape[0]
        if columns.size and columns[0] < 0:
            # a deleted column's rows inside a run: decided, owned by none
            columns, hit = columns[1:], hit[:, 1:]
        counters[q_idx] = (n_q * n_rows, rechecks, columns.size)
        match_rows, match_cells = _rows_of(block_result.match, lo, hi)
        if match_cells.size:
            # pairs blocking proved: credited without a distance
            entry, match_cols = inverted_index._cell_posts(match_cells)
            merged = np.union1d(columns, match_cols)
            widened = np.zeros((n_q, merged.size), dtype=bool)
            widened[:, np.searchsorted(merged, columns)] = hit
            widened[match_rows[entry] - lo, np.searchsorted(merged, match_cols)] = True
            columns, hit = merged, widened

        counts = np.count_nonzero(hit, axis=0)
        keep = counts > 0
        columns = inverted_index.ids(columns)
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
