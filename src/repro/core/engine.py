"""Batch query engine: the one search pipeline, for one query or many.

Every threshold search runs here — :func:`~repro.core.search.pexeso_search`
is a batch of one, the all-columns discovery mode of
:mod:`repro.lake.discovery`, the Table 5 ML-enrichment pipeline, CLI
batch mode, every shard of a partitioned lake and the serving layer issue
batches. :class:`BatchSearch` shares the pipeline setup across a batch:

* all query columns are pivot-mapped in **one** vectorised pass over the
  stacked ``(ΣQ_i, dim)`` matrix;
* queries sharing a distance threshold τ share **one** blocking pass:
  every blocking predicate (Lemmas 3/5, quick browsing) is geometric per
  query *row*, so one pass over all rows yields, for each row, exactly
  the match/candidate cell pairs its own per-query pass would — while
  decoding the repository grid's leaves once instead of once per query;
* verification decides each query's candidate rows with one chunked
  GEMM (:func:`~repro.core.verifier.verify_row_blocks`);
* batches mixing several τ values are split into per-τ groups that run
  concurrently on a thread pool.

**Exactness guarantee.** ``search_many(queries, tau, joinability).results[i]``
is identical to the exhaustive scan
(:func:`~repro.baselines.exact_naive.naive_search`: same joinable column
IDs, same exact match counts) and independent of batch composition: a
batch of N equals N batches of one — under any metric, thresholds and
:class:`~repro.core.search.AblationFlags` configuration. Only work/time
counters depend on the batch: shared blocking work is counted once.
Enforced by
``tests/core/test_engine.py``, the randomised property suite
``tests/integration/test_batch_exactness.py`` and the differential oracle.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.blocker import block
from repro.core.index import PexesoIndex
from repro.core.search import AblationFlags, JoinableColumn, SearchResult
from repro.core.stats import SearchStats
from repro.core.thresholds import joinability_count
from repro.core.verifier import verify_row_blocks


def validated_vectors(
    vectors, dim: Optional[int], what: str = "query column"
) -> np.ndarray:
    """``vectors`` as a non-empty, finite ``(n, dim)`` float64 array.

    The one malformed-input check in front of the engine, the serving
    layer and the cluster coordinator (``dim=None`` skips the width
    check for callers that cannot know it up front).

    Raises:
        ValueError: naming ``what`` and the defect.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if vectors.shape[0] == 0:
        raise ValueError(f"{what} is empty")
    if dim is not None and vectors.shape[1] != dim:
        raise ValueError(f"{what} dim {vectors.shape[1]} != index dim {dim}")
    if not np.isfinite(vectors).all():
        raise ValueError(f"{what} contains NaN or infinite values")
    return vectors


@dataclass
class BatchResult:
    """Results of one batch search.

    ``results[i]`` is the :class:`~repro.core.search.SearchResult` of the
    i-th query, exactly as a batch of one would have produced it. A query
    alone in its τ group carries the group's full stats (blocker and
    verifier counters, stage timings); a query sharing a blocking pass
    carries its own verification counters plus its share of blocking
    output (matching/candidate pairs, pivot-mapping distances), because
    the shared pass cannot be attributed. ``stats`` on the batch
    aggregates everything, counting shared work (blocking) once.
    """

    results: list[SearchResult]
    stats: SearchStats = field(default_factory=SearchStats)
    wall_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i: int) -> SearchResult:
        return self.results[i]

    def __iter__(self):
        return iter(self.results)

    @property
    def column_ids(self) -> list[list[int]]:
        """Joinable column IDs per query."""
        return [r.column_ids for r in self.results]

    @property
    def n_joinable(self) -> int:
        """Total hits over the whole batch."""
        return sum(len(r) for r in self.results)


class BatchSearch:
    """Vectorised multi-query search over one :class:`PexesoIndex`.

    Args:
        index: a built index (shared, read-only across the batch).
        flags: ablation switches applied to every query in the batch.
        max_workers: thread-pool width for independent work units. A
            value > 1 additionally splits each per-τ group into about
            ``max_workers`` subgroups so even a single-τ batch runs
            concurrently (trading a little shared-blocking reuse for
            parallelism); ``None`` keeps whole τ groups as the units and
            pools only across them; ``1`` forces serial execution.
    """

    def __init__(
        self,
        index: PexesoIndex,
        flags: Optional[AblationFlags] = None,
        max_workers: Optional[int] = None,
    ):
        if index.pivot_space is None or index.grid is None:
            raise RuntimeError("index is not built; call fit() first")
        self.index = index
        self.flags = flags if flags is not None else AblationFlags()
        self.max_workers = max_workers

    # -- public API ---------------------------------------------------------------

    def search_many(
        self,
        queries: Sequence[np.ndarray],
        tau: Union[float, Sequence[float]],
        joinability: Union[float, int, Sequence[Union[float, int]]],
        allowed_columns: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> BatchResult:
        """Search every query column and return per-query results.

        Args:
            queries: query columns, each ``(|Q_i|, dim)`` (same embedder
                as the repository).
            tau: one distance threshold for the whole batch, or one per
                query (queries sharing a τ share one blocking pass).
            joinability: T as a fraction of |Q_i| in ``(0, 1]`` or an
                absolute count; scalar or one per query.
            allowed_columns: optional per-query ANN candidate
                restriction (see :mod:`repro.core.ann`): one array of
                allowed column IDs per query, or ``None`` entries /
                ``None`` overall for unrestricted exact search.

        Returns:
            A :class:`BatchResult`; ``results`` aligns with ``queries``.
        """
        started = time.perf_counter()
        n = len(queries)
        batch_stats = SearchStats()
        if n == 0:
            return BatchResult(results=[], stats=batch_stats, wall_seconds=0.0)

        arrays = [
            validated_vectors(q, self.index.dim, f"query column {position}")
            for position, q in enumerate(queries)
        ]
        taus = self._per_query(tau, n, "tau")
        joins = self._per_query(joinability, n, "joinability")
        if allowed_columns is not None and len(allowed_columns) != n:
            raise ValueError("allowed_columns must have one entry per query")
        for t in taus:
            if t < 0:
                raise ValueError("tau must be non-negative")

        # Group queries by τ: one shared blocking pass per group. With an
        # explicit max_workers > 1 each group is further split into about
        # that many subgroups so single-τ batches parallelise too.
        groups: dict[float, list[int]] = {}
        for i, t in enumerate(taus):
            groups.setdefault(float(t), []).append(i)
        group_items: list[tuple[float, list[int]]] = []
        if self.max_workers is not None and self.max_workers > 1:
            per_group = max(1, self.max_workers // len(groups))
            for t, indices in groups.items():
                n_units = min(len(indices), per_group)
                unit_size = -(-len(indices) // n_units)  # ceil division
                for at in range(0, len(indices), unit_size):
                    group_items.append((t, indices[at : at + unit_size]))
        else:
            group_items = list(groups.items())

        results: list[Optional[SearchResult]] = [None] * n
        if len(group_items) == 1 or self.max_workers == 1:
            outputs = [
                self._search_group(arrays, indices, t, joins, allowed_columns)
                for t, indices in group_items
            ]
        else:
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                outputs = list(
                    pool.map(
                        lambda item: self._search_group(
                            arrays, item[1], item[0], joins, allowed_columns
                        ),
                        group_items,
                    )
                )
        for (_, indices), (group_results, group_stats) in zip(group_items, outputs):
            batch_stats.merge(group_stats)
            for position, result in zip(indices, group_results):
                results[position] = result
        return BatchResult(
            results=list(results),  # type: ignore[arg-type]
            stats=batch_stats,
            wall_seconds=time.perf_counter() - started,
        )

    __call__ = search_many

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _per_query(value, n: int, name: str) -> list:
        if np.isscalar(value):
            return [value] * n
        values = list(value)
        if len(values) != n:
            raise ValueError(f"{name} must be a scalar or have one entry per query")
        return values

    def _search_group(
        self,
        arrays: list[np.ndarray],
        indices: list[int],
        tau: float,
        joins: list,
        allowed_columns: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> tuple[list[SearchResult], SearchStats]:
        """One shared pivot-map + blocking pass + batched verify."""
        index = self.index
        flags = self.flags
        group_stats = SearchStats()
        columns = [arrays[i] for i in indices]
        sizes = [c.shape[0] for c in columns]
        t_counts = [joinability_count(joins[i], size) for i, size in zip(indices, sizes)]
        query_of_row = np.repeat(np.arange(len(columns), dtype=np.intp), sizes)

        stage_started = time.perf_counter()
        stacked = columns[0] if len(columns) == 1 else np.concatenate(columns, axis=0)
        mapped = index.pivot_space.map_vectors(stacked)
        group_stats.pivot_mapping_distances += mapped.size
        group_stats.stage_seconds.add(
            "pivot_map", time.perf_counter() - stage_started
        )
        stage_started = time.perf_counter()
        block_result = block(
            None,
            index.grid,
            mapped,
            tau,
            stats=group_stats,
            use_lemma34=flags.lemma34,
            use_lemma56=flags.lemma56,
            use_quick_browsing=flags.quick_browsing,
        )
        group_stats.stage_seconds.add(
            "blocking", time.perf_counter() - stage_started
        )

        # A query alone in its group owns the group's stats outright; a
        # shared blocking pass can only be split by its output pairs.
        if len(columns) == 1:
            per_stats = [group_stats]
        else:
            per_stats = [SearchStats() for _ in columns]
            n_match, n_cand = (
                np.bincount(query_of_row[csr.rows], csr.lengths, len(columns))
                for csr in (block_result.match, block_result.candidate)
            )
            for local, size in enumerate(sizes):
                per_stats[local].matching_pairs += int(n_match[local])
                per_stats[local].candidate_pairs += int(n_cand[local])
                per_stats[local].pivot_mapping_distances += size * index.n_pivots

        verdicts = verify_row_blocks(
            block_result,
            index.inverted,
            stacked,
            mapped,
            index.vectors,
            None,
            index.metric,
            tau,
            t_counts,
            sizes,
            query_of_row,
            stats=group_stats,
            per_query_stats=per_stats if len(columns) > 1 else None,
            allowed_columns=(
                [allowed_columns[i] for i in indices]
                if allowed_columns is not None
                else None
            ),
        )

        results = []
        for local, verdict in enumerate(verdicts):
            n_q = sizes[local]
            hits = [
                JoinableColumn(
                    column_id=col,
                    match_count=verdict.match_counts.get(col, 0),
                    joinability=verdict.match_counts.get(col, 0) / n_q,
                    exact_count=True,
                )
                for col in sorted(verdict.joinable)
                if col in index.column_rows  # deleted columns never surface
            ]
            results.append(
                SearchResult(
                    joinable=hits,
                    stats=per_stats[local],
                    tau=tau,
                    t_count=t_counts[local],
                    query_size=n_q,
                )
            )
        return results, group_stats


def merge_shard_batches(
    shard_batches: Sequence[BatchResult],
    column_maps: Sequence[Sequence[int]],
) -> BatchResult:
    """Merge per-shard :class:`BatchResult`\\ s into one global-ID batch.

    Every shard must have answered the *same* query list (``results``
    align position by position). ``column_maps[s]`` translates shard
    ``s``'s local column IDs to global ones; hits are remapped, pooled
    per query and re-sorted by global column ID — exactly the order a
    single index over the union of the shards would produce. Per-query
    and batch-level stats are accumulated across shards.

    Raises:
        ValueError: when the shard batches disagree on the query list
            length or no shards are given.
    """
    if not shard_batches:
        raise ValueError("need at least one shard batch to merge")
    if len(shard_batches) != len(column_maps):
        raise ValueError("need exactly one column map per shard batch")
    n = len(shard_batches[0].results)
    for batch in shard_batches:
        if len(batch.results) != n:
            raise ValueError("shard batches answered different query lists")

    merged_stats = SearchStats()
    wall = 0.0
    for batch in shard_batches:
        merged_stats.merge(batch.stats)
        wall = max(wall, batch.wall_seconds)

    results: list[SearchResult] = []
    for i in range(n):
        hits: list[JoinableColumn] = []
        stats = SearchStats()
        for batch, mapping in zip(shard_batches, column_maps):
            shard_result = batch.results[i]
            stats.merge(shard_result.stats)
            for hit in shard_result.joinable:
                hits.append(
                    JoinableColumn(
                        column_id=int(mapping[hit.column_id]),
                        match_count=hit.match_count,
                        joinability=hit.joinability,
                        exact_count=hit.exact_count,
                    )
                )
        hits.sort()
        first = shard_batches[0].results[i]
        results.append(
            SearchResult(
                joinable=hits,
                stats=stats,
                tau=first.tau,
                t_count=first.t_count,
                query_size=first.query_size,
            )
        )
    return BatchResult(results=results, stats=merged_stats, wall_seconds=wall)


def batch_search(
    index: PexesoIndex,
    queries: Sequence[np.ndarray],
    tau: Union[float, Sequence[float]],
    joinability: Union[float, int, Sequence[Union[float, int]]],
    flags: Optional[AblationFlags] = None,
    max_workers: Optional[int] = None,
) -> BatchResult:
    """One-shot convenience wrapper around :class:`BatchSearch`."""
    engine = BatchSearch(index, flags=flags, max_workers=max_workers)
    return engine.search_many(queries, tau, joinability)
