"""End-to-end joinable table discovery facade (the whole of Fig. 1).

:class:`JoinableTableSearch` ties together the repository, an embedder
and a PEXESO searcher, exposing the online operation the paper's user
sees: give a query table + query column, get back joinable tables *and*
the record-level mapping between the query column and each hit ("since
the user might not be familiar with our join predicates", §II-A).

The searcher scales with the lake: the default is one in-memory index,
while ``n_partitions`` / ``spill_dir`` / ``max_workers`` route every
query through the sharded :class:`~repro.core.out_of_core.LakeSearcher`
(parallel shard fan-out, bounded resident memory) with identical
results. :meth:`JoinableTableSearch.topk` serves the ranked discovery
mode on either backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.core.index import PexesoIndex
from repro.core.metric import EuclideanMetric, Metric
from repro.core.out_of_core import LakeSearcher
from repro.core.search import AblationFlags, SearchResult
from repro.core.thresholds import distance_threshold
from repro.embedding.base import Embedder
from repro.lake.key_detection import detect_key_column
from repro.lake.preprocessing import to_full_form
from repro.lake.repository import ColumnRef, TableRepository
from repro.lake.table import Table


@lru_cache(maxsize=None)
def _key_multipliers(dim: int) -> np.ndarray:
    """Fixed odd 64-bit multipliers, one per coordinate."""
    rng = np.random.default_rng(0x5EED)
    return rng.integers(0, 2**64, size=dim, dtype=np.uint64, endpoint=False) | np.uint64(1)


def _row_keys(vectors: np.ndarray) -> np.ndarray:
    """One 64-bit key per row, equal for bit-identical rows: the rows'
    float64 bits times :func:`_key_multipliers`, summed modulo 2**64."""
    bits = np.ascontiguousarray(vectors, dtype=np.float64).view(np.uint64)
    return bits @ _key_multipliers(bits.shape[1])


def _table_order_keys(vectors: np.ndarray) -> Optional[np.ndarray]:
    """:func:`_row_keys` of a column in table-row order, or ``None`` when
    two different rows share a key, so a key does not name one vector."""
    bits = np.ascontiguousarray(vectors, dtype=np.float64).view(np.uint64)
    keys = _row_keys(vectors)
    order = np.argsort(keys, kind="stable")
    same = keys[order[1:]] == keys[order[:-1]]
    if same.any():
        if (bits[order[1:][same]] != bits[order[:-1][same]]).any():
            return None
    return keys


@dataclass
class TableHit:
    """One joinable table with its record mapping."""

    ref: ColumnRef
    joinability: float
    match_count: int
    #: pairs (query row index, target row index) with distance <= tau;
    #: populated when the search is asked for mappings
    record_mapping: list[tuple[int, int]]


class JoinableTableSearch:
    """Offline indexing + online search over a table repository.

    Args:
        embedder: string -> unit-vector plug-in (Fig. 1 "Embed").
        metric: metric-space distance (Euclidean by default).
        n_pivots / levels / pivot_method / seed: PEXESO index knobs.
        preprocess: expand abbreviations / normalise dates before
            embedding (paper §II-A "Convert").
        n_partitions: shard the lake into this many per-partition
            indexes (paper §IV); ``1`` keeps one in-memory index.
        partitioner: ``jsd`` | ``average-kmeans`` | ``random``.
        spill_dir: spill partition indexes here (out-of-core mode).
        max_workers: worker-pool width (shard fan-out when partitioned,
            per-τ engine groups otherwise).
    """

    def __init__(
        self,
        embedder: Embedder,
        metric: Optional[Metric] = None,
        n_pivots: int = 5,
        levels: int = 4,
        pivot_method: str = "pca",
        seed: int = 0,
        preprocess: bool = True,
        n_partitions: int = 1,
        partitioner: str = "jsd",
        spill_dir: Optional[str | Path] = None,
        max_workers: Optional[int] = None,
    ):
        self.embedder = embedder
        self.metric = metric if metric is not None else EuclideanMetric()
        self.n_pivots = n_pivots
        self.levels = levels
        self.pivot_method = pivot_method
        self.seed = seed
        self.n_partitions = n_partitions
        self.partitioner = partitioner
        self.spill_dir = spill_dir
        self.max_workers = max_workers
        self.repository = TableRepository(preprocess=preprocess)
        self.refs: list[ColumnRef] = []
        self.string_columns: list[list[str]] = []
        #: per column, :func:`_row_keys` of its vectors in table-row
        #: order: the index keeps a column's vectors in leaf order, and
        #: record mappings put them back in table order by key
        self.row_keys: list[Optional[np.ndarray]] = []
        self.searcher: Optional[LakeSearcher] = None
        #: registered table name -> live column IDs (maintained by
        #: index_tables / add_table / remove_table)
        self._table_columns: dict[str, list[int]] = {}

    @classmethod
    def from_cluster(
        cls,
        embedder: Embedder,
        url: str,
        metric: Optional[Metric] = None,
        preprocess: bool = True,
        timeout: float = 60.0,
    ) -> "JoinableTableSearch":
        """Discovery over a running cluster coordinator.

        The lake lives on the cluster's workers; this facade embeds
        queries locally (``embedder`` and ``preprocess`` must match how
        the lake was indexed — the CLI's ``catalog.json`` records both)
        and answers through the coordinator's scatter-gather, with
        results identical to a local searcher over the same lake. Hit
        provenance (``refs``) comes from the coordinator's column
        catalog when it has one.

        Record mappings need raw column vectors, which stay on the
        workers — call :meth:`search` / :meth:`topk` with
        ``with_mappings=False``. Live ``add_table`` / ``remove_table``
        route through the coordinator (replica write-through).
        """
        from repro.cluster.remote import RemoteLakeSearcher

        search = cls(embedder, metric=metric, preprocess=preprocess)
        remote = RemoteLakeSearcher(url, timeout=timeout)
        search.searcher = remote  # the LakeSearcher surface over HTTP
        state = remote.client.cluster()
        catalog_columns = state.get("columns")
        if catalog_columns:
            search.refs = [
                ColumnRef(entry["table"], entry["column"])
                for entry in catalog_columns
            ]
        else:
            search.refs = []
        # Global IDs are never reused, so live IDs can exceed the live
        # *count* (and the catalog's length) once anything was deleted
        # or live-added: size the provenance table by the cluster's ID
        # horizon, not by n_columns.
        while len(search.refs) < int(state["next_column_id"]):
            search.refs.append(ColumnRef(f"column_{len(search.refs)}", "key"))
        search.string_columns = [[] for _ in search.refs]
        for column_id, ref in enumerate(search.refs):
            search._table_columns.setdefault(ref.table_name, []).append(column_id)
        return search

    @property
    def index(self) -> Optional[PexesoIndex]:
        """The single-index backend (``None`` before indexing or when
        partitioned)."""
        return self.searcher.index if self.searcher is not None else None

    # -- offline -----------------------------------------------------------------

    def index_tables(self, tables: Sequence[Table]) -> "JoinableTableSearch":
        """Load tables, extract key columns, embed and index them."""
        self.repository.add_tables(tables)
        self.refs, self.string_columns = self.repository.extract_key_columns()
        if not self.refs:
            raise ValueError("no indexable key columns found in the given tables")
        vector_columns = [
            self.embedder.embed_column(values) for values in self.string_columns
        ]
        self.row_keys = [_table_order_keys(vectors) for vectors in vector_columns]
        self.searcher = LakeSearcher.build(
            vector_columns,
            metric=self.metric,
            n_pivots=self.n_pivots,
            levels=self.levels,
            pivot_method=self.pivot_method,
            seed=self.seed,
            n_partitions=self.n_partitions,
            partitioner=self.partitioner,
            spill_dir=self.spill_dir,
            max_workers=self.max_workers,
        )
        self._table_columns = {}
        for column_id, ref in enumerate(self.refs):
            self._table_columns.setdefault(ref.table_name, []).append(column_id)
        return self

    # -- incremental maintenance (§III-E at the discovery level) -------------------

    def add_table(self, table: Table) -> int:
        """Live-add one table to an already-built search; returns its column ID.

        The table's key column is detected, preprocessed and embedded
        exactly as at :meth:`index_tables` time, then appended through
        :meth:`~repro.core.out_of_core.LakeSearcher.add_column` (the
        §III-E incremental insert on either backend). The table<->column
        mapping stays consistent: the new ID resolves through ``refs``
        and :meth:`remove_table` can undo the add.

        Raises:
            RuntimeError: before :meth:`index_tables`.
            ValueError: when the table has no usable key column.
        """
        if self.searcher is None:
            raise RuntimeError("no tables indexed yet; call index_tables() first")
        registered = self.repository.add_table(table)
        try:
            stored = self.repository.tables[registered]
            key = detect_key_column(stored)
            if key is None:
                raise ValueError(
                    f"table {table.name!r} has no usable key column"
                )
            values = stored.column(key).values
            if self.repository.preprocess:
                values = [to_full_form(v) for v in values]
            vectors = self.embedder.embed_column(values)
            column_id = self.searcher.add_column(vectors)
        except BaseException:
            # never leave a registered-but-unindexed zombie behind: a
            # retry would collide into a suffixed name and remove_table
            # would target the wrong entry
            self.repository.remove_table(registered)
            raise
        # Column IDs are monotonic and never reused, so refs stays a
        # positional (ID -> provenance) table; pad over any gap.
        while len(self.refs) < column_id:
            self.refs.append(ColumnRef("?", "?"))
            self.string_columns.append([])
            self.row_keys.append(None)
        self.refs.append(ColumnRef(registered, key))
        self.string_columns.append(values)
        self.row_keys.append(_table_order_keys(vectors))
        self._table_columns.setdefault(registered, []).append(column_id)
        return column_id

    def remove_table(self, name: str) -> list[int]:
        """Live-remove one table (by registered name); returns its column IDs.

        Every column the table contributed is deleted from the backend
        index (postings removed, ID tombstoned — deleted columns never
        surface in later results), and the table leaves the repository.

        Raises:
            RuntimeError: before :meth:`index_tables`.
            KeyError: when no table is registered under ``name``.
        """
        if self.searcher is None:
            raise RuntimeError("no tables indexed yet; call index_tables() first")
        if name not in self._table_columns and name not in self.repository.tables:
            raise KeyError(f"unknown table {name!r}")
        column_ids = self._table_columns.pop(name, [])
        for column_id in column_ids:
            self.searcher.delete_column(column_id)
        if name in self.repository.tables:
            self.repository.remove_table(name)
        return column_ids

    # -- online ------------------------------------------------------------------

    def prepare_query(
        self, query_table: Table, query_column: Optional[str] = None
    ) -> tuple[list[str], np.ndarray]:
        """Resolve, preprocess and embed the query column."""
        column = query_column or detect_key_column(query_table)
        if column is None:
            raise ValueError(
                f"query table {query_table.name!r} has no usable query column"
            )
        values = query_table.column(column).values
        if self.repository.preprocess:
            values = [to_full_form(v) for v in values]
        return values, self.embedder.embed_column(values)

    def search(
        self,
        query_table: Table,
        query_column: Optional[str] = None,
        tau_fraction: float = 0.06,
        joinability: float | int = 0.6,
        flags: Optional[AblationFlags] = None,
        with_mappings: bool = True,
    ) -> list[TableHit]:
        """Find joinable tables for ``query_table`` (paper defaults: τ=6%,
        T=60%).

        Returns hits sorted by decreasing joinability, each with the
        record mapping between the query column and the hit column.
        """
        if self.searcher is None:
            raise RuntimeError("no tables indexed yet; call index_tables() first")
        self._check_mappings(with_mappings)
        query_values, query_vectors = self.prepare_query(query_table, query_column)
        tau = distance_threshold(tau_fraction, self.metric, self.embedder.dim)
        result: SearchResult = self.searcher.search(
            query_vectors, tau, joinability, flags=flags
        )
        return self._hits_from_result(result, query_vectors, tau, with_mappings)

    def _check_mappings(self, with_mappings: bool) -> None:
        if with_mappings and not getattr(self.searcher, "supports_mappings", True):
            raise ValueError(
                "record mappings need local column vectors; a cluster-backed "
                "search must be called with with_mappings=False"
            )

    def topk(
        self,
        query_table: Table,
        query_column: Optional[str] = None,
        tau_fraction: float = 0.06,
        k: int = 10,
        with_mappings: bool = False,
    ) -> list[TableHit]:
        """Ranked discovery: the k most joinable tables for the query.

        Runs exact top-k (single index or sharded top-k, merged once —
        identical results) and returns hits in rank order: decreasing
        joinability, ties by column ID.
        """
        if self.searcher is None:
            raise RuntimeError("no tables indexed yet; call index_tables() first")
        self._check_mappings(with_mappings)
        query_values, query_vectors = self.prepare_query(query_table, query_column)
        tau = distance_threshold(tau_fraction, self.metric, self.embedder.dim)
        result = self.searcher.topk(query_vectors, tau, k)
        hits = []
        for column_id, match_count, jn in result.hits:
            mapping: list[tuple[int, int]] = []
            if with_mappings:
                mapping = self._record_mapping(query_vectors, column_id, tau)
            hits.append(
                TableHit(
                    ref=self._ref(column_id),
                    joinability=jn,
                    match_count=match_count,
                    record_mapping=mapping,
                )
            )
        return hits

    def _ref(self, column_id: int) -> ColumnRef:
        """Provenance for a hit column, tolerant of unknown IDs.

        A cluster-backed search can return columns live-added by *other*
        clients after this facade was built; those get a synthesized ref
        instead of an IndexError.
        """
        if 0 <= column_id < len(self.refs):
            return self.refs[column_id]
        return ColumnRef(f"column_{column_id}", "?")

    def search_all_columns(
        self,
        query_table: Table,
        tau_fraction: float = 0.06,
        joinability: float | int = 0.6,
        flags: Optional[AblationFlags] = None,
        with_mappings: bool = False,
        max_workers: Optional[int] = None,
    ) -> dict[str, list[TableHit]]:
        """Option 3 of §II-A: treat *every* candidate column as the query.

        The query table's join-key candidates (most distinct string/date
        columns first) are embedded together and answered in **one**
        :class:`~repro.core.engine.BatchSearch` pass — one shared pivot
        mapping, grid build and blocking descent instead of one full
        pipeline per column. Results are identical to calling
        :meth:`search` once per candidate (the engine's exactness
        guarantee); record mappings for independent hits are computed on
        a thread pool.

        Args:
            max_workers: thread-pool width for the per-column record
                mappings (and per-τ engine groups); ``None`` picks a
                default, ``1`` disables threading.

        Returns:
            ``{query column name: hits}`` for every candidate column.
        """
        from repro.lake.key_detection import candidate_join_columns

        if self.searcher is None:
            raise RuntimeError("no tables indexed yet; call index_tables() first")
        self._check_mappings(with_mappings)
        candidates = candidate_join_columns(query_table)
        if query_table.key_column and query_table.key_column not in candidates:
            candidates.insert(0, query_table.key_column)
        if not candidates:
            raise ValueError(
                f"query table {query_table.name!r} has no candidate columns"
            )
        tau = distance_threshold(tau_fraction, self.metric, self.embedder.dim)
        vectors = [
            self.prepare_query(query_table, column)[1] for column in candidates
        ]
        batch = self.searcher.search_many(
            vectors, tau, joinability, flags=flags, max_workers=max_workers
        )
        # Without mappings, _hits_from_result is a trivial loop — only the
        # pairwise record mappings are worth farming out to a pool.
        if not with_mappings or max_workers == 1 or len(candidates) <= 1:
            return {
                column: self._hits_from_result(result, qv, tau, with_mappings)
                for column, qv, result in zip(candidates, vectors, batch.results)
            }
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            hit_lists = list(
                pool.map(
                    lambda args: self._hits_from_result(args[1], args[0], tau, with_mappings),
                    zip(vectors, batch.results),
                )
            )
        return dict(zip(candidates, hit_lists))

    def _hits_from_result(
        self,
        result: SearchResult,
        query_vectors: np.ndarray,
        tau: float,
        with_mappings: bool,
    ) -> list[TableHit]:
        """Convert one query's :class:`SearchResult` into sorted table hits."""
        hits = []
        for hit in result.joinable:
            ref = self._ref(hit.column_id)
            mapping: list[tuple[int, int]] = []
            if with_mappings:
                mapping = self._record_mapping(query_vectors, hit.column_id, tau)
            hits.append(
                TableHit(
                    ref=ref,
                    joinability=hit.joinability,
                    match_count=hit.match_count,
                    record_mapping=mapping,
                )
            )
        hits.sort(key=lambda h: (-h.joinability, h.ref.table_name))
        return hits

    def _record_mapping(
        self, query_vectors: np.ndarray, column_id: int, tau: float
    ) -> list[tuple[int, int]]:
        """Exact (query row, target row) pairs within τ for one hit column.

        The hit column's vectors come from the searcher backend (a
        spilled partitioned lake serves them through its shard LRU) in
        leaf order; their keys put them back in table-row order, so the
        facade never keeps a second copy of the embedded lake. A column
        whose keys do not name its rows one to one is re-embedded.
        """
        assert self.searcher is not None
        stored = self.searcher.column_vectors(column_id)
        keys = self.row_keys[column_id]
        target = None
        if keys is not None and keys.size == stored.shape[0]:
            stored_keys = _row_keys(stored)
            by_key = np.argsort(stored_keys)
            at = by_key[np.searchsorted(stored_keys, keys, sorter=by_key) % keys.size]
            if np.array_equal(stored_keys[at], keys):
                target = stored[at]
        if target is None:
            target = self.embedder.embed_column(self.string_columns[column_id])
        pairwise = self.metric.pairwise(query_vectors, target)
        return list(map(tuple, np.argwhere(pairwise <= tau).tolist()))
