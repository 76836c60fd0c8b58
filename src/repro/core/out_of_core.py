"""Out-of-core joinable table search over partitioned data lakes (§IV).

When the repository does not fit in memory, the columns are partitioned
(by default with the JSD clustering of :mod:`repro.core.partition`), one
:class:`~repro.core.index.PexesoIndex` is built per partition, and each
partition is (optionally) spilled to disk in the array-native
:mod:`~repro.core.persistence` lake layout (loading is a handful of
``mmap`` calls). Every write — fit, add, delete — is one
:func:`~repro.core.persistence.commit_lake`, so a spill directory is a
loadable lake from the end of ``fit`` on. A custom metric must be
registered (``register_metric``) to spill.

The sharded layer is the fast path, not a fallback:

* :meth:`PartitionedPexeso.search_many` answers many query columns over
  many shards in one pass — every shard runs the batch engine
  (:class:`~repro.core.engine.BatchSearch`: one shared pivot mapping,
  one blocking pass per τ group); shards run one
  after another by default (:data:`DEFAULT_SHARD_WORKERS` is 1: on the
  ledger's spilled short lake, 2 and 4 shard threads cost 1.20x and
  1.73x the wall time of one) and fan out over a thread pool when
  ``max_workers`` asks for it;
* in spill mode, loads stay one-partition-per-worker: a thread-safe LRU
  (:class:`~repro.core.shards.ShardLRU`) keeps at most ``lru_shards``
  indexes resident, so memory stays bounded while repeated queries skip
  the disk;
* :meth:`PartitionedPexeso.topk` is one pass too: every shard returns
  its own top-k and the lake merges them once, by count then global
  column ID. The output is provably identical to single-index
  :func:`~repro.core.topk.pexeso_topk` over the union of the shards
  (a shard's local tie-break order is the global one restricted to
  it, so its local top-k holds every global top-k member it owns);
* this scatter-gather, placement and ID bookkeeping are written once and
  reach shards through a seam (:class:`~repro.core.shards.LocalShards`,
  or a cluster's :class:`~repro.cluster.groups.RemoteGroups`).

:class:`LakeSearcher` wraps either a single index or a partitioned lake
behind one dispatch surface (``search`` / ``search_many`` / ``topk``),
which is what :mod:`repro.lake.discovery`, :mod:`repro.ml.enrichment`
and the CLI build against.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.ann import candidate_lists
from repro.core.engine import BatchResult, BatchSearch, merge_shard_batches
from repro.core.index import PexesoIndex
from repro.core.metric import Metric
from repro.core.persistence import commit_lake, load_shard
from repro.core.partition import PARTITIONERS, partition_labels
from repro.core.search import AblationFlags, SearchResult, pexeso_search
from repro.core.shards import LocalShards, ShardLRU
from repro.core.stats import SearchStats
from repro.core.topk import TopKResult, pexeso_topk

#: default shard fan-out width when ``max_workers`` is not given. One,
#: because more threads measured slower: on the ledger's spilled short
#: lake (2-core machine, 5 runs) 2 and 4 shard threads cost 1.20x and
#: 1.73x the wall time of one. Callers with I/O-bound shards pass
#: ``max_workers``.
DEFAULT_SHARD_WORKERS = 1

#: spill-mode resident-shard bound when neither ``lru_shards`` nor
#: ``max_workers`` was chosen — what the former 4-wide default fan-out
#: kept resident, so running shards on one thread does not also mean
#: re-opening every shard (~2.7 ms each in the ledger) on every query
DEFAULT_LRU_SHARDS = 4


def _same_rows(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` hold the same rows in any order: a column's
    vectors come back from its shard in leaf order."""
    if a.shape != b.shape:
        return False
    return np.array_equal(a[np.lexsort(a.T[::-1])], b[np.lexsort(b.T[::-1])])


class PartitionedPexeso:
    """A data lake split into per-partition PEXESO indexes.

    Args:
        n_partitions: number of partitions (paper uses 10 for LWDC).
        partitioner: ``jsd`` | ``average-kmeans`` | ``random``.
        spill_dir: when given, the lake is written here (one epoch
            directory per partition, named by ``partitioned.json``) and
            at most ``lru_shards`` partitions are resident at a time (the
            out-of-core mode); when ``None`` all partitions stay in
            memory.
        kmeans_iters: the clustering iteration bound ``t``.
        max_workers: default shard fan-out width for ``search_many`` /
            ``topk`` (overridable per call); ``None`` picks
            :data:`DEFAULT_SHARD_WORKERS` — 1, shards run one after
            another, because more threads measured slower.
        lru_shards: spill-mode resident-shard bound; defaults to the
            resolved worker count (one partition per worker), or to
            :data:`DEFAULT_LRU_SHARDS` when ``max_workers`` was not
            chosen either.
        mmap: open spilled partitions memory-mapped (zero-copy; see
            :func:`~repro.core.persistence.load_index`). The LRU then
            bounds address-space mappings rather than heap, so spill
            mode can afford a far larger ``lru_shards``.
        Remaining arguments configure each partition's
        :class:`~repro.core.index.PexesoIndex`.
    """

    def __init__(
        self,
        metric: Optional[Metric] = None,
        n_pivots: int = 5,
        levels: int = 4,
        pivot_method: str = "pca",
        seed: int = 0,
        n_partitions: int = 4,
        partitioner: str = "jsd",
        spill_dir: Optional[str | Path] = None,
        kmeans_iters: int = 10,
        max_workers: Optional[int] = None,
        lru_shards: Optional[int] = None,
        mmap: bool = True,
    ):
        if partitioner not in PARTITIONERS:
            known = ", ".join(sorted(PARTITIONERS))
            raise KeyError(f"unknown partitioner {partitioner!r}; known: {known}")
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if lru_shards is not None and lru_shards < 1:
            raise ValueError("lru_shards must be at least 1")
        self.metric = metric
        self.n_pivots = n_pivots
        self.levels = levels
        self.pivot_method = pivot_method
        self.seed = seed
        self.n_partitions = n_partitions
        self.partitioner = partitioner
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.kmeans_iters = kmeans_iters
        self.max_workers = max_workers
        self.lru_shards = lru_shards
        self.mmap = bool(mmap)

        #: partition label of every fitted or live-added column (positional)
        self.labels: Optional[np.ndarray] = None
        #: per partition: list of global column ids in local-id order
        #: (deleted columns keep their slot as a tombstone so the
        #: positional local-id -> global-id mapping stays valid)
        self.partition_columns: list[list[int]] = []
        #: vector dimensionality (set by fit and by load_partitioned)
        self.dim: Optional[int] = None
        self._resident: dict[int, PexesoIndex] = {}
        #: per spilled partition, its ``partitioned.json`` entry (the
        #: shard's directory and live epoch)
        self._spilled: dict[int, dict] = {}
        self._lru: Optional[ShardLRU] = None
        self._lru_lock = threading.Lock()
        #: lazy reverse map: global column id -> (partition, local id)
        self._column_shard: Optional[dict[int, tuple[int, int]]] = None
        #: global ids removed by delete_column (ids are never reused)
        self._deleted_ids: set[int] = set()
        self._next_gid: Optional[int] = None
        #: when set, this lake hosts only these partitions (a cluster
        #: worker's shard subset); searches, mutations and column lookups
        #: are restricted to them and the shared on-disk lake is never
        #: written (the cluster coordinator owns that metadata)
        self.hosted_parts: Optional[frozenset[int]] = None

    # -- construction ------------------------------------------------------------

    def fit(
        self,
        columns: Sequence[np.ndarray],
        column_ids: Optional[Sequence[int]] = None,
    ) -> "PartitionedPexeso":
        """Partition ``columns`` and build one index per partition.

        Args:
            columns: the repository's vector columns.
            column_ids: global column ID per column; defaults to the
                positions in ``columns``. Used when repartitioning an
                existing index whose IDs are not contiguous.
        """
        if not columns:
            raise ValueError("cannot build over zero columns")
        if column_ids is None:
            column_ids = list(range(len(columns)))
        elif len(column_ids) != len(columns):
            raise ValueError("need exactly one column id per column")
        rng = np.random.default_rng(self.seed)
        k = min(self.n_partitions, len(columns))
        self.labels = partition_labels(
            columns, k, partitioner=self.partitioner,
            n_iter=self.kmeans_iters, rng=rng,
        )

        groups = [np.flatnonzero(self.labels == part) for part in range(k)]
        self.partition_columns = [
            [int(column_ids[p]) for p in positions] for positions in groups
        ]
        self.dim = int(np.atleast_2d(columns[0]).shape[1])
        self._resident = {}
        self._spilled = {}
        self._lru = None
        self._column_shard = None
        self._deleted_ids = set()
        self._next_gid = None

        # lazy: a spilled fit writes each shard before building the next
        shards = (
            (part, PexesoIndex.build(
                [columns[p] for p in positions],
                metric=self.metric,
                n_pivots=self.n_pivots,
                levels=self.levels,
                pivot_method=self.pivot_method,
                seed=self.seed + part,
            ))
            for part, positions in enumerate(groups)
            if positions.size
        )
        if self.spill_dir is None:
            self._resident = dict(shards)
        else:
            commit_lake(self, self.spill_dir, shards)
        return self

    @classmethod
    def from_index(
        cls,
        index: PexesoIndex,
        n_partitions: int = 4,
        partitioner: str = "jsd",
        spill_dir: Optional[str | Path] = None,
        kmeans_iters: int = 10,
        max_workers: Optional[int] = None,
        lru_shards: Optional[int] = None,
    ) -> "PartitionedPexeso":
        """Repartition a built single index into a sharded lake.

        Column IDs are preserved (including gaps left by deletions), so
        search results remain comparable with the source index.
        """
        if index.pivot_space is None or index.grid is None:
            raise RuntimeError("index is not built; call fit() first")
        column_ids = sorted(index.column_rows)
        if not column_ids:
            raise ValueError("index holds no live columns to repartition")
        columns = [index.vectors[rows] for rows in index.column_rows.values()]
        lake = cls(
            metric=index.metric,
            n_pivots=index.n_pivots,
            levels=index.levels,
            pivot_method=index.pivot_method,
            seed=index.seed,
            n_partitions=n_partitions,
            partitioner=partitioner,
            spill_dir=spill_dir,
            kmeans_iters=kmeans_iters,
            max_workers=max_workers,
            lru_shards=lru_shards,
        )
        return lake.fit(columns, column_ids=column_ids)

    def _load(self, part: int) -> PexesoIndex:
        """Load one spilled partition from disk (no caching)."""
        return load_shard(self.spill_dir, part, self._spilled[part], mmap=self.mmap)

    def _ensure_lru(self, workers: int) -> None:
        """Create (or widen) the shard LRU for a ``workers``-wide fan-out.

        Called on the coordinating thread before shards fan out, so pool
        workers never race on creation. Without an explicit
        ``lru_shards`` bound the capacity tracks the widest fan-out seen
        (one partition per worker), starting from
        :data:`DEFAULT_LRU_SHARDS` on a lake whose ``max_workers`` was
        left to the default; an explicit bound is never changed.
        """
        if not self._spilled:
            return
        floor = DEFAULT_LRU_SHARDS if self.max_workers is None else 1
        capacity = self.lru_shards or max(workers, floor)
        with self._lru_lock:
            if self._lru is None:
                self._lru = ShardLRU(self._load, capacity)
            elif self.lru_shards is None and self._lru.capacity < capacity:
                self._lru.capacity = capacity

    def _get_index(self, part: int) -> tuple[PexesoIndex, float]:
        """Fetch one partition's index plus the disk seconds it cost."""
        if part in self._resident:
            return self._resident[part], 0.0
        if part not in self._spilled:
            raise RuntimeError(
                f"partition {part} has no resident or spilled index"
            )
        if self._lru is None:
            self._ensure_lru(self._resolve_workers(None))
        started = time.perf_counter()
        index = self._lru.get(part)
        return index, time.perf_counter() - started

    # -- search ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if self.labels is None:
            raise RuntimeError("call fit() before searching")

    def restrict_to_parts(self, parts: Sequence[int]) -> None:
        """Host only the given partitions (a cluster worker's shard subset).

        Every hosted partition must be non-empty. Once restricted,
        searches fan out over the hosted partitions only, mutations may
        only target them, and nothing is committed to disk — a worker
        sees just its slice of the lake, so writing the shared
        ``partitioned.json`` from that partial view would clobber the
        other workers' columns.
        """
        self._require_fitted()
        hosted = frozenset(int(p) for p in parts)
        if not hosted:
            raise ValueError("must host at least one partition")
        for part in sorted(hosted):
            if not (0 <= part < len(self.partition_columns)):
                raise KeyError(f"unknown partition {part}")
            if not self.partition_columns[part]:
                raise KeyError(f"partition {part} is empty (never indexed)")
        self.hosted_parts = hosted
        self._column_shard = None

    def _shards(self, parts: Optional[Sequence[int]] = None) -> list[int]:
        """The non-empty (hosted) partitions' ids.

        ``parts`` further restricts one call to a subset of the hosted
        partitions — the cluster coordinator uses this to ask a worker
        for exactly the partitions routed to it, so replicated shards
        are answered exactly once across the cluster.
        """
        shards = [part for part, columns in enumerate(self.partition_columns) if columns]
        if self.hosted_parts is not None:
            shards = [part for part in shards if part in self.hosted_parts]
        if parts is not None:
            want = {int(p) for p in parts}
            unknown = sorted(want - set(shards))
            if unknown:
                raise KeyError(f"partitions not hosted here: {unknown}")
            shards = [part for part in shards if part in want]
            if not shards:
                raise ValueError("parts selects no partitions")
        return shards

    def _resolve_workers(self, override: Optional[int], n_shards: int = 0) -> int:
        workers = override if override is not None else self.max_workers
        if workers is None:
            workers = DEFAULT_SHARD_WORKERS
        if n_shards:
            workers = min(workers, n_shards)
        return max(1, workers)

    def search_many(
        self,
        queries: Sequence[np.ndarray],
        tau: Union[float, Sequence[float]],
        joinability: Union[float, int, Sequence[Union[float, int]]],
        flags: Optional[AblationFlags] = None,
        max_workers: Optional[int] = None,
        parts: Optional[Sequence[int]] = None,
        shards=None,
    ) -> BatchResult:
        """Answer many query columns over every shard in one pass.

        Each shard runs the batch engine over the *whole* query list
        (shared pivot mapping / blocking per τ group) and shards
        fan out over a thread pool. Results carry global column IDs and
        are bit-identical to a single index over the union of the shards
        (per-query hits, match counts and joinabilities — the engine's
        exactness guarantee composes with the disjoint-shard merge).

        Loading time of spilled partitions is recorded in the stats'
        ``shard_load_seconds``, matching the paper's protocol ("the
        search time includes the overhead of loading the data from
        disks").

        Args:
            queries: query columns, each ``(|Q_i|, dim)``.
            tau: scalar or per-query distance thresholds.
            joinability: scalar or per-query T (fraction or count).
            flags: ablation switches applied to every query.
            max_workers: shard fan-out width for this call; defaults to
                the constructor's ``max_workers``.
            parts: restrict this call to a subset of the (hosted)
                partitions; ``None`` searches them all.
            shards: the shard seam answering the partitions; ``None``
                is this lake's own indexes (a
                :class:`~repro.core.shards.LocalShards` over ``flags``
                and ``max_workers``).

        Returns:
            A :class:`~repro.core.engine.BatchResult` aligned with
            ``queries``; hits carry global column IDs.
        """
        self._require_fitted()
        started = time.perf_counter()
        if len(queries) == 0:
            return BatchResult(results=[], stats=SearchStats(), wall_seconds=0.0)
        if shards is None:
            shards = LocalShards(self, flags, max_workers)
        pieces = shards.search(self._shards(parts), queries, tau, joinability)
        merge_started = time.perf_counter()
        with shards.merging():
            merged = merge_shard_batches(*zip(*pieces))
        merged.stats.stage_seconds.add(
            "merge", time.perf_counter() - merge_started
        )
        merged.wall_seconds = time.perf_counter() - started
        return merged

    def search(
        self,
        query_vectors: np.ndarray,
        tau: float,
        joinability: float | int,
        flags: Optional[AblationFlags] = None,
        max_workers: Optional[int] = None,
        parts: Optional[Sequence[int]] = None,
        shards=None,
    ) -> SearchResult:
        """Single-query convenience wrapper around :meth:`search_many`.

        The returned stats aggregate the whole fan-out (per-shard
        blocking, verification and disk loads).
        """
        batch = self.search_many(
            [query_vectors],
            tau,
            joinability,
            flags=flags,
            max_workers=max_workers,
            parts=parts,
            shards=shards,
        )
        result = batch.results[0]
        result.stats = batch.stats
        return result

    def topk(
        self,
        query_vectors: np.ndarray,
        tau: float,
        k: int,
        max_workers: Optional[int] = None,
        parts: Optional[Sequence[int]] = None,
        shards=None,
    ) -> TopKResult:
        """Exact top-k columns by joinability across all shards.

        Every shard answers its own top-k in one pass and the lake merges
        them once. Each shard's local tie-break order equals the global
        one restricted to that shard, so its local top-k holds every
        member of the global top-k it owns, and the merged result is
        identical to single-index top-k over the union of the shards.

        Args:
            parts: restrict this call to a subset of the (hosted)
                partitions.
            shards: the shard seam (see :meth:`search_many`).
        """
        self._require_fitted()
        if k < 1:
            raise ValueError("k must be at least 1")
        query = np.atleast_2d(np.asarray(query_vectors, dtype=np.float64))
        if query.shape[0] == 0:
            raise ValueError("query column is empty")
        if shards is None:
            shards = LocalShards(self, max_workers=max_workers)

        pieces = shards.topk(self._shards(parts), query, tau, k)
        merge_started = time.perf_counter()
        merged_stats = SearchStats()
        best: list[tuple[int, int, float]] = []  # (global id, count, joinability)
        with shards.merging():
            for local, column_map in pieces:
                merged_stats.merge(local.stats)
                best.extend(
                    (int(column_map[cid]), count, jn) for cid, count, jn in local.hits
                )
            # global order: count desc, column ID asc
            best.sort(key=lambda row: (-row[1], row[0]))
        merged_stats.stage_seconds.add("merge", time.perf_counter() - merge_started)
        return TopKResult(
            hits=best[:k], stats=merged_stats, tau=float(tau), k=min(k, self.n_columns)
        )

    # -- incremental maintenance (§III-E over shards) ------------------------------

    def _ensure_column_shard(self) -> dict[int, tuple[int, int]]:
        """Build (or reuse) the live ``global id -> (partition, local id)`` map.

        A parts-restricted lake maps only the columns of its hosted
        partitions — a worker can neither search nor mutate columns it
        does not hold.
        """
        if self._column_shard is None:
            self._column_shard = {
                cid: (part, local)
                for part, globals_ in enumerate(self.partition_columns)
                for local, cid in enumerate(globals_)
                if cid >= 0
                and cid not in self._deleted_ids
                and (self.hosted_parts is None or part in self.hosted_parts)
            }
        return self._column_shard

    @property
    def next_column_id(self) -> int:
        """The global ID the next allocating :meth:`add_column` hands out
        (IDs are never reused, so this only grows)."""
        if self._next_gid is None:
            self._next_gid = (
                max((cid for g in self.partition_columns for cid in g), default=-1) + 1
            )
        return self._next_gid

    def _record_add(self, part: int, gid: int, local: Optional[int]) -> None:
        """Book a column placed in ``part`` under shard-local ID ``local``
        (``None``: a remote shard's, which the lake never uses)."""
        cols = self.partition_columns[part]
        while local is not None and len(cols) < local:  # keep positional alignment
            cols.append(-1)
        cols.append(gid)
        self.labels = np.append(self.labels, part)
        if self._column_shard is not None:
            self._column_shard[gid] = (part, len(cols) - 1)
        self._next_gid = max(self.next_column_id, gid + 1)

    def add_column(
        self,
        vectors: np.ndarray,
        part: Optional[int] = None,
        column_id: Optional[int] = None,
        shards=None,
    ) -> int:
        """Append one column to the lake and return its global column ID.

        The column joins the least-loaded non-empty partition (empty
        partitions never got an index at fit time; ties go to the lowest
        partition), whose
        :meth:`~repro.core.index.PexesoIndex.add_column` does the §III-E
        incremental insert. A spilled shard is loaded, mutated, committed
        and its LRU slot replaced, so later searches see the new
        column no matter which path fetches the shard. Callers running
        concurrent searches must serialize mutations against them (the
        serving layer's :class:`~repro.serve.service.QueryService` does
        this with a reader-writer lock). A mutation the shard seam
        rejects records nothing and burns no ID.

        Args:
            part: place the column in this (hosted, non-empty) partition
                instead of the least-loaded one. The cluster coordinator
                uses this to route the same add to every replica of one
                partition.
            column_id: use this global ID instead of allocating the next
                one — again for the coordinator, which allocates IDs
                cluster-wide so replicas agree. Must be unused.
            shards: the shard seam that applies the insert (see
                :meth:`search_many`); ``None`` is this lake's own indexes.

        Raises:
            KeyError: when ``part`` is not a hosted non-empty partition.
            ValueError: when ``column_id`` is already in use.
        """
        self._require_fitted()
        hosted = self._shards()
        if not hosted:
            raise RuntimeError("lake has no non-empty partition to extend")
        if part is None:
            live = Counter(p for p, _ in self._ensure_column_shard().values())
            part = min(hosted, key=lambda p: (live[p], p))
        else:
            part = int(part)
            if part not in hosted:
                raise KeyError(f"partition {part} is not hosted by this lake")
        # Resolve the global ID *before* mutating the shard index so a
        # rejected explicit ID leaves the lake untouched.
        if column_id is None:
            gid = self.next_column_id
        else:
            gid = int(column_id)
            if gid < 0:
                raise ValueError("column_id must be non-negative")
            existing = self._ensure_column_shard().get(gid)
            if existing is not None:
                # Idempotent replay of a replicated write-through: the
                # coordinator (or its client's transport retry after a
                # lost reply) may deliver the same (partition, id,
                # vectors) twice; the second delivery must be a no-op,
                # not an error that poisons the replica.
                if existing[0] == part and _same_rows(
                    self.column_vectors(gid),
                    np.atleast_2d(np.asarray(vectors, dtype=np.float64)),
                ):
                    return gid
                raise ValueError(f"column id {gid} is already in use")
            if gid in self._deleted_ids or any(
                gid in g for g in self.partition_columns
            ):
                raise ValueError(f"column id {gid} is already in use")

        if shards is None:
            shards = LocalShards(self)
        self._record_add(part, gid, shards.add(part, gid, vectors))
        shards.commit(part)
        return gid

    def delete_column(self, column_id: int, shards=None) -> None:
        """Remove one column (by global ID) from its shard's postings.

        The global ID keeps its tombstoned slot in ``partition_columns``
        so every other column's local->global mapping is untouched; IDs
        are never reused. ``shards`` is the seam that applies the delete
        (see :meth:`add_column`).

        Raises:
            KeyError: when ``column_id`` is unknown or already deleted.
        """
        self._require_fitted()
        mapping = self._ensure_column_shard()
        if column_id not in mapping:
            raise KeyError(f"unknown column id {column_id}")
        part, local = mapping[column_id]
        if shards is None:
            shards = LocalShards(self)
        shards.delete(part, local, column_id)
        self._deleted_ids.add(int(column_id))
        del mapping[column_id]
        shards.commit(part)

    def has_column(self, column_id: int) -> bool:
        """Whether a global column ID is live (indexed and not deleted)."""
        if self.labels is None:
            return False
        return column_id in self._ensure_column_shard()

    def column_partition(self, column_id: int) -> Optional[int]:
        """The partition holding a live column (``None`` when not live)."""
        return self._ensure_column_shard().get(int(column_id), (None,))[0]

    def column_state(self) -> dict:
        """The next global ID, the tombstones and each live column's
        partition, JSON-safe: a cluster coordinator, which mutates remote
        shards and never the saved lake, keeps them in ``cluster.json``."""
        return {
            "next_column_id": self.next_column_id,
            "deleted_column_ids": sorted(self._deleted_ids),
            "column_partition": {
                str(gid): part for gid, (part, _) in self._ensure_column_shard().items()
            },
        }

    def adopt_column_state(self, state: dict) -> None:
        """Merge a :meth:`column_state` recorded after this lake was
        saved: its tombstones, ID counter and added columns."""
        self._deleted_ids |= {int(c) for c in state.get("deleted_column_ids", [])}
        self._column_shard = None
        live = self._ensure_column_shard()
        for gid, part in state.get("column_partition", {}).items():
            if int(gid) not in live and int(gid) not in self._deleted_ids:
                self._record_add(int(part), int(gid), None)
        self._next_gid = max(self.next_column_id, int(state.get("next_column_id", 0)))

    @property
    def n_columns(self) -> int:
        if self.labels is None:
            return 0
        return len(self._ensure_column_shard())

    def lru_info(self) -> dict[str, int]:
        """Shard residency telemetry for the serving layer's ``/metrics``."""
        info = {
            "resident": len(self._resident),
            "spilled": len(self._spilled),
            "lru_size": 0,
            "lru_capacity": 0,
            "lru_hits": 0,
            "lru_misses": 0,
        }
        lru = self._lru
        if lru is not None:
            info.update(
                lru_size=len(lru),
                lru_capacity=lru.capacity,
                lru_hits=lru.hits,
                lru_misses=lru.misses,
            )
        return info

    def column_vectors(self, column_id: int) -> np.ndarray:
        """Vectors of one column, fetched from its shard, in the shard's
        leaf order (not the order they were added in).

        Spilled shards come through the LRU, so repeated lookups stay
        disk-cheap without unbounding resident memory.

        Raises:
            KeyError: when no shard holds ``column_id``.
        """
        self._require_fitted()
        mapping = self._ensure_column_shard()
        if column_id not in mapping:
            raise KeyError(f"unknown column id {column_id}")
        part, local = mapping[column_id]
        index, _ = self._get_index(part)
        return index.vectors[index.column_rows[local]]

    def memory_bytes(self) -> int:
        """Footprint of resident indexes (spilled shards count only while
        they sit in the LRU)."""
        total = sum(index.memory_bytes() for index in self._resident.values())
        if self._lru is not None:
            total += sum(index.memory_bytes() for index in self._lru.resident())
        return total


class LakeSearcher:
    """One dispatch surface over a single index or a partitioned lake.

    The production entry point: callers pick a scale (``n_partitions``,
    ``spill_dir``, ``max_workers``) at build time and the search API
    stays the same — ``search`` one query, ``search_many`` a batch,
    ``topk`` a ranked discovery — with identical results on every
    backend (the differential-oracle suite pins this down).

    Args:
        backend: a built :class:`~repro.core.index.PexesoIndex` or
            :class:`PartitionedPexeso`.
        flags: default ablation switches for threshold searches.
        max_workers: default worker-pool width (per-τ engine groups on a
            single index; shard fan-out on a partitioned lake).
    """

    def __init__(
        self,
        backend: Union[PexesoIndex, PartitionedPexeso],
        flags: Optional[AblationFlags] = None,
        max_workers: Optional[int] = None,
    ):
        if isinstance(backend, PexesoIndex):
            if backend.pivot_space is None or backend.grid is None:
                raise RuntimeError("index is not built; call fit() first")
        elif isinstance(backend, PartitionedPexeso):
            if backend.labels is None:
                raise RuntimeError("partitioned lake is not fitted")
        else:
            raise TypeError(
                f"backend must be a PexesoIndex or PartitionedPexeso, "
                f"got {type(backend).__name__}"
            )
        self.backend = backend
        self.flags = flags
        self.max_workers = max_workers

    @classmethod
    def build(
        cls,
        columns: Sequence[np.ndarray],
        metric: Optional[Metric] = None,
        n_pivots: int = 5,
        levels: int = 4,
        pivot_method: str = "pca",
        seed: int = 0,
        n_partitions: int = 1,
        partitioner: str = "jsd",
        spill_dir: Optional[str | Path] = None,
        kmeans_iters: int = 10,
        max_workers: Optional[int] = None,
        flags: Optional[AblationFlags] = None,
    ) -> "LakeSearcher":
        """Build the right backend for the requested scale.

        ``n_partitions <= 1`` with no ``spill_dir`` builds one in-memory
        :class:`~repro.core.index.PexesoIndex`; anything else builds a
        :class:`PartitionedPexeso`.
        """
        if n_partitions <= 1 and spill_dir is None:
            backend: Union[PexesoIndex, PartitionedPexeso] = PexesoIndex.build(
                columns,
                metric=metric,
                n_pivots=n_pivots,
                levels=levels,
                pivot_method=pivot_method,
                seed=seed,
            )
        else:
            backend = PartitionedPexeso(
                metric=metric,
                n_pivots=n_pivots,
                levels=levels,
                pivot_method=pivot_method,
                seed=seed,
                n_partitions=max(1, n_partitions),
                partitioner=partitioner,
                spill_dir=spill_dir,
                kmeans_iters=kmeans_iters,
                max_workers=max_workers,
            ).fit(columns)
        return cls(backend, flags=flags, max_workers=max_workers)

    # -- dispatch ----------------------------------------------------------------

    @property
    def is_partitioned(self) -> bool:
        return isinstance(self.backend, PartitionedPexeso)

    @property
    def index(self) -> Optional[PexesoIndex]:
        """The single-index backend, or ``None`` when partitioned."""
        return self.backend if isinstance(self.backend, PexesoIndex) else None

    @property
    def n_columns(self) -> int:
        return self.backend.n_columns

    def search(
        self,
        query_vectors: np.ndarray,
        tau: float,
        joinability: float | int,
        flags: Optional[AblationFlags] = None,
        max_workers: Optional[int] = None,
        parts: Optional[Sequence[int]] = None,
        ef_search: Optional[int] = None,
    ) -> SearchResult:
        """Threshold search for one query column (global column IDs).

        ``ef_search`` restricts a single-index search to the columns the
        ANN graph nominates (see :mod:`repro.core.ann`); the nominees
        still pass the exact verifier. ``None`` (default) is the exact
        search, and the only form a partitioned backend accepts.
        """
        flags = flags if flags is not None else self.flags
        workers = max_workers if max_workers is not None else self.max_workers
        if isinstance(self.backend, PexesoIndex):
            self._reject_parts(parts)
            allowed = candidate_lists(self.backend, [query_vectors], ef_search)
            return pexeso_search(
                self.backend, query_vectors, tau, joinability,
                flags=flags,
                allowed_columns=allowed[0] if allowed is not None else None,
            )
        if ef_search is not None:
            raise ValueError(
                "ef_search needs a single-index backend; a partitioned "
                "lake is searched exactly"
            )
        return self.backend.search(
            query_vectors, tau, joinability,
            flags=flags, max_workers=workers, parts=parts,
        )

    def search_many(
        self,
        queries: Sequence[np.ndarray],
        tau: Union[float, Sequence[float]],
        joinability: Union[float, int, Sequence[Union[float, int]]],
        flags: Optional[AblationFlags] = None,
        max_workers: Optional[int] = None,
        parts: Optional[Sequence[int]] = None,
    ) -> BatchResult:
        """Batch threshold search (global column IDs)."""
        flags = flags if flags is not None else self.flags
        workers = max_workers if max_workers is not None else self.max_workers
        if isinstance(self.backend, PexesoIndex):
            self._reject_parts(parts)
            engine = BatchSearch(self.backend, flags=flags, max_workers=workers)
            return engine.search_many(queries, tau, joinability)
        return self.backend.search_many(
            queries, tau, joinability,
            flags=flags, max_workers=workers, parts=parts,
        )

    def topk(
        self,
        query_vectors: np.ndarray,
        tau: float,
        k: int,
        max_workers: Optional[int] = None,
        parts: Optional[Sequence[int]] = None,
    ) -> TopKResult:
        """Exact top-k discovery (global column IDs)."""
        workers = max_workers if max_workers is not None else self.max_workers
        if isinstance(self.backend, PexesoIndex):
            self._reject_parts(parts)
            return pexeso_topk(self.backend, query_vectors, tau, k)
        return self.backend.topk(
            query_vectors, tau, k, max_workers=workers, parts=parts
        )

    @staticmethod
    def _reject_parts(parts: Optional[Sequence[int]]) -> None:
        if parts is not None:
            raise ValueError(
                "a partition restriction needs a partitioned backend; "
                "this searcher wraps a single in-memory index"
            )

    def column_vectors(self, column_id: int) -> np.ndarray:
        """Vectors of one indexed column (any backend), in leaf order."""
        if isinstance(self.backend, PexesoIndex):
            return self.backend.vectors[self.backend.column_rows[column_id]]
        return self.backend.column_vectors(column_id)

    # -- incremental maintenance ---------------------------------------------------

    def add_column(
        self,
        vectors: np.ndarray,
        part: Optional[int] = None,
        column_id: Optional[int] = None,
    ) -> int:
        """Append one column (§III-E) on either backend; returns its ID.

        ``part`` / ``column_id`` give explicit placement and a
        cluster-allocated global ID on a partitioned backend (see
        :meth:`PartitionedPexeso.add_column`); a single index rejects
        them.

        Not safe to run concurrently with searches — serialize through a
        writer lock (as :class:`~repro.serve.service.QueryService` does).
        """
        if isinstance(self.backend, PexesoIndex):
            if part is not None or column_id is not None:
                raise ValueError(
                    "explicit placement needs a partitioned backend"
                )
            return self.backend.add_column(vectors)
        return self.backend.add_column(vectors, part=part, column_id=column_id)

    def delete_column(self, column_id: int) -> None:
        """Remove one column from the lake (same concurrency caveat)."""
        self.backend.delete_column(column_id)

    def has_column(self, column_id: int) -> bool:
        """Whether ``column_id`` is live on the backend."""
        if isinstance(self.backend, PexesoIndex):
            return column_id in self.backend.column_rows
        return self.backend.has_column(column_id)

    def memory_bytes(self) -> int:
        return self.backend.memory_bytes()
