"""In-process shards: the resident-shard LRU and the shard seam over it.

A search or a top-k is one call of the seam over every partition it
asks, fanned out as wide as ``max_workers`` (serial by default).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.engine import BatchSearch
from repro.core.index import PexesoIndex
from repro.core.persistence import commit_lake
from repro.core.search import AblationFlags
from repro.core.topk import pexeso_topk

if TYPE_CHECKING:
    from repro.core.out_of_core import PartitionedPexeso


class ShardLRU:
    """Thread-safe LRU cache of loaded shard indexes (out-of-core mode).

    Bounds spill-mode memory to ``capacity`` resident shards — one per
    worker by default, so a W-wide fan-out never holds more than W
    partitions in memory — while letting repeated searches reuse loads.

    Args:
        loader: ``partition id -> PexesoIndex`` disk loader.
        capacity: maximum number of resident shards (>= 1).
    """

    def __init__(self, loader: Callable[[int], PexesoIndex], capacity: int):
        if capacity < 1:
            raise ValueError("LRU capacity must be at least 1")
        self._loader = loader
        self.capacity = int(capacity)
        self._cache: OrderedDict[int, PexesoIndex] = OrderedDict()
        self._lock = threading.Lock()
        #: per-part version counter, bumped by put()/invalidate(); a
        #: get() that loaded from disk installs its result only if the
        #: token it captured is still current, so a slow disk load can
        #: never clobber a fresher index a concurrent put() installed.
        self._tokens: dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def get(self, part: int) -> PexesoIndex:
        """Fetch one shard, loading (and possibly evicting) as needed."""
        while True:
            with self._lock:
                index = self._cache.get(part)
                if index is not None:
                    self._cache.move_to_end(part)
                    self.hits += 1
                    return index
                token = self._tokens.get(part, 0)
            # Load outside the lock so concurrent workers load distinct
            # shards in parallel; a rare duplicate load of the same shard
            # is benign.
            index = self._loader(part)
            with self._lock:
                self.misses += 1
                if self._tokens.get(part, 0) != token:
                    # The entry changed mid-load (a mutation put() a
                    # fresher index, or invalidate() dropped it because
                    # the on-disk copy moved on). Our load may predate
                    # that, so it must not be installed; serve the cached
                    # fresh copy if there is one, else re-load.
                    current = self._cache.get(part)
                    if current is not None:
                        self._cache.move_to_end(part)
                        return current
                    continue
                self._cache[part] = index
                self._cache.move_to_end(part)
                while len(self._cache) > self.capacity:
                    self._cache.popitem(last=False)
            return index

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    def resident(self) -> list[PexesoIndex]:
        """Snapshot of the currently resident shard indexes."""
        with self._lock:
            return list(self._cache.values())

    def put(self, part: int, index: PexesoIndex) -> None:
        """Install (or replace) one shard's resident index.

        Live maintenance mutates a loaded shard and re-spills it; the
        fresh object replaces any stale cached copy so later reads never
        see the pre-mutation index. Bumps the part's version token so an
        in-flight disk load started before this put can never overwrite
        it.
        """
        with self._lock:
            self._tokens[part] = self._tokens.get(part, 0) + 1
            self._cache[part] = index
            self._cache.move_to_end(part)
            while len(self._cache) > self.capacity:
                self._cache.popitem(last=False)


    def invalidate(self, part: int) -> None:
        """Drop one shard from the cache (no-op when absent)."""
        with self._lock:
            self._tokens[part] = self._tokens.get(part, 0) + 1
            self._cache.pop(part, None)

    def clear(self) -> None:
        with self._lock:
            for part in self._cache:
                self._tokens[part] = self._tokens.get(part, 0) + 1
            self._cache.clear()


class LocalShards:
    """The shard seam over a lake's own indexes, for one call.

    :class:`~repro.core.out_of_core.PartitionedPexeso` reaches shards
    only through a seam with this interface (the other implementation
    is the cluster's :class:`~repro.cluster.groups.RemoteGroups`):
    ``search(parts, queries, tau, joinability)`` and ``topk(parts,
    query, tau, k)`` answer ``parts`` as ``(result, column map)``
    pieces, the map taking the piece's column IDs to global ones;
    ``merging()`` is the context of the exact merge; ``add(part, gid,
    vectors)`` (returning the shard-local ID or ``None``) and
    ``delete(part, local, gid)`` apply a mutation that ``commit(part)``
    makes durable once the lake has booked it. Here each partition is
    answered by its own index, ``max_workers`` at a time.
    """

    def __init__(
        self,
        lake: "PartitionedPexeso",
        flags: Optional[AblationFlags] = None,
        max_workers: Optional[int] = None,
    ):
        self.lake = lake
        self.flags = flags
        self.max_workers = max_workers
        self._mutated: Optional[PexesoIndex] = None

    def _workers(self, parts: Sequence[int]) -> int:
        # on the calling thread, so pool workers never race on the LRU
        workers = self.lake._resolve_workers(self.max_workers, len(parts))
        self.lake._ensure_lru(workers)
        return workers

    def _run(self, answer: Callable[[PexesoIndex], object], parts, workers: int):
        def run(part: int):
            index, load_seconds = self.lake._get_index(part)
            result = answer(index)
            result.stats.shard_load_seconds += load_seconds
            result.stats.stage_seconds.add("shard_load", load_seconds)
            return result, self.lake.partition_columns[part]

        if workers == 1 or len(parts) == 1:
            return [run(part) for part in parts]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, parts))

    def search(self, parts, queries, tau, joinability) -> list[tuple]:
        def answer(index: PexesoIndex):
            return BatchSearch(index, flags=self.flags).search_many(
                queries, tau, joinability
            )

        return self._run(answer, parts, self._workers(parts))

    def topk(self, parts, query, tau, k) -> list[tuple]:
        return self._run(
            lambda index: pexeso_topk(index, query, tau, k), parts, self._workers(parts)
        )

    def merging(self):
        return nullcontext()

    def add(self, part: int, gid: int, vectors: np.ndarray) -> int:
        self._mutated = self.lake._get_index(part)[0]
        return self._mutated.add_column(vectors)

    def delete(self, part: int, local: int, gid: int) -> None:
        self._mutated = self.lake._get_index(part)[0]
        self._mutated.delete_column(local)

    def commit(self, part: int) -> None:
        """One :func:`~repro.core.persistence.commit_lake` makes a spilled
        shard's fresh epoch and the lake's column maps live together, and
        the LRU slot is replaced; a resident shard writes nothing."""
        lake = self.lake
        if part in lake._spilled:
            commit_lake(lake, lake.spill_dir, [(part, self._mutated)])
            if lake._lru is not None:
                lake._lru.put(part, self._mutated)
