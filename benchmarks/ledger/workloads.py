"""The five ledger workloads: systems under test, clients and op patterns.

Each workload pairs a lake (:mod:`lakes`) with a *system* — the stack a
user would run — and a closed-loop op pattern. A system's constructor is
the timed set-up (raw float64 columns in memory to serviceable); its
clients expose the same operations on every stack (``search``, ``add``,
``delete``; ``search_many`` in-process only: the HTTP API has no batch
endpoint), so the runner's window loop, oracle check and reply
re-verification are written once.

Everything is driven through public entry points only
(``LakeSearcher``, ``save_index``/``load_partitioned``, ``make_server``,
``ServeClient``, ``LocalCluster``) under their default knobs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from lakes import LONG, SHORT, LakeSpec
from repro.cluster.local import LocalCluster
from repro.core.index import PexesoIndex
from repro.core.out_of_core import LakeSearcher, PartitionedPexeso
from repro.core.persistence import load_partitioned, save_index, save_partitioned
from repro.serve.client import ServeClient
from repro.serve.server import make_server

#: one hit of an answer: (column id, match count, count is exact)
Hit = tuple[int, int, bool]


def dir_bytes(directory: Path) -> int:
    """Bytes of every regular file under ``directory``."""
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


def build_index(spec: LakeSpec, columns: Sequence[np.ndarray]) -> PexesoIndex:
    return PexesoIndex.build(columns, n_pivots=spec.n_pivots, levels=spec.levels)


def build_partitioned(
    spec: LakeSpec, columns: Sequence[np.ndarray], n_partitions: int
) -> PartitionedPexeso:
    return PartitionedPexeso(
        n_pivots=spec.n_pivots, levels=spec.levels, n_partitions=n_partitions
    ).fit(columns)


# -- clients ------------------------------------------------------------------------


class LakeClient:
    """In-process calls on a :class:`LakeSearcher` (single index or partitioned)."""

    def __init__(self, searcher: LakeSearcher, spec: LakeSpec):
        self.searcher = searcher
        self.spec = spec

    @staticmethod
    def hits_of(result) -> list[Hit]:
        return [(h.column_id, h.match_count, h.exact_count) for h in result.joinable]

    def search(self, query: np.ndarray) -> list[Hit]:
        return self.hits_of(
            self.searcher.search(query, self.spec.tau, self.spec.joinability)
        )

    def search_many(self, queries: Sequence[np.ndarray]) -> list[list[Hit]]:
        batch = self.searcher.search_many(
            queries, self.spec.tau, self.spec.joinability
        )
        return [self.hits_of(r) for r in batch.results]

    def add(self, column: np.ndarray) -> int:
        return self.searcher.add_column(column)

    def delete(self, column_id: int) -> None:
        self.searcher.delete_column(column_id)


class HttpClient:
    """Calls over HTTP+JSON on a serving node or a cluster coordinator."""

    def __init__(self, client: ServeClient, spec: LakeSpec):
        self.client = client
        self.spec = spec

    def search(self, query: np.ndarray) -> list[Hit]:
        reply = self.client.search(
            vectors=query, tau=self.spec.tau, joinability=self.spec.joinability
        )
        return [
            (h["column_id"], h["match_count"], h["exact_count"])
            for h in reply["hits"]
        ]

    def add(self, column: np.ndarray) -> int:
        return int(self.client.add_column(vectors=column)["column_id"])

    def delete(self, column_id: int) -> None:
        self.client.delete_column(column_id)


# -- systems ------------------------------------------------------------------------
#
# Constructing a system is the timed set-up. Every system records the
# index footprint of what it built (``index_bytes`` over ``n_vectors``)
# and, when it persists, the directory it serves from (``stored_dir``).


class InprocSystem:
    """One in-memory index behind a :class:`LakeSearcher`."""

    stored_dir: Optional[Path] = None

    def __init__(self, spec: LakeSpec, columns, workdir: Path, smoke: bool = False):
        self.spec = spec
        index = build_index(spec, columns)
        self.index_bytes = index.memory_bytes()
        self.n_vectors = index.n_vectors
        self.searcher = LakeSearcher(index)

    def client(self) -> LakeClient:
        return LakeClient(self.searcher, self.spec)

    def close(self) -> None:
        pass


class SpillSystem(InprocSystem):
    """Four JSD partitions saved to disk and reopened in spill mode, LRU of 2."""

    N_PARTITIONS = 4
    LRU_SHARDS = 2

    def __init__(self, spec: LakeSpec, columns, workdir: Path, smoke: bool = False):
        self.spec = spec
        fitted = build_partitioned(spec, columns, self.N_PARTITIONS)
        self.index_bytes = fitted.memory_bytes()
        self.n_vectors = sum(c.shape[0] for c in columns)
        self.stored_dir = save_partitioned(fitted, workdir / "spill")
        lake = load_partitioned(self.stored_dir)
        lake.lru_shards = self.LRU_SHARDS
        self.searcher = LakeSearcher(lake)


class ServeSystem:
    """A saved single index served over HTTP (mmap load, batcher 2 ms, cache 256)."""

    def __init__(self, spec: LakeSpec, columns, workdir: Path, smoke: bool = False,
                 **server_kwargs):
        self.spec = spec
        index = build_index(spec, columns)
        self.index_bytes = index.memory_bytes()
        self.n_vectors = index.n_vectors
        self.stored_dir = save_index(index, workdir / "serve")
        self.server = make_server(self.stored_dir, **server_kwargs)
        self._thread = threading.Thread(
            target=self.server.serve_forever, args=(0.02,), daemon=True
        )
        self._thread.start()

    def client(self) -> HttpClient:
        return HttpClient(ServeClient(self.server.url), self.spec)

    def close(self) -> None:
        self.server.close()
        self._thread.join(timeout=10.0)


class ClusterSystem:
    """Two partitions behind a coordinator and two replicated workers."""

    N_PARTITIONS = 2

    def __init__(self, spec: LakeSpec, columns, workdir: Path, smoke: bool = False):
        self.spec = spec
        fitted = build_partitioned(spec, columns, self.N_PARTITIONS)
        self.index_bytes = fitted.memory_bytes()
        self.n_vectors = sum(c.shape[0] for c in columns)
        self.stored_dir = save_partitioned(fitted, workdir / "cluster")
        # worker processes are what the cluster exists for; the smoke
        # test trades them for threads to stay fast
        self.cluster = LocalCluster(
            self.stored_dir, n_workers=2, replication=2,
            mode="thread" if smoke else "process",
        )
        started = time.perf_counter()
        try:
            self.cluster.start()
            # start() returns once every partition has one live owner; the
            # measured system is the whole cluster, so wait for every worker
            deadline = time.monotonic() + 60.0
            while any(
                w["status"] != "up" for w in self.cluster.client.cluster()["workers"]
            ):
                if time.monotonic() > deadline:
                    raise TimeoutError("cluster workers did not all come up")
                time.sleep(0.01)
        except BaseException:
            self.cluster.stop()
            raise
        #: saved lake to every worker up: what starting the cluster costs
        self.start_seconds = time.perf_counter() - started

    def client(self) -> HttpClient:
        return HttpClient(self.cluster.client, self.spec)

    def close(self) -> None:
        self.cluster.stop()


# -- workloads ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One named traffic mix: a lake, a system and a per-client op pattern.

    ``pattern`` is cycled by every client thread; its ops are ``search``
    (a cold query, never repeated), ``hot`` (one of 8 repeated queries,
    the same one for every ``hot`` of a cycle: a cache hit unless a write
    came since its last use), ``batch:N`` (N cold queries in one
    ``search_many``), ``add``, ``delete`` (deletes the client's oldest
    outstanding add, so the schedule is net-zero) and ``write`` (a delete
    if the client has an add outstanding, else an add). Patterns are
    short, so that a window holds many whole cycles.
    """

    name: str
    why: str
    lake: LakeSpec
    system: type
    n_clients: int
    pattern: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="short_cols_inproc",
            why="many short columns in one in-memory index: the blocker does "
                "almost all the work; scalar and batch paths side by side",
            lake=SHORT,
            system=InprocSystem,
            n_clients=1,
            pattern=("search",) * 16 + ("batch:16",) + ("add",) * 4 + ("delete",) * 4,
        ),
        Workload(
            name="long_cols_inproc",
            why="few long 64-d columns: Lemma filters and the verifier do most "
                "of the work, the blocker little; batching amortises nothing",
            lake=LONG,
            system=InprocSystem,
            n_clients=1,
            pattern=("search",) * 12 + ("batch:8",) + ("add",) * 2 + ("delete",) * 2,
        ),
        Workload(
            name="spill_inproc_mixed",
            why="the short lake in 4 spilled shards behind an LRU of 2 with "
                "durable writes: out_of_core and persistence on the hot path",
            lake=SHORT,
            system=SpillSystem,
            n_clients=1,
            # the four single searches are not in the issue's mix: the driver
            # wants every gated metric on every workload, and a single search
            # on a spilled lake is the same call with the same meaning
            pattern=("batch:8",) + ("search",) * 4 + ("add",) * 2 + ("delete",) * 2,
        ),
        Workload(
            name="serve_http_mixed",
            why="one node over HTTP, two clients: reads beside writes through the "
                "service lock, the coalescer, the result cache and JSON per hop",
            lake=SHORT,
            system=ServeSystem,
            n_clients=2,
            # 7 cold, 2 hot, 1 write; the second hot hits the cache unless
            # the other client's write came in between
            pattern=("search",) * 4 + ("hot",) * 2 + ("search",) * 3 + ("write",),
        ),
        Workload(
            name="cluster_2w",
            why="the short lake behind a coordinator and 2 replicated worker "
                "processes: routing, scatter, hedging, merge, write-through",
            lake=SHORT,
            system=ClusterSystem,
            n_clients=1,
            pattern=("search",) * 9 + ("write",),
        ),
    )
}
