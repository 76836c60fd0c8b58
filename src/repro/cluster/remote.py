"""A cluster-backed drop-in for :class:`~repro.core.out_of_core.LakeSearcher`.

:class:`RemoteLakeSearcher` speaks the coordinator's HTTP API but
returns the same :class:`~repro.core.search.SearchResult` /
:class:`~repro.core.topk.TopKResult` objects a local searcher does, so
the discovery facade (:meth:`repro.lake.discovery.JoinableTableSearch.
from_cluster`) and the ML enrichment layer run against a cluster
without code changes. The payload round-trip is exact (IEEE doubles
survive JSON), so remote results match local ones bit for bit.

Record mappings are the one thing a remote backend cannot provide —
they need the hit columns' raw vectors, which live on the workers.
``column_vectors`` raises accordingly.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.cluster.client import ClusterClient
from repro.core.engine import BatchResult
from repro.core.search import SearchResult
from repro.core.stats import SearchStats
from repro.core.topk import TopKResult
from repro.serve.schema import search_result_from_payload, topk_result_from_payload


class RemoteLakeSearcher:
    """The :class:`~repro.core.out_of_core.LakeSearcher` surface over HTTP.

    Args:
        url: the cluster coordinator's base URL. ``search`` / ``topk`` /
            ``add_column`` / ``delete_column`` are schema-identical on a
            single-node serving URL and work there too; ``has_column``
            (and :meth:`~repro.lake.discovery.JoinableTableSearch.
            from_cluster`, which introspects ``/cluster``) need a
            coordinator.
        timeout / retries: transport settings per request.
    """

    #: record mappings need local vectors; the discovery facade checks this
    supports_mappings = False

    def __init__(self, url: str, timeout: float = 60.0, retries: int = 2):
        self.client = ClusterClient(url, timeout=timeout, retries=retries)

    @property
    def is_partitioned(self) -> bool:
        return True

    @property
    def index(self):  # mirror LakeSearcher.index: no local single index
        return None

    @property
    def n_columns(self) -> int:
        return int(self.client.healthz()["n_columns"])

    # -- search --------------------------------------------------------------------

    def search(
        self,
        query_vectors: np.ndarray,
        tau: float,
        joinability: float | int,
        flags=None,
        max_workers: Optional[int] = None,
    ) -> SearchResult:
        """Threshold search via the coordinator (global column IDs).

        ``flags`` / ``max_workers`` are server-side configuration on a
        cluster; ablation flags are rejected rather than silently
        ignored.
        """
        if flags is not None:
            raise ValueError(
                "ablation flags are configured on the cluster "
                "workers, not per remote request"
            )
        payload = self.client.search(
            vectors=np.asarray(query_vectors, dtype=np.float64),
            tau=float(tau),
            joinability=joinability,
        )
        return search_result_from_payload(payload)

    def search_many(
        self,
        queries: Sequence[np.ndarray],
        tau: Union[float, Sequence[float]],
        joinability,
        flags=None,
        max_workers: Optional[int] = None,
    ) -> BatchResult:
        """Batch search as one request per query (no batch endpoint yet).

        The coordinator's scatter already parallelises each query across
        the workers; client-side batching would add little here.
        """
        n = len(queries)
        taus = [tau] * n if np.isscalar(tau) else list(tau)
        joins = (
            [joinability] * n
            if np.isscalar(joinability)
            else list(joinability)
        )
        results = [
            self.search(q, t, j, flags=flags)
            for q, t, j in zip(queries, taus, joins)
        ]
        return BatchResult(results=results, stats=SearchStats(), wall_seconds=0.0)

    def topk(
        self,
        query_vectors: np.ndarray,
        tau: float,
        k: int,
        max_workers: Optional[int] = None,
    ) -> TopKResult:
        payload = self.client.topk(
            vectors=np.asarray(query_vectors, dtype=np.float64),
            tau=float(tau),
            k=int(k),
        )
        return topk_result_from_payload(payload)

    def column_vectors(self, column_id: int) -> np.ndarray:
        raise NotImplementedError(
            "a remote cluster does not expose raw column vectors; run "
            "discovery with with_mappings=False"
        )

    # -- maintenance ---------------------------------------------------------------

    def add_column(
        self,
        vectors: np.ndarray,
        table: Optional[str] = None,
        column: Optional[str] = None,
    ) -> int:
        """Routed live add through the coordinator; returns the global ID."""
        reply = self.client.add_column(
            vectors=np.asarray(vectors, dtype=np.float64),
            table=table,
            column=column,
        )
        return int(reply["column_id"])

    def delete_column(self, column_id: int) -> None:
        from repro.serve.client import ServeError

        try:
            self.client.delete_column(int(column_id))
        except ServeError as exc:
            if exc.status == 404:
                raise KeyError(f"unknown column id {column_id}") from exc
            raise

    def has_column(self, column_id: int) -> bool:
        reply = self.client._request("GET", f"/columns/{int(column_id)}")
        return bool(reply["live"])
