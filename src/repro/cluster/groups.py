"""The cluster's side of the partitioned lake's shard seam.

:class:`RemoteGroups` only translates: lake calls become worker
requests and worker payloads become the lake's per-shard results. The
transport is the coordinator's: a read, top-k included, is one
:meth:`~repro.cluster.coordinator.ClusterCoordinator.scatter` (routing,
failover, hedging, breakers, deadline), and a write is one
:meth:`~repro.cluster.coordinator.ClusterCoordinator.write_through` to
every live replica of the partition, logged on commit.
"""

from __future__ import annotations

import time
from functools import partial
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.cluster.resilience import Deadline
from repro.core.engine import BatchResult
from repro.core.stats import SearchStats
from repro.serve.client import ServeClient, ServeError
from repro.serve.schema import search_result_from_payload, topk_result_from_payload

if TYPE_CHECKING:
    from repro.cluster.coordinator import ClusterCoordinator

class RemoteGroups:
    """The shard seam (see :class:`~repro.core.shards.LocalShards`) over
    a cluster's workers for one request, whose unit is one routed worker
    slot answering a set of partitions; worker hits carry global IDs.

    After a read, ``answered`` holds every ``(slot, payload)`` reply;
    after a write, ``generations`` is the vector its acks name.
    """

    def __init__(
        self,
        coordinator: "ClusterCoordinator",
        deadline: Optional[Deadline] = None,
        trace=None,
    ):
        self.coordinator = coordinator
        self.deadline = deadline
        self.trace = trace
        self.answered: list[tuple[int, Any]] = []
        self.generations: Optional[list[int]] = None
        self._applied: Optional[tuple[tuple, list]] = None

    def _pieces(self, parts, request, piece) -> list[tuple]:
        """``piece(payload)`` for every reply to one scatter of ``request``."""
        started = time.perf_counter()
        replies = self.coordinator.scatter(parts, request, self.deadline, self.trace)
        self.answered.extend(replies)
        pieces = [piece(payload) for _, payload in replies]
        # the reply's timings are coordinator wall time only: worker
        # stages ran in parallel and their sum would exceed the request's
        # duration (each worker's own breakdown is in its span)
        pieces[0][0].stats.stage_seconds.add("scatter", time.perf_counter() - started)
        return pieces

    def search(self, parts, queries, tau, joinability) -> list[tuple]:
        (query,) = queries  # one query column per cluster request

        def piece(payload):
            result = search_result_from_payload(payload)
            batch = BatchResult(results=[result], stats=SearchStats(), wall_seconds=0.0)
            return batch, {hit.column_id: hit.column_id for hit in result.joinable}

        request = partial(
            ServeClient.search, vectors=query, tau=tau, joinability=joinability
        )
        return self._pieces(parts, request, piece)

    def topk(self, parts, query, tau, k) -> list[tuple]:
        def piece(payload):
            result = topk_result_from_payload(payload)
            return result, {cid: cid for cid, _, _ in result.hits}

        request = partial(ServeClient.topk, vectors=query, tau=tau, k=k)
        return self._pieces(parts, request, piece)

    def merging(self):
        return self.coordinator.tracer.span("coordinator.merge", parent=self.trace)

    # -- writes, under the coordinator's mutation lock ------------------------------

    def add(self, part: int, gid: int, vectors: np.ndarray) -> None:
        def adder(client):
            return client.add_column(vectors=vectors, partition=part, column_id=gid)

        self._applied = (
            (part, adder), self.coordinator.write_through(part, "add", adder)
        )

    def delete(self, part: int, local: int, gid: int) -> None:
        def deleter(client):
            try:
                return client.delete_column(gid)
            except ServeError as exc:
                if exc.status == 404:  # replica already tombstoned
                    return {"deleted": gid}
                raise

        self._applied = (
            (part, deleter), self.coordinator.write_through(part, "delete", deleter)
        )

    def commit(self, part: int) -> None:
        self.generations = self.coordinator.log_mutation(*self._applied)
