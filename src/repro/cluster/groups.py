"""The cluster's side of the partitioned lake's shard seam.

Reads, top-k included, are one scatter each through the coordinator
(routing, failover, hedging, breakers, deadline): one HTTP call per
routed worker. Writes go to every live replica of the partition and
into the mutation log.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.cluster.resilience import Deadline, DeadlineExceeded
from repro.cluster.shard_map import ClusterUnavailable
from repro.core.engine import BatchResult
from repro.core.stats import SearchStats
from repro.serve.client import ServeError
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

    def _gather(self, parts, request, piece) -> list[tuple]:
        """One scatter of ``request(client, parts=, deadline_ms=, trace=)``
        over ``parts``; each reply becomes ``piece(payload)``."""
        coordinator = self.coordinator
        started = time.perf_counter()

        def call(client, send_parts, deadline_ms, trace=None):
            return request(client, parts=send_parts, deadline_ms=deadline_ms,
                           trace=trace)

        try:
            with coordinator.tracer.span("coordinator.scatter", parent=self.trace) as span:
                outcomes = coordinator._scatter(parts, call, self.deadline, trace=span)
                span.annotate(n_groups=len(outcomes))
        except DeadlineExceeded:
            coordinator._count_deadline_violation()
            raise
        self.answered.extend(outcomes)
        pieces = [piece(payload) for _, payload in outcomes]
        # the reply's timings are coordinator wall time only: worker
        # stages ran in parallel and their sum would exceed the request's
        # duration (each worker's own breakdown is in its span)
        pieces[0][0].stats.stage_seconds.add("scatter", time.perf_counter() - started)
        return pieces

    def search(self, parts, queries, tau, joinability) -> list[tuple]:
        (query,) = queries  # one query column per cluster request
        vectors = np.asarray(query).tolist()

        def piece(payload):
            result = search_result_from_payload(payload)
            batch = BatchResult(results=[result], stats=SearchStats(), wall_seconds=0.0)
            return batch, {hit.column_id: hit.column_id for hit in result.joinable}

        return self._gather(parts, lambda client, **kw: client.search(
            vectors=vectors, tau=tau, joinability=joinability, **kw
        ), piece)

    def topk(self, parts, query, tau, k) -> list[tuple]:
        vectors = query.tolist()

        def piece(payload):
            result = topk_result_from_payload(payload)
            return result, {cid: cid for cid, _, _ in result.hits}

        return self._gather(parts, lambda client, **kw: client.topk(
            vectors=vectors, tau=tau, k=k, **kw
        ), piece)

    def merging(self):
        return self.coordinator.tracer.span("coordinator.merge", parent=self.trace)

    # -- writes, under the coordinator's mutation lock ------------------------------

    def add(self, part: int, gid: int, vectors: np.ndarray) -> None:
        def adder(client):
            return client.add_column(vectors=vectors, partition=part, column_id=gid)

        self._write_through(part, "add", adder)

    def delete(self, part: int, local: int, gid: int) -> None:
        def deleter(client):
            try:
                return client.delete_column(gid)
            except ServeError as exc:
                if exc.status == 404:  # replica already tombstoned
                    return {"deleted": gid}
                raise

        self._write_through(part, "delete", deleter)

    def commit(self, part: int) -> None:
        self.generations = self.coordinator._log_mutation(*self._applied)

    def _write_through(self, part: int, what: str, apply) -> None:
        """Run ``apply(client)`` on every live owner of ``part``; raise
        :class:`ClusterUnavailable` when none applied it. Owners that
        fail are demoted; the idempotent ``apply`` is replayed to them
        from the mutation log before they rejoin."""
        coordinator = self.coordinator
        live = [
            slot for slot in coordinator.shard_map.owners[part]
            if coordinator.shard_map.worker(slot).status == "up"
        ]

        def attempt(slot: int):
            try:
                return slot, apply(coordinator._client(slot))
            except ServeError:
                # The worker answered but rejected the write. The request
                # itself was validated at the coordinator, so a rejection
                # means *this replica's* state diverged (or it failed
                # internally) — demote it rather than abort: an abort
                # after another replica applied would leave a phantom
                # column the coordinator never recorded. The recovery
                # replay retries the mutation; a replica that keeps
                # rejecting it stays down for an operator to inspect.
                return slot, None
            except (OSError, ClusterUnavailable):
                return slot, None

        # Replicas are written in parallel (the mutation lock is held
        # around the whole fan-out, so ordering is unchanged): summed
        # sequential round trips would let one black-holed replica stall
        # every mutation and worker promotion behind the lock for the
        # full timeout × replication budget.
        if len(live) <= 1:
            outcomes = [attempt(slot) for slot in live]
        else:
            with ThreadPoolExecutor(max_workers=len(live)) as pool:
                outcomes = list(pool.map(attempt, live))

        applied: list[tuple[int, Optional[int]]] = []
        for slot, reply in outcomes:
            if reply is None:
                coordinator._demote(slot, force=True)
                continue
            generation = reply.get("generation")
            applied.append((slot, generation if isinstance(generation, int) else None))
        if not applied:
            raise ClusterUnavailable(
                f"no live replica of partition {part} accepted the {what}"
            )
        self._applied = ((part, apply), applied)
