"""The cluster coordinator: membership, resilience and the worker transport.

:class:`ClusterCoordinator` owns the shard map over one saved
partitioned lake and speaks to its workers through
:class:`~repro.serve.client.ServeClient`. The merge is the saved lake's
own: the coordinator runs a metadata-only
:class:`~repro.core.out_of_core.PartitionedPexeso` over
:class:`~repro.cluster.groups.RemoteGroups`, which only translates
between the lake's shard seam and worker payloads. Every worker call
goes through this module, beside the per-slot state it reads: clients,
breakers, health epochs and latency windows.

* **search** — :meth:`ClusterCoordinator.scatter` routes every
  partition to exactly one live owner (primary, else first live
  replica) and makes one hedged call per routed worker, so the lake's
  exact merge is bit-identical to a local
  :class:`~repro.core.out_of_core.LakeSearcher`.
* **top-k** — one scatter too: every routed worker returns the top-k
  of its partitions and the lake merges them once by count, then
  global ID, so the ranking equals single-node top-k.
* **maintenance** — the lake places the column and allocates its ID;
  :meth:`ClusterCoordinator.write_through` sends the write to *every*
  live replica. A worker that missed writes while down is replayed from
  the coordinator's mutation log before it is promoted back to ``up``.
* **failover** — the first transport failure of a scatter call (or a
  failed health check) opens the worker's breaker and demotes it; its
  partitions are re-routed to live replicas within the same request.

Every response stamps a **cluster generation vector** — the last known
per-worker service generation, indexed by worker slot — rolling the
single-node generation contract up to the cluster: a response is valid
for the per-worker index states it names.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.atomic import atomic_write_text
from repro.core.engine import validated_vectors
from repro.core.persistence import load_partitioned
from repro.core.thresholds import resolve_tau
from repro.core.topk import TopKResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, Tracer, default_tracer
from repro.serve.client import ServeClient, ServeError
from repro.serve.schema import label_column
from repro.cluster.groups import RemoteGroups
from repro.cluster.resilience import (
    BREAKER_CLOSED,
    HEDGE_DELAY_MIN,
    HEDGE_QUANTILE,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    LatencyTracker,
    ResilienceConfig,
)
from repro.cluster.shard_map import (
    CLUSTER_MANIFEST,
    ClusterUnavailable,
    ShardMap,
)


class ClusterCoordinator:
    """Membership, resilience and metadata authority for one cluster.

    Args:
        lake_dir: a directory produced by
            :func:`~repro.core.persistence.save_partitioned`, opened
            lazily with :func:`~repro.core.persistence.load_partitioned`
            for its partitions, global column IDs, metric and
            dimensionality (``catalog.json``, when present, labels
            hits and enables ``"values"`` queries at the coordinator).
        n_workers: number of worker slots in the plan.
        replication: replicas per partition (clamped to ``n_workers``).
        retries: transport retry budget per worker call (see
            :class:`~repro.serve.client.ServeClient`); exhausting it
            demotes the worker and triggers failover.
        timeout: per-worker-call socket timeout in seconds.
        resilience: :class:`~repro.cluster.resilience.ResilienceConfig`
            tuning hedged reads, circuit breakers and default deadlines
            (``None`` = defaults: hedging on).
        fault_injector: optional
            :class:`~repro.serve.faults.FaultInjector` applied to every
            worker client this coordinator creates (scope rules to one
            worker with ``target=<its url>``).
        tracer: the :class:`~repro.obs.trace.Tracer` scatter spans are
            recorded into (defaults to the process-wide tracer).
        breaker_clock: the ``clock`` of every slot's
            :class:`~repro.cluster.resilience.CircuitBreaker` — a test
            seam for stepping cooldowns without sleeping.
    """

    def __init__(
        self,
        lake_dir: str | Path,
        n_workers: int,
        replication: int = 1,
        retries: int = 1,
        timeout: float = 60.0,
        resilience: Optional[ResilienceConfig] = None,
        fault_injector=None,
        tracer: Optional[Tracer] = None,
        breaker_clock=time.monotonic,
    ):
        self.lake_dir = Path(lake_dir)
        #: the saved lake's metadata — lazy, one JSON read, no shard is
        #: opened; the shards themselves live on the workers
        self.lake = load_partitioned(self.lake_dir)
        self.metric = self.lake.metric
        #: the embedding dimensionality, for tau_fraction resolution
        self.dim = self.lake.dim
        #: ``resolve_tau(tau, tau_fraction, dim)`` over the lake's metric
        self.resolve_tau = partial(resolve_tau, metric=self.metric)
        self.retries = int(retries)
        self.timeout = float(timeout)
        parts = [p for p, columns in enumerate(self.lake.partition_columns) if columns]

        self.columns: Optional[list[dict]] = None
        catalog_path = self.lake_dir / "catalog.json"
        self.catalog: Optional[dict] = None
        if catalog_path.exists():
            self.catalog = json.loads(catalog_path.read_text())
            self.columns = self.catalog.get("columns")

        # cluster.json: the shard map plus the lake's column bookkeeping
        # since it was saved (ids are allocated here, never on workers)
        self._cluster_path = self.lake_dir / CLUSTER_MANIFEST
        saved_map = None
        if self._cluster_path.exists():
            restored = json.loads(self._cluster_path.read_text())
            # restored *unconditionally*: IDs, tombstones and routing
            # outlive any change of worker count or replication (the
            # "IDs never reused" guarantee must survive a resize)
            self.lake.adopt_column_state(restored)
            saved_map = ShardMap.from_dict(restored["shard_map"])
            if not (
                saved_map.n_workers == int(n_workers)
                and saved_map.replication == min(int(replication), int(n_workers))
                and saved_map.parts == parts
            ):
                saved_map = None  # replan the topology, keep the metadata
        self.shard_map = (
            saved_map
            if saved_map is not None
            else ShardMap(parts, n_workers, replication)
        )

        self._clients: dict[int, ServeClient] = {}
        self._clients_lock = threading.Lock()
        #: last known per-worker service generation, indexed by slot
        self._generations = [0] * self.shard_map.n_workers
        #: mutation log for replaying missed writes to returning workers:
        #: (partition, apply) pairs, ``apply(client)`` re-sending one
        #: idempotent write-through (see :meth:`write_through`)
        self._mutation_log: list[tuple[int, Callable]] = []
        #: log position each slot has confirmed (applied or registered at)
        self._slot_log_pos = [0] * self.shard_map.n_workers
        self._mutation_lock = threading.Lock()
        self._save_lock = threading.Lock()
        # resilience: per-slot breakers, a shared latency window for the
        # hedge delay, and the fault plane handed to every worker client
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        cfg = self.resilience
        self._breakers = [
            CircuitBreaker(
                cooldown=cfg.breaker_cooldown,
                max_cooldown=cfg.breaker_max_cooldown,
                clock=breaker_clock,
            )
            for _ in range(self.shard_map.n_workers)
        ]
        #: per-slot health epoch, bumped by every successful probe: a call
        #: that started before the slot's last promotion (a hedge loser)
        #: cannot demote it afterwards
        self._health_epochs = [0] * self.shard_map.n_workers
        self._latency = LatencyTracker(default=cfg.hedge_default_delay)
        #: per-slot latency windows, feeding the slot-labelled summaries
        #: on /metrics (the shared tracker above keeps the hedge delay)
        self._slot_latency = [
            LatencyTracker(default=cfg.hedge_default_delay)
            for _ in range(self.shard_map.n_workers)
        ]
        self.fault_injector = fault_injector
        self.tracer = tracer if tracer is not None else default_tracer()
        # telemetry
        self._requests_served = 0
        self._failovers = 0
        self._slot_failovers = [0] * self.shard_map.n_workers
        self._hedges_fired = 0
        self._hedges_won = 0
        self._deadline_violations = 0
        self._stats_lock = threading.Lock()
        self._save()

    # -- properties ----------------------------------------------------------------

    @property
    def n_columns(self) -> int:
        return self.lake.n_columns

    def has_column(self, column_id: int) -> bool:
        """Whether a global column ID is live cluster-wide."""
        return self.lake.has_column(int(column_id))

    def column_partition(self, column_id: int) -> Optional[int]:
        """The partition holding a live column (``None`` when not live)."""
        return self.lake.column_partition(column_id)

    def generation_vector(self) -> list[int]:
        """Last known per-worker generations, indexed by worker slot."""
        return list(self._generations)

    def _validated_vectors(self, vectors) -> np.ndarray:
        """Reject malformed inputs before they reach any worker.

        Coordinator-side validation matters for mutations especially: a
        request every replica would reject must fail *here* — rejections
        seen during write-through are read as replica divergence and
        demote the worker.
        """
        return validated_vectors(vectors, self.dim, "vector column")

    # -- worker lifecycle ----------------------------------------------------------

    def register_worker(self, url: Optional[str] = None) -> dict[str, Any]:
        """Claim a slot for a joining worker; returns its assignment.

        The worker loads exactly ``parts`` from the shared lake
        directory, then reports :meth:`worker_ready` with its serving
        URL.
        """
        worker = self.shard_map.register(url)
        # a fresh (or re-loading) worker starts from the on-disk lake:
        # every logged mutation for its shards must be replayed
        with self._mutation_lock:
            self._slot_log_pos[worker.slot] = 0
        self._save()
        return {
            "slot": worker.slot,
            "parts": list(worker.parts),
            "replication": self.shard_map.replication,
            "n_workers": self.shard_map.n_workers,
        }

    def worker_ready(self, slot: int, url: str) -> dict[str, Any]:
        """Promote a loaded worker to ``up`` (after replaying missed writes)."""
        worker = self.shard_map.worker(slot)
        if worker.status == "empty":
            raise KeyError(f"worker slot {slot} was never registered")
        with self._clients_lock:
            self._clients[slot] = ServeClient(
                url, timeout=self.timeout, retries=self.retries,
                fault_injector=self.fault_injector,
            )
        replayed = self._replay_and_promote(
            slot, set(worker.parts),
            lambda: self.shard_map.mark_ready(slot, url),
        )
        self._probe(slot)
        self._save()
        return {"ok": True, "slot": slot, "replayed": replayed}

    def _replay_and_promote(self, slot: int, parts: set[int], promote) -> int:
        """Bring a slot level with the mutation log, then promote it.

        The replay itself runs without the mutation lock (it makes HTTP
        calls), so a mutation can land between the log snapshot and the
        promotion — write-through skips non-``up`` workers, and a replay
        that promoted on its stale snapshot would silently drop that
        write. Hence the loop: promotion happens *under* the mutation
        lock, and only once the slot's confirmed position equals the log
        length at that instant.
        """
        replayed = 0
        while True:
            replayed += self._replay_missed(slot, parts)
            with self._mutation_lock:
                if self._slot_log_pos[slot] >= len(self._mutation_log):
                    promote()
                    return replayed

    def _replay_missed(self, slot: int, parts: set[int]) -> int:
        """Re-apply logged mutations this slot has not confirmed yet."""
        client = self._client(slot)
        replayed = 0
        with self._mutation_lock:
            pending = self._mutation_log[self._slot_log_pos[slot]:]
            target = len(self._mutation_log)
        for part, apply in pending:
            if part in parts:
                apply(client)
                replayed += 1
        with self._mutation_lock:
            self._slot_log_pos[slot] = max(self._slot_log_pos[slot], target)
        return replayed

    def write_through(
        self, part: int, what: str, apply: Callable
    ) -> list[tuple[int, Optional[int]]]:
        """Run ``apply(client)`` on every live owner of ``part``.

        Callers hold the mutation lock. Returns ``(slot, generation or
        None)`` for every owner that applied the write. Owners that fail
        are demoted; the idempotent ``apply`` is replayed to them from
        the mutation log (see :meth:`log_mutation`) before they rejoin.

        Raises:
            ClusterUnavailable: when no live owner applied it.
        """
        live = [
            slot for slot in self.shard_map.owners[part]
            if self.shard_map.worker(slot).status == "up"
        ]

        def attempt(slot: int):
            try:
                return slot, apply(self._client(slot))
            except (ServeError, OSError, ClusterUnavailable):
                # A ServeError means the worker answered but rejected the
                # write. The request itself was validated here, so a
                # rejection means *this replica's* state diverged (or it
                # failed internally) — demote it rather than abort: an
                # abort after another replica applied would leave a
                # phantom column the coordinator never recorded. The
                # recovery replay retries the mutation; a replica that
                # keeps rejecting it stays down for an operator to inspect.
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
                self._demote(slot)
                continue
            generation = reply.get("generation")
            applied.append((slot, generation if isinstance(generation, int) else None))
        if not applied:
            raise ClusterUnavailable(
                f"no live replica of partition {part} accepted the {what}"
            )
        return applied

    def log_mutation(
        self, entry: tuple[int, Callable], applied: Sequence[tuple[int, Optional[int]]]
    ) -> list[int]:
        """Log one written-through mutation (under the mutation lock) for
        the slots that applied it; returns the generations it landed in.

        Logged writes keep their full vectors so any worker (re)joining
        from the fit-time saved lake can be brought level; the log is
        never compacted, because a future registrant always replays from
        position zero. A very long-lived coordinator bounds this by
        re-saving the lake and restarting the cluster.
        """
        self._mutation_log.append(entry)
        generations = self.generation_vector()
        for slot, generation in applied:
            self._slot_log_pos[slot] = len(self._mutation_log)
            if generation is not None:
                self._generations[slot] = generations[slot] = generation
        return generations

    def _client(self, slot: int) -> ServeClient:
        with self._clients_lock:
            client = self._clients.get(slot)
        if client is None:
            url = self.shard_map.worker(slot).url
            if url is None:
                raise ClusterUnavailable(f"worker slot {slot} has no URL yet")
            client = ServeClient(
                url, timeout=self.timeout, retries=self.retries,
                fault_injector=self.fault_injector,
            )
            with self._clients_lock:
                self._clients[slot] = client
        return client

    def _demote(self, slot: int) -> None:
        """Open a slot's breaker and mark it down.

        The first transport failure of a call, a failed health probe and
        a rejected write-through all demote: the slot's partitions are
        routed to live replicas until a half-open probe re-promotes it.
        """
        self._breakers[slot].record_failure()
        self.shard_map.mark_down(slot)

    def health_check(self) -> list[str]:
        """Probe every claimed worker; demote the dead, revive the recovered.

        A ``down`` worker that answers again is replayed any mutations it
        missed *before* being promoted, so recovery never serves stale
        shards. Returns the post-probe status list.
        """
        for worker in list(self.shard_map.workers):
            if worker.status in ("up", "down") and worker.url is not None:
                self._probe(worker.slot)
        return self.shard_map.statuses()

    def _probe(self, slot: int) -> bool:
        worker = self.shard_map.worker(slot)
        try:
            reply = self._client(slot).healthz()
            self._generations[slot] = int(reply.get("generation", 0))
            if worker.status == "down":
                self._replay_and_promote(
                    slot, set(worker.parts),
                    lambda: self.shard_map.mark_up(slot),
                )
            else:
                self.shard_map.mark_up(slot)
        except (ServeError, OSError, ClusterUnavailable):
            self._demote(slot)
            return False
        self._breakers[slot].record_success()
        with self._stats_lock:
            self._health_epochs[slot] += 1
        return True

    def _due_probes(self) -> list[int]:
        """Down slots whose breaker grants a half-open probe right now
        (each grant moves that breaker to ``half-open``)."""
        return [
            worker.slot for worker in list(self.shard_map.workers)
            if worker.status == "down" and worker.url is not None
            and self._breakers[worker.slot].should_probe()
        ]

    def probe_half_open(self) -> list[int]:
        """Probe every down worker whose breaker grants a half-open probe.

        Each granted probe is a *full* recovery probe (health check,
        mutation-log replay, then promotion), run synchronously; a probe
        that fails re-opens the breaker with a doubled cooldown. The
        scatter loop launches the same probes on background threads, so
        a demoted worker is retried on the breaker's schedule without
        blocking any query; tests call this directly for deterministic
        flapping sequences. Returns the slots probed.
        """
        probed = self._due_probes()
        for slot in probed:
            self._probe(slot)
        return probed

    # -- the transport: one scatter loop -------------------------------------------

    def scatter(
        self,
        parts: Optional[Sequence[int]],
        request: Callable[..., dict],
        deadline: Optional[Deadline] = None,
        trace=None,
    ) -> list[tuple[int, dict]]:
        """Fan one read out over the routed workers, failing over.

        ``request(client, parts=, deadline_ms=, trace=)`` is one worker
        read, such as ``partial(ServeClient.search, vectors=..., ...)``;
        ``parts`` is ``None`` for a worker that answers its whole
        assignment. Each routed group is one hedged call (see
        :meth:`_hedged_call`) in its own ``scatter.slot`` span, run on a
        thread pool. Groups that fail with a transport error are
        re-routed to live replicas until they succeed or some partition
        has no live owner left; slots that failed are excluded from the
        re-route even when they are still ``up``. A
        :class:`DeadlineExceeded` is counted as a deadline violation.
        Returns ``(answering slot, payload)`` pairs so callers can stamp
        each answer with the exact generation it executed at.
        """
        try:
            with self.tracer.span("coordinator.scatter", parent=trace) as span:
                for slot in self._due_probes():
                    threading.Thread(
                        target=self._probe, args=(slot,),
                        name=f"half-open-probe-{slot}", daemon=True,
                    ).start()

                def run(group: tuple[int, list[int]]) -> Optional[tuple[int, dict]]:
                    slot, group_parts = group
                    with self.tracer.span("scatter.slot", parent=span) as slot_span:
                        slot_span.annotate(
                            slot=slot, parts=list(group_parts),
                            restricted=self._restriction(slot, group_parts) is not None,
                            breaker=self._breakers[slot].state,
                        )
                        try:
                            answered, payload = self._hedged_call(
                                slot, group_parts, request, deadline, slot_span
                            )
                        except (OSError, ClusterUnavailable):
                            # _timed_call already demoted the slot, or left
                            # it to its probe
                            with self._stats_lock:
                                self._slot_failovers[slot] += 1
                            slot_span.annotate(failover=True)
                            return None
                        slot_span.annotate(answered_by=answered)
                    generation = payload.get("generation")
                    if isinstance(generation, int):
                        self._generations[answered] = generation
                    return answered, payload

                plan = self.shard_map.route(parts)
                replies: list[tuple[int, dict]] = []
                failed: set[int] = set()
                while True:
                    if deadline is not None:
                        deadline.check("scatter round")
                    groups = sorted(plan.items())
                    if len(groups) == 1:
                        outcomes = [run(groups[0])]
                    else:
                        with ThreadPoolExecutor(max_workers=len(groups)) as pool:
                            outcomes = list(pool.map(run, groups))
                    lost: list[int] = []
                    for (slot, group_parts), outcome in zip(groups, outcomes):
                        if outcome is None:  # the worker died mid-call
                            lost.extend(group_parts)
                            failed.add(slot)
                        else:
                            replies.append(outcome)
                    if not lost:
                        break
                    with self._stats_lock:
                        self._failovers += 1
                    # re-route only the lost partitions, never back to a
                    # slot that failed this request; each round fails at
                    # least one more slot, so route() runs out of owners
                    # (ClusterUnavailable) before this loop can spin
                    plan = self.shard_map.route(lost, exclude=failed)
                span.annotate(n_groups=len(replies))
        except DeadlineExceeded:
            with self._stats_lock:
                self._deadline_violations += 1
            raise
        return replies

    def _restriction(self, slot: int, parts: list[int]) -> Optional[list[int]]:
        """The ``parts`` to send ``slot`` for the group ``parts``: ``None``
        when they are its whole assignment. A worker answering all it
        hosts needs no restriction, and the unrestricted path keeps its
        micro-batcher eligible to fuse concurrent scatters."""
        if sorted(parts) == sorted(self.shard_map.worker(slot).parts):
            return None
        return list(parts)

    def _hedged_call(
        self,
        slot: int,
        parts: list[int],
        request: Callable[..., dict],
        deadline: Optional[Deadline],
        trace,
    ) -> tuple[int, dict]:
        """One group call, hedged to a replica when the primary is slow.

        The hedge candidate is a live replica hosting *all* of the
        group's partitions. Each target is sent the group restricted to
        its own assignment (:meth:`_restriction`), so a replica hosting
        more partitions answers only the group's: same parts + same
        query = bit-identical payload, so racing the two is free of
        correctness risk. The primary runs first; if no answer lands
        within the tracked hedge delay, the duplicate fires and the first
        success wins — losers are abandoned to their daemon threads, with
        their breaker / latency bookkeeping still applied by
        :meth:`_timed_call` (a loser failing after the slot's next
        successful probe leaves its health alone).
        Returns ``(answering slot, payload)``.
        """
        hedge_slot = None
        if self.resilience.hedge and self.shard_map.replication > 1:
            hedge_slot = self.shard_map.live_common_owner(parts, exclude=(slot,))
        if hedge_slot is None:
            call = partial(request, parts=self._restriction(slot, parts))
            return slot, self._timed_call(slot, call, deadline, trace)

        cond = threading.Condition()
        outcomes: list[tuple[int, Any, Optional[BaseException]]] = []

        def run(target: int) -> None:
            try:
                call = partial(request, parts=self._restriction(target, parts))
                payload = self._timed_call(target, call, deadline, trace)
                outcome = (target, payload, None)
            except BaseException as exc:  # delivered through `outcomes`
                outcome = (target, None, exc)
            with cond:
                outcomes.append(outcome)
                cond.notify_all()

        threading.Thread(
            target=run, args=(slot,), name=f"scatter-{slot}", daemon=True
        ).start()
        with cond:
            if cond.wait_for(lambda: outcomes, timeout=self._hedge_delay()):
                target, payload, error = outcomes[0]
                if error is not None:
                    # the primary failed *fast* — let the ordinary failover
                    # re-route machinery handle it instead of burning a hedge
                    raise error
                return target, payload
        with self._stats_lock:
            self._hedges_fired += 1
        trace.annotate(hedge_fired=True, hedge_slot=hedge_slot)
        threading.Thread(
            target=run, args=(hedge_slot,), name=f"hedge-{hedge_slot}",
            daemon=True,
        ).start()
        errors: dict[int, BaseException] = {}
        while True:
            with cond:
                timeout = deadline.remaining() if deadline is not None else None
                if not cond.wait_for(
                    lambda: len(outcomes) > len(errors), timeout=timeout
                ):
                    raise DeadlineExceeded(
                        "deadline exceeded waiting for hedged answers"
                    )
                target, payload, error = outcomes[len(errors)]
            if error is None:
                if target == hedge_slot:
                    with self._stats_lock:
                        self._hedges_won += 1
                    trace.annotate(hedge_won=True)
                return target, payload
            errors[target] = error
            if len(errors) == 2:
                # both branches failed: surface the primary's error so
                # the re-route path charges the right slot
                raise errors[slot]

    def _hedge_delay(self) -> float:
        """How long to let the primary run before firing the hedge: the
        shared window's p95, clamped to [10 ms, ``hedge_delay_max``]."""
        delay = self._latency.quantile(HEDGE_QUANTILE)
        return min(max(delay, HEDGE_DELAY_MIN), self.resilience.hedge_delay_max)

    def _timed_call(
        self, slot: int, call, deadline: Optional[Deadline], trace=NULL_SPAN
    ) -> dict:
        """One worker call, ``call(client, deadline_ms=, trace=)``, with
        breaker / latency / deadline bookkeeping.

        Success feeds the hedge-delay latency window (shared and
        per-slot); it never closes a breaker, so a slot demoted while
        the call was in flight stays demoted until its probe. A
        transport failure demotes the slot. A worker-side 504 means the
        propagated budget expired in flight — surfaced as
        :class:`DeadlineExceeded`, never as a liveness failure. So is a
        transport error that arrives once the deadline has passed: the
        budget-capped socket timeout fired, which says nothing about the
        worker's health. Nor does a failure of a call that started
        before the slot's last successful probe (a hedge loser arriving
        late): it feeds the latency windows only. ``trace`` parents a
        per-attempt ``worker.call`` span whose context travels to the
        worker on the wire.
        """
        if deadline is not None:
            deadline.check(f"call to worker {slot}")
        deadline_ms = deadline.remaining_ms() if deadline is not None else None
        with self.tracer.span("worker.call", parent=trace) as span:
            span.annotate(
                slot=slot, breaker=self._breakers[slot].state,
                deadline_remaining_ms=deadline_ms,
            )
            start = time.monotonic()
            epoch = self._health_epochs[slot]
            try:
                payload = call(self._client(slot), deadline_ms=deadline_ms, trace=span)
            except ServeError as exc:
                if exc.status == 504:
                    raise DeadlineExceeded(
                        f"worker {slot} rejected expired work"
                    ) from exc
                raise  # the worker answered; not a liveness failure
            except (OSError, ClusterUnavailable) as exc:
                if deadline is not None and deadline.expired():
                    raise DeadlineExceeded(
                        f"budget ran out during the call to worker {slot}"
                    ) from exc
                if epoch == self._health_epochs[slot]:
                    self._demote(slot)
                else:
                    self._record_latency(slot, time.monotonic() - start)
                raise
            elapsed = time.monotonic() - start
        self._record_latency(slot, elapsed)
        return payload

    def _record_latency(self, slot: int, seconds: float) -> None:
        self._latency.record(seconds)
        self._slot_latency[slot].record(seconds)

    # -- serving -------------------------------------------------------------------

    def _read(self, deadline: Optional[Deadline], trace) -> RemoteGroups:
        """Count one read request; its shard seam, under the request's
        deadline or else the configured default."""
        with self._stats_lock:
            self._requests_served += 1
        default_ms = self.resilience.default_deadline_ms
        if deadline is None and default_ms is not None:
            deadline = Deadline.from_ms(default_ms)
        return RemoteGroups(self, deadline, trace)

    def search(
        self,
        vectors: np.ndarray,
        tau: float,
        joinability: float | int,
        deadline: Optional[Deadline] = None,
        trace=None,
    ) -> tuple[Any, list[int]]:
        """Scatter one threshold search; returns ``(merged result, generations)``.

        The lake's search over :class:`~repro.cluster.groups.RemoteGroups`
        answers each partition exactly once, so the exact merge is
        bit-identical to a single-node
        :class:`~repro.core.out_of_core.LakeSearcher`. ``deadline`` is
        the request's remaining budget, propagated to every worker call;
        :class:`DeadlineExceeded` is raised (and counted) the moment it
        cannot be met. ``trace`` parents the scatter/merge spans, whose
        per-slot children record hedges, failovers and breaker states.
        """
        groups = self._read(deadline, trace)
        result = self.lake.search(
            self._validated_vectors(vectors), tau, joinability, shards=groups
        )
        return result, self._stamp(groups.answered)

    def _stamp(self, outcomes: Sequence[tuple[int, Any]]) -> list[int]:
        """A generation vector anchored to the given worker payloads.

        The response names the generations its answers actually executed
        at — taken from the payloads themselves, so a concurrent mutation
        finishing after the gather cannot inflate the vector past the
        state that produced these hits. Uninvolved slots fall back to
        the last known value (they contributed no hits, so any value is
        consistent).
        """
        generations = self.generation_vector()
        for slot, payload in outcomes:
            reported = payload.get("generation")
            if isinstance(reported, int):
                generations[slot] = reported
        return generations

    def topk(
        self,
        vectors: np.ndarray,
        tau: float,
        k: int,
        deadline: Optional[Deadline] = None,
        trace=None,
    ) -> tuple[TopKResult, list[int]]:
        """Exact top-k across the cluster in one scatter.

        The lake's top-k over :class:`~repro.cluster.groups.RemoteGroups`:
        every routed worker returns the top-k of its partitions and the
        one merge keeps the k best, so the ranking equals single-node
        top-k. ``deadline`` bounds the whole request and is propagated
        into each worker call, as in :meth:`search`.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        groups = self._read(deadline, trace)
        result = self.lake.topk(self._validated_vectors(vectors), tau, k, shards=groups)
        return result, self._stamp(groups.answered)

    # -- routed live maintenance ---------------------------------------------------

    def add_column(
        self,
        vectors: np.ndarray,
        table: Optional[str] = None,
        column: Optional[str] = None,
    ) -> tuple[int, list[int]]:
        """Add one column cluster-wide; returns ``(column id, generations)``.

        The lake places it in the least-loaded partition and allocates
        its global ID; :meth:`write_through` sends the identical
        ``(partition, id, vectors)`` to **every** live replica of that
        partition. Replicas that are down are
        brought level by the mutation-log replay before they rejoin.

        Raises:
            ClusterUnavailable: when no replica of the chosen partition
                accepted the write (nothing was recorded; the ID is not
                burned).
        """
        vectors = self._validated_vectors(vectors)
        with self._mutation_lock:
            groups = RemoteGroups(self)
            gid = self.lake.add_column(vectors, shards=groups)
            if self.columns is not None:
                label_column(self.columns, gid, table, column)
        self._save()
        return gid, groups.generations

    def delete_column(self, column_id: int) -> list[int]:
        """Tombstone one column on every live replica; returns generations.

        Raises:
            KeyError: when the ID is unknown or already deleted.
            ClusterUnavailable: when no replica accepted the delete.
        """
        with self._mutation_lock:
            groups = RemoteGroups(self)
            self.lake.delete_column(int(column_id), shards=groups)
        self._save()
        return groups.generations

    # -- telemetry and persistence -------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Cluster state for ``/stats`` and ``/cluster`` (JSON-safe)."""
        cfg = self.resilience
        with self._stats_lock:
            requests = self._requests_served
            failovers = self._failovers
            resilience = {
                "hedge": cfg.hedge,
                "hedge_delay": self._hedge_delay(),
                "hedges_fired": self._hedges_fired,
                "hedges_won": self._hedges_won,
                "deadline_violations": self._deadline_violations,
                "default_deadline_ms": cfg.default_deadline_ms,
                "breakers": [b.state for b in self._breakers],
                "worker_failovers": list(self._slot_failovers),
            }
        return {
            "resilience": resilience,
            "n_workers": self.shard_map.n_workers,
            "replication": self.shard_map.replication,
            "metric": self.metric.name,
            "dim": self.dim,
            "parts": list(self.shard_map.parts),
            "workers": [w.to_dict() for w in self.shard_map.workers],
            "serviceable": self.shard_map.is_serviceable(),
            "n_columns": self.n_columns,
            "next_column_id": self.lake.next_column_id,
            "generation": self.generation_vector(),
            "requests_served": requests,
            "failovers": failovers,
            "mutation_log": len(self._mutation_log),
            "columns": self.columns,
        }

    def metrics_registry(self) -> MetricsRegistry:
        """The coordinator's ``/metrics`` families (the server appends its
        admission gauges and renders).

        Built on :class:`~repro.obs.metrics.MetricsRegistry` (the metric
        names predate the registry and stay byte-identical; the registry
        adds ``# HELP`` / ``# TYPE`` headers and label escaping). Besides
        the aggregate counters this names every worker slot: up/down
        status, per-slot failover counts, breaker state, and a per-slot
        call-latency summary (p50/p95/p99 + ``_sum``/``_count``), so a
        scrape sees *which* worker flapped or slowed, not just that one
        did.
        """
        statuses = self.shard_map.statuses()
        with self._stats_lock:
            counters = {
                "cluster_requests":
                    (self._requests_served, "Search/top-k requests served."),
                "cluster_failovers":
                    (self._failovers, "Scatter rounds that re-routed work."),
                "cluster_hedges_fired":
                    (self._hedges_fired, "Hedged duplicate calls fired."),
                "cluster_hedges_won":
                    (self._hedges_won, "Hedged calls answered by the replica."),
                "cluster_deadline_violations":
                    (self._deadline_violations,
                     "Requests that blew their latency budget."),
            }
            gauges = {
                "cluster_workers_up":
                    (statuses.count("up"), "Worker slots currently up."),
                "cluster_workers_down":
                    (statuses.count("down"), "Worker slots currently down."),
                "cluster_columns":
                    (self.n_columns, "Live columns cluster-wide."),
                "cluster_serviceable":
                    (int(self.shard_map.is_serviceable()),
                     "Whether every partition has a live owner."),
                "cluster_mutation_log":
                    (len(self._mutation_log), "Mutation-log length."),
            }
            slot_failovers = list(self._slot_failovers)
        registry = MetricsRegistry(prefix="pexeso_serve_")
        for name, (value, help_text) in counters.items():
            registry.counter(name, help_text, value)
        for name, (value, help_text) in gauges.items():
            registry.gauge(name, help_text, value)
        for slot, status in enumerate(statuses):
            labels = {"slot": slot}
            registry.gauge(
                "cluster_worker_up", "Whether this worker slot is up.",
                int(status == "up"), labels=labels,
            )
            registry.counter(
                "cluster_worker_failovers",
                "Failovers charged to this worker slot.",
                slot_failovers[slot], labels=labels,
            )
            registry.gauge(
                "cluster_breaker_open",
                "Whether this slot's circuit breaker is open/half-open.",
                int(self._breakers[slot].state != BREAKER_CLOSED),
                labels=labels,
            )
            tracker = self._slot_latency[slot]
            if tracker.count:
                registry.summary(
                    "cluster_slot_latency_seconds",
                    "Per-slot worker call latency (bounded window).",
                    source=tracker, labels=labels,
                )
        return registry

    def metrics_text(self) -> str:
        """Prometheus exposition of :meth:`metrics_registry` alone."""
        return self.metrics_registry().render()

    def _save(self) -> None:
        """Persist the shard map + mutation metadata as ``cluster.json``.

        The vectors in the mutation log are deliberately *not* persisted
        (they are unbounded); after a coordinator restart, workers must
        reload from a freshly saved lake. ID allocation and tombstones
        do survive, so routing and ID uniqueness are never compromised.
        """
        with self._save_lock:
            # the snapshot is taken under the mutation lock so it never
            # reads the lake's column maps halfway through a mutation
            with self._mutation_lock:
                state = {"shard_map": self.shard_map.to_dict()}
                state.update(self.lake.column_state())
            atomic_write_text(self._cluster_path, json.dumps(state, indent=2))
