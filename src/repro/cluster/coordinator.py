"""The cluster coordinator: scatter-gather search with exact merging.

:class:`ClusterCoordinator` owns the shard map over one saved
partitioned lake and speaks to its workers through
:class:`~repro.serve.client.ServeClient`:

* **search** — one scatter per request: every partition is routed to
  exactly one live owner (primary, else first live replica), each
  worker answers a partition-restricted ``/search``, and the per-worker
  results merge through :func:`~repro.core.engine.merge_shard_batches`
  — the same exact merge single-node sharded search uses, so cluster
  results are bit-identical to a local
  :class:`~repro.core.out_of_core.LakeSearcher` over the union of the
  shards.
* **top-k** — worker groups run in waves; each wave prunes against the
  running global k-th-best count (a *strict* ``theta`` floor threaded
  into every worker's :func:`~repro.core.topk.pexeso_topk`), so ID
  tie-breaks survive and the merged ranking equals single-node top-k.
* **maintenance** — ``add_column`` picks the least-loaded partition
  cluster-wide, allocates the global column ID centrally, and writes
  through to *every* live replica of that partition; ``delete_column``
  tombstones on every live replica. A worker that missed writes while
  down is replayed from the coordinator's mutation log before it is
  promoted back to ``up``.
* **failover** — a worker that fails a scatter call (or a health check)
  is demoted and its partitions are re-routed to live replicas, within
  the same request.

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
from typing import Any, Optional, Sequence

import numpy as np

from repro.core.atomic import atomic_write_text
from repro.core.engine import BatchResult, merge_shard_batches, validated_vectors
from repro.core.persistence import load_partitioned
from repro.core.stats import SearchStats
from repro.core.thresholds import resolve_tau
from repro.core.topk import TopKResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, Tracer, default_tracer
from repro.serve.client import ServeClient, ServeError
from repro.serve.schema import label_column, search_result_from_payload
from repro.cluster.resilience import (
    BREAKER_CLOSED,
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

#: how many worker groups one top-k wave queries in parallel (the
#: cluster analogue of the shard engine's DEFAULT_SHARD_WORKERS)
DEFAULT_WAVE_WIDTH = 4


class ClusterCoordinator:
    """Routing, merging and metadata authority for one cluster.

    Args:
        lake_dir: a directory produced by
            :func:`~repro.core.persistence.save_partitioned`, opened
            lazily with :func:`~repro.core.persistence.load_partitioned`
            for its partitions, global column IDs, metric and
            dimensionality (``catalog.json``, when present, labels
            hits and enables ``"values"`` queries at the coordinator).
        n_workers: number of worker slots in the plan.
        replication: replicas per partition (clamped to ``n_workers``).
        wave_width: worker groups per top-k wave.
        retries: transport retry budget per worker call (see
            :class:`~repro.serve.client.ServeClient`); exhausting it
            demotes the worker and triggers failover.
        timeout: per-worker-call socket timeout in seconds.
        resilience: :class:`~repro.cluster.resilience.ResilienceConfig`
            tuning hedged reads, circuit breakers and default deadlines
            (``None`` = defaults: hedging on, breaker threshold 1).
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
        wave_width: int = DEFAULT_WAVE_WIDTH,
        retries: int = 1,
        timeout: float = 60.0,
        resilience: Optional[ResilienceConfig] = None,
        fault_injector=None,
        tracer: Optional[Tracer] = None,
        breaker_clock=time.monotonic,
    ):
        self.lake_dir = Path(lake_dir)
        # lazy: one JSON read, no shard is opened
        lake = load_partitioned(self.lake_dir)
        self.metric = lake.metric
        #: the embedding dimensionality, for tau_fraction resolution
        self.dim = lake.dim
        #: ``resolve_tau(tau, tau_fraction, dim)`` over the lake's metric
        self.resolve_tau = partial(resolve_tau, metric=self.metric)
        self.wave_width = max(1, int(wave_width))
        self.retries = int(retries)
        self.timeout = float(timeout)

        parts = [p for p, globals_ in enumerate(lake.partition_columns) if globals_]
        #: live global column id -> partition
        self._column_partition: dict[int, int] = {}
        self._deleted_ids: set[int] = set()
        for part, globals_ in enumerate(lake.partition_columns):
            for cid in globals_:
                if lake.has_column(cid):
                    self._column_partition[cid] = part
                elif cid >= 0:
                    self._deleted_ids.add(cid)
        next_gid = max(
            (c for g in lake.partition_columns for c in g), default=-1
        ) + 1

        self.columns: Optional[list[dict]] = None
        catalog_path = self.lake_dir / "catalog.json"
        self.catalog: Optional[dict] = None
        if catalog_path.exists():
            self.catalog = json.loads(catalog_path.read_text())
            self.columns = self.catalog.get("columns")

        # cluster.json: the shard map plus the mutation metadata the
        # coordinator owns (ids are allocated here, never on workers)
        self._cluster_path = self.lake_dir / CLUSTER_MANIFEST
        self._next_column_id = next_gid
        saved_map = None
        if self._cluster_path.exists():
            restored = json.loads(self._cluster_path.read_text())
            # ID allocation and tombstones are restored *unconditionally*
            # — they outlive any change of worker count or replication
            # (the "IDs never reused" guarantee must survive a resize)
            self._next_column_id = max(
                next_gid, int(restored.get("next_column_id", next_gid))
            )
            self._deleted_ids |= {
                int(c) for c in restored.get("deleted_column_ids", [])
            }
            # adds routed before the restart are not in the on-disk
            # partitioned.json; the saved column map keeps their routing
            # (and the least-loaded placement counts) right
            for gid, part in restored.get("column_partition", {}).items():
                if int(gid) not in self._deleted_ids:
                    self._column_partition[int(gid)] = int(part)
            for cid in self._deleted_ids:
                self._column_partition.pop(cid, None)
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
        #: ("add", part, gid, vectors as lists) | ("delete", part, gid)
        self._mutation_log: list[tuple] = []
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
                failure_threshold=cfg.breaker_failure_threshold,
                cooldown=cfg.breaker_cooldown,
                max_cooldown=cfg.breaker_max_cooldown,
                clock=breaker_clock,
            )
            for _ in range(self.shard_map.n_workers)
        ]
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
        return len(self._column_partition)

    @property
    def n_workers(self) -> int:
        return self.shard_map.n_workers

    def has_column(self, column_id: int) -> bool:
        """Whether a global column ID is live cluster-wide."""
        return int(column_id) in self._column_partition

    def column_partition(self, column_id: int) -> Optional[int]:
        """The partition holding a live column (``None`` when not live)."""
        return self._column_partition.get(int(column_id))

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
        for entry in pending:
            if entry[1] not in parts:
                continue
            if entry[0] == "add":
                _, part, gid, vectors = entry
                client.add_column(
                    vectors=np.asarray(vectors, dtype=np.float64),
                    partition=part, column_id=gid,
                )
            else:
                _, part, gid = entry
                try:
                    client.delete_column(gid)
                except ServeError as exc:
                    if exc.status != 404:  # already absent is fine
                        raise
            replayed += 1
        with self._mutation_lock:
            self._slot_log_pos[slot] = max(self._slot_log_pos[slot], target)
        return replayed

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

    def _demote(self, slot: int, force: bool = False) -> None:
        """Record one failure against a slot's breaker; demote when open.

        With the default ``failure_threshold=1`` this reproduces the old
        demote-on-first-failure behaviour exactly; a higher threshold
        absorbs transient faults (the failed partitions are re-routed
        per request via ``route(exclude=...)`` without marking the
        worker down). ``force`` trips the breaker outright — used for
        failed health probes and write-through rejections, where
        continuing to route to the worker is never right.
        """
        breaker = self._breakers[slot]
        if force:
            breaker.trip()
        else:
            breaker.record_failure()
        if breaker.state != BREAKER_CLOSED:
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
        except (ServeError, OSError, ClusterUnavailable):
            self._demote(slot, force=True)
            return False
        self._generations[slot] = int(reply.get("generation", 0))
        if worker.status == "down":
            try:
                self._replay_and_promote(
                    slot, set(worker.parts),
                    lambda: self.shard_map.mark_up(slot),
                )
            except (ServeError, OSError):
                self._demote(slot, force=True)
                return False
        else:
            self.shard_map.mark_up(slot)
        self._breakers[slot].record_success()
        return True

    def probe_half_open(self) -> list[int]:
        """Probe every down worker whose breaker grants a half-open probe.

        Each granted probe is a *full* recovery probe (health check,
        mutation-log replay, then promotion), run synchronously; a probe
        that fails re-opens the breaker with a doubled cooldown. The
        scatter path calls this asynchronously (see
        :meth:`_maybe_probe_async`), so a demoted worker is retried on
        the breaker's schedule without blocking any query; tests call it
        directly for deterministic flapping sequences. Returns the slots
        probed.
        """
        probed = []
        for worker in list(self.shard_map.workers):
            if worker.status != "down" or worker.url is None:
                continue
            if self._breakers[worker.slot].should_probe():
                probed.append(worker.slot)
                self._probe(worker.slot)
        return probed

    def _maybe_probe_async(self) -> None:
        """Launch background half-open probes for eligible down workers."""
        for worker in list(self.shard_map.workers):
            if worker.status != "down" or worker.url is None:
                continue
            if self._breakers[worker.slot].should_probe():
                threading.Thread(
                    target=self._probe, args=(worker.slot,),
                    name=f"half-open-probe-{worker.slot}", daemon=True,
                ).start()

    # -- scatter-gather ------------------------------------------------------------

    def _timed_call(
        self, slot: int, send_parts, call, deadline: Optional[Deadline],
        trace=NULL_SPAN,
    ) -> Any:
        """One worker call with breaker / latency / deadline bookkeeping.

        Success feeds the hedge-delay latency window (shared and
        per-slot) and resets a closed breaker's failure count (a demoted
        slot stays demoted until its probe); a transport failure
        records against the breaker (demoting the worker when it opens).
        A worker-side 504 means the propagated budget expired in flight
        — surfaced as :class:`DeadlineExceeded`, never as a liveness
        failure. So is a transport error that arrives once the deadline
        has passed: the budget-capped socket timeout fired, which says
        nothing about the worker's health. ``trace`` parents a
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
            try:
                payload = call(self._client(slot), send_parts, deadline_ms, span)
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
                self._demote(slot)
                raise
            elapsed = time.monotonic() - start
        self._latency.record(elapsed)
        self._slot_latency[slot].record(elapsed)
        self._breakers[slot].record_call_success()
        return payload

    def _hedge_delay(self) -> float:
        """How long to let the primary run before firing the hedge."""
        cfg = self.resilience
        delay = self._latency.quantile(cfg.hedge_quantile)
        return min(max(delay, cfg.hedge_delay_min), cfg.hedge_delay_max)

    def _hedged_call(
        self,
        slot: int,
        parts: list[int],
        send_parts,
        call,
        deadline: Optional[Deadline],
        trace=NULL_SPAN,
    ) -> tuple[int, Any]:
        """One group call, hedged to a replica when the primary is slow.

        The hedge candidate is a live replica hosting *all* of the
        group's partitions (same parts + same query = bit-identical
        payload, so racing the two is free of correctness risk). The
        primary runs first; if no answer lands within the tracked hedge
        delay, the duplicate fires and the first success wins — losers
        are abandoned to their daemon threads, with their breaker /
        latency bookkeeping still applied by :meth:`_timed_call`.
        Returns ``(answering slot, payload)``.
        """
        hedge_slot = None
        cfg = self.resilience
        if cfg.hedge and self.shard_map.replication > 1:
            hedge_slot = self.shard_map.live_common_owner(parts, exclude=(slot,))
        if hedge_slot is None:
            return slot, self._timed_call(
                slot, send_parts, call, deadline, trace=trace
            )

        cond = threading.Condition()
        outcomes: list[tuple[int, Any, Optional[BaseException]]] = []

        def run(target: int) -> None:
            try:
                payload = self._timed_call(
                    target, send_parts, call, deadline, trace=trace
                )
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
            cond.wait_for(lambda: outcomes, timeout=self._hedge_delay())
            arrived = bool(outcomes)
        if arrived:
            target, payload, error = outcomes[0]
            if error is None:
                return target, payload
            # the primary failed *fast* — let the ordinary failover
            # re-route machinery handle it instead of burning a hedge
            raise error
        with self._stats_lock:
            self._hedges_fired += 1
        trace.annotate(hedge_fired=True, hedge_slot=hedge_slot)
        threading.Thread(
            target=run, args=(hedge_slot,), name=f"hedge-{hedge_slot}",
            daemon=True,
        ).start()
        seen = 0
        failures: list[tuple[int, BaseException]] = []
        while True:
            with cond:
                timeout = deadline.remaining() if deadline is not None else None
                if not cond.wait_for(lambda: len(outcomes) > seen, timeout=timeout):
                    raise DeadlineExceeded(
                        "deadline exceeded waiting for hedged answers"
                    )
                target, payload, error = outcomes[seen]
                seen += 1
            if error is None:
                if target == hedge_slot:
                    with self._stats_lock:
                        self._hedges_won += 1
                    trace.annotate(hedge_won=True)
                return target, payload
            failures.append((target, error))
            if len(failures) == 2:
                # both branches failed: surface the primary's error so
                # the re-route path charges the right slot
                for failed_slot, failed_error in failures:
                    if failed_slot == slot:
                        raise failed_error
                raise failures[0][1]  # pragma: no cover - defensive

    def _call_group(
        self,
        slot: int,
        parts: list[int],
        call,
        deadline: Optional[Deadline] = None,
        trace=NULL_SPAN,
    ) -> tuple[int, Any]:
        """One (possibly hedged) group call with failover bookkeeping.

        Returns ``(answering slot, payload)`` — the answering slot may
        be the hedge replica, and the generation stamp must name *it*.
        """
        worker = self.shard_map.worker(slot)
        # a worker answering its *entire* assignment needs no partition
        # restriction — the unrestricted path keeps the worker's
        # micro-batcher eligible to fuse concurrent scatters
        restricted = sorted(parts) != sorted(worker.parts)
        send_parts = parts if restricted else None
        with self.tracer.span("scatter.slot", parent=trace) as span:
            span.annotate(
                slot=slot, parts=list(parts), restricted=restricted,
                breaker=self._breakers[slot].state,
            )
            try:
                answered, payload = self._hedged_call(
                    slot, parts, send_parts, call, deadline, trace=span
                )
            except (DeadlineExceeded, ServeError):
                raise
            except (OSError, ClusterUnavailable) as exc:
                # _timed_call already recorded the breaker failure/demotion
                with self._stats_lock:
                    self._slot_failovers[slot] += 1
                span.annotate(failover=True)
                raise _WorkerDown(slot, parts) from exc
            span.annotate(answered_by=answered)
        generation = payload.get("generation")
        if isinstance(generation, int):
            self._generations[answered] = generation
        return answered, payload

    def _scatter(
        self,
        parts: Optional[Sequence[int]],
        call,
        deadline: Optional[Deadline] = None,
        trace=NULL_SPAN,
    ) -> list[tuple[int, Any]]:
        """Fan one request out over the routed workers, failing over.

        ``call(client, parts_or_none, deadline_ms)`` runs per group on a
        thread pool. Groups that fail with a transport error are
        re-routed to live replicas and retried until they succeed or
        some partition has no live owner left; slots that failed are
        excluded from the re-route even when their breaker kept them
        ``up``. Returns ``(slot, payload)`` pairs so callers can stamp
        each answer with the exact generation it executed at.
        """
        self._maybe_probe_async()
        plan = self.shard_map.route(parts)
        payloads: list[tuple[int, Any]] = []
        excluded: set[int] = set()
        for _attempt in range(self.shard_map.n_workers + 1):
            if deadline is not None:
                deadline.check("scatter wave")
            groups = sorted(plan.items())
            if len(groups) == 1:
                outcomes = [self._try_group(groups[0], call, deadline, trace)]
            else:
                with ThreadPoolExecutor(max_workers=len(groups)) as pool:
                    outcomes = list(
                        pool.map(
                            lambda g: self._try_group(g, call, deadline, trace),
                            groups,
                        )
                    )
            failed_parts: list[int] = []
            for outcome in outcomes:
                if isinstance(outcome, _WorkerDown):
                    failed_parts.extend(outcome.parts)
                    excluded.add(outcome.slot)
                else:
                    payloads.append(outcome)
            if not failed_parts:
                return payloads
            with self._stats_lock:
                self._failovers += 1
            # re-route only the failed partitions, never back to a slot
            # that failed this request
            plan = self.shard_map.route(failed_parts, exclude=excluded)
        raise ClusterUnavailable("scatter retries exhausted")  # pragma: no cover

    def _try_group(
        self,
        group: tuple[int, list[int]],
        call,
        deadline: Optional[Deadline] = None,
        trace=NULL_SPAN,
    ):
        slot, parts = group
        try:
            return self._call_group(slot, parts, call, deadline, trace=trace)
        except _WorkerDown as exc:
            return exc

    # -- serving -------------------------------------------------------------------

    def _effective_deadline(
        self, deadline: Optional[Deadline]
    ) -> Optional[Deadline]:
        if deadline is not None:
            return deadline
        default_ms = self.resilience.default_deadline_ms
        return Deadline.from_ms(default_ms) if default_ms is not None else None

    def _count_deadline_violation(self) -> None:
        with self._stats_lock:
            self._deadline_violations += 1

    def search(
        self,
        vectors: np.ndarray,
        tau: float,
        joinability: float | int,
        deadline: Optional[Deadline] = None,
        trace=None,
    ) -> tuple[Any, list[int]]:
        """Scatter one threshold search; returns ``(merged result, generations)``.

        The merged :class:`~repro.core.search.SearchResult` is
        bit-identical to a single-node
        :class:`~repro.core.out_of_core.LakeSearcher` over the same lake
        (each partition is answered exactly once; worker hits carry
        global column IDs; the merge re-sorts by ID exactly as the
        sharded engine does).

        ``deadline`` is this request's remaining latency budget; the
        remaining time is re-measured and propagated to every worker
        call, and :class:`DeadlineExceeded` is raised (and counted) the
        moment the budget cannot be met.

        ``trace`` parents the scatter/merge spans; per-slot child spans
        carry the hedge/failover/breaker decisions and their contexts
        travel to the workers.
        """
        with self._stats_lock:
            self._requests_served += 1
        vectors = self._validated_vectors(vectors).tolist()
        deadline = self._effective_deadline(deadline)

        def call(client: ServeClient, parts, deadline_ms, trace=None):
            return client.search(
                vectors=vectors, tau=tau, joinability=joinability, parts=parts,
                deadline_ms=deadline_ms, trace=trace,
            )

        scatter_started = time.perf_counter()
        try:
            with self.tracer.span("coordinator.scatter", parent=trace) as span:
                outcomes = self._scatter(None, call, deadline, trace=span)
                span.annotate(n_groups=len(outcomes))
        except DeadlineExceeded:
            self._count_deadline_violation()
            raise
        scatter_seconds = time.perf_counter() - scatter_started
        # the response names the generations its answers actually
        # executed at — taken from the payloads themselves, so a
        # concurrent mutation finishing after the gather cannot inflate
        # the vector past the state that produced these hits
        generations = self._stamp(outcomes)
        merge_started = time.perf_counter()
        batches = [
            BatchResult(
                results=[search_result_from_payload(payload)],
                stats=SearchStats(),
                wall_seconds=0.0,
            )
            for _slot, payload in outcomes
        ]
        # hits already carry global IDs: an unbounded identity map keeps
        # the exact-merge code path shared (sizing it from _next_column_id
        # would race with a concurrent add whose write-through landed
        # before the counter moved)
        identity = _IdentityMap()
        with self.tracer.span("coordinator.merge", parent=trace):
            merged = merge_shard_batches(batches, [identity] * len(batches))
        result = merged.results[0]
        # the response's timings are coordinator wall time only: worker
        # stages ran in parallel and their sum would exceed this
        # request's duration (each worker's own breakdown is in its span)
        result.stats.stage_seconds.add("scatter", scatter_seconds)
        result.stats.stage_seconds.add(
            "merge", time.perf_counter() - merge_started
        )
        return result, generations

    def _stamp(self, outcomes: Sequence[tuple[int, Any]]) -> list[int]:
        """A generation vector anchored to the given worker payloads.

        Slots that answered this request report the generation from
        their own reply; uninvolved slots fall back to the last known
        value (they contributed no hits, so any value is consistent).
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
        """Wave-parallel exact top-k across the cluster.

        Routed worker groups run in waves of ``wave_width``; each wave
        receives the running global k-th-best count as its ``theta``
        floor. The floor is strict, so the merged ranking — count
        descending, column ID ascending — equals single-node top-k.
        ``deadline`` bounds the whole request: the remaining budget is
        re-checked before every wave and propagated into each worker
        call, so a late wave fails fast instead of running anyway.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        with self._stats_lock:
            self._requests_served += 1
        vectors = self._validated_vectors(vectors).tolist()
        deadline = self._effective_deadline(deadline)
        plan = self.shard_map.route(None)
        groups = sorted(plan.items())
        best: list[tuple[int, int, float]] = []
        theta = 0
        tau_out = float(tau)
        stamped: list[tuple[int, Any]] = []
        scatter_started = time.perf_counter()
        for at in range(0, len(groups), self.wave_width):
            wave = dict(groups[at : at + self.wave_width])
            floor = theta

            def call(client: ServeClient, parts, deadline_ms, trace=None,
                     _floor=floor):
                return client.topk(
                    vectors=vectors, tau=tau, k=k, parts=parts, theta=_floor,
                    deadline_ms=deadline_ms, trace=trace,
                )

            try:
                with self.tracer.span(
                    "coordinator.scatter", parent=trace
                ) as span:
                    span.annotate(wave=at // self.wave_width, theta=floor)
                    outcomes = self._scatter(
                        [p for parts in wave.values() for p in parts],
                        call, deadline, trace=span,
                    )
            except DeadlineExceeded:
                self._count_deadline_violation()
                raise
            stamped.extend(outcomes)
            for _slot, payload in outcomes:
                tau_out = float(payload["tau"])
                best.extend(
                    (int(h["column_id"]), int(h["match_count"]),
                     float(h["joinability"]))
                    for h in payload["hits"]
                )
            best.sort(key=lambda row: (-row[1], row[0]))
            del best[k:]
            if len(best) == k:
                theta = max(theta, best[-1][1])
        result = TopKResult(
            hits=best, stats=SearchStats(), tau=tau_out,
            k=min(k, self.n_columns),
        )
        result.stats.stage_seconds.add(
            "scatter", time.perf_counter() - scatter_started
        )
        return result, self._stamp(stamped)

    # -- routed live maintenance ---------------------------------------------------

    def add_column(
        self,
        vectors: np.ndarray,
        table: Optional[str] = None,
        column: Optional[str] = None,
    ) -> tuple[int, list[int]]:
        """Add one column cluster-wide; returns ``(column id, generations)``.

        Placement is least-loaded across the whole cluster (the
        partition with the fewest live columns, ties to the lowest id);
        the coordinator allocates the global ID and writes the identical
        ``(partition, id, vectors)`` through to **every** live replica
        of that partition. Replicas that are down are brought level by
        the mutation-log replay before they rejoin.

        Raises:
            ClusterUnavailable: when no replica of the chosen partition
                accepted the write (nothing was recorded; the ID is not
                burned).
        """
        vectors = self._validated_vectors(vectors)
        with self._mutation_lock:
            loads: dict[int, int] = {p: 0 for p in self.shard_map.parts}
            for part in self._column_partition.values():
                loads[part] += 1
            part = min(self.shard_map.parts, key=lambda p: (loads[p], p))
            gid = self._next_column_id
            applied = self._write_through(
                part,
                lambda client: client.add_column(
                    vectors=vectors, partition=part, column_id=gid
                ),
            )
            if not applied:
                raise ClusterUnavailable(
                    f"no live replica of partition {part} accepted the add"
                )
            self._next_column_id = gid + 1
            self._column_partition[gid] = part
            # The log retains full vectors so any worker (re)joining from
            # the fit-time saved lake can be brought level; it is never
            # compacted, because a future registrant always replays from
            # position zero. A very long-lived coordinator bounds this by
            # re-saving the lake and restarting the cluster.
            self._mutation_log.append(("add", part, gid, vectors.tolist()))
            generations = self._ack_generations(applied)
            if self.columns is not None:
                label_column(self.columns, gid, table, column)
        self._save()
        return gid, generations

    def delete_column(self, column_id: int) -> list[int]:
        """Tombstone one column on every live replica; returns generations.

        Raises:
            KeyError: when the ID is unknown or already deleted.
            ClusterUnavailable: when no replica accepted the delete.
        """
        gid = int(column_id)
        with self._mutation_lock:
            part = self._column_partition.get(gid)
            if part is None:
                raise KeyError(f"unknown column id {gid}")

            def deleter(client: ServeClient):
                try:
                    return client.delete_column(gid)
                except ServeError as exc:
                    if exc.status == 404:  # replica already tombstoned
                        return {"deleted": gid}
                    raise

            applied = self._write_through(part, deleter)
            if not applied:
                raise ClusterUnavailable(
                    f"no live replica of partition {part} accepted the delete"
                )
            del self._column_partition[gid]
            self._deleted_ids.add(gid)
            self._mutation_log.append(("delete", part, gid))
            generations = self._ack_generations(applied)
        self._save()
        return generations

    def _write_through(self, part: int, call) -> list[tuple[int, Optional[int]]]:
        """Apply one mutation to every live owner of ``part``.

        Owners that fail at the transport level are demoted (the replay
        log squares them up later); returns ``(slot, acked generation)``
        for the owners that applied it.
        """
        live = [
            slot for slot in self.shard_map.owners[part]
            if self.shard_map.worker(slot).status == "up"
        ]

        def attempt(slot: int):
            try:
                return slot, call(self._client(slot))
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
                self._demote(slot, force=True)
                continue
            generation = reply.get("generation")
            if isinstance(generation, int):
                self._generations[slot] = generation
                applied.append((slot, generation))
            else:
                applied.append((slot, None))
        return applied

    def _ack_generations(
        self, applied: Sequence[tuple[int, Optional[int]]]
    ) -> list[int]:
        """Confirm a just-logged mutation for its ack'ing slots and build
        the response's generation vector from their acks (the vector
        must name the states the write actually landed in)."""
        generations = self.generation_vector()
        for slot, generation in applied:
            self._slot_log_pos[slot] = len(self._mutation_log)
            if generation is not None:
                generations[slot] = generation
        return generations

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
                "breaker_failure_threshold": cfg.breaker_failure_threshold,
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
            "next_column_id": self._next_column_id,
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
                    (self._failovers, "Scatter waves that re-routed work."),
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

    def wait_serviceable(self, timeout: float = 30.0, poll: float = 0.05) -> bool:
        """Block until every partition has a live worker (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.shard_map.is_serviceable():
                return True
            time.sleep(poll)
        return self.shard_map.is_serviceable()

    def _save(self) -> None:
        """Persist the shard map + mutation metadata as ``cluster.json``.

        The vectors in the mutation log are deliberately *not* persisted
        (they are unbounded); after a coordinator restart, workers must
        reload from a freshly saved lake. ID allocation and tombstones
        do survive, so routing and ID uniqueness are never compromised.
        """
        state = {
            "shard_map": self.shard_map.to_dict(),
            "next_column_id": self._next_column_id,
            "deleted_column_ids": sorted(self._deleted_ids),
            "column_partition": {
                str(gid): part for gid, part in self._column_partition.items()
            },
        }
        with self._save_lock:
            atomic_write_text(self._cluster_path, json.dumps(state, indent=2))


class _IdentityMap:
    """``map[column_id] == column_id`` for any ID (worker hits are
    already global, so the shard merge needs no translation)."""

    def __getitem__(self, column_id: int) -> int:
        return column_id


class _WorkerDown(Exception):
    """Internal scatter signal: this group's worker died mid-call."""

    def __init__(self, slot: int, parts: list[int]):
        super().__init__(f"worker {slot} down")
        self.slot = slot
        self.parts = parts
