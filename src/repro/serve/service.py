"""The resident query service: concurrency, caching and live maintenance.

:class:`QueryService` is the long-lived object a server (or an embedded
application) holds onto. It wraps a
:class:`~repro.core.out_of_core.LakeSearcher` — single in-memory index
or partitioned lake, whatever :func:`repro.core.persistence.load_any`
produced — and layers the online concerns on top:

* **consistency** — a writer-preferring :class:`RWLock`: any number of
  searches share the read side, ``add_column`` / ``delete_column`` take
  the write side, and a *generation* counter bumps on every mutation.
  Every response carries the generation it was served under, so a
  client can reason about which index state answered it.
* **micro-batching** — single-query ``search`` calls are coalesced by a
  :class:`~repro.serve.coalescer.MicroBatcher` into fused
  ``search_many`` dispatches (one shared pivot mapping and blocking
  pass), which is where the serving throughput comes from.
* **caching** — a generation-stamped LRU
  (:class:`~repro.serve.cache.ResultCache`); a mutation invalidates the
  whole cache by bumping the generation.
* **telemetry** — one service-wide
  :class:`~repro.core.stats.SearchStats` accumulating search work plus
  the serving counters (``cache_hits``, ``cache_misses``,
  ``coalesced_batch_sizes``) surfaced by the server's ``/metrics``.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.core.engine import validated_vectors
from repro.core.index import PexesoIndex
from repro.core.metric import EuclideanMetric
from repro.core.out_of_core import LakeSearcher, PartitionedPexeso
from repro.core.search import AblationFlags, SearchResult
from repro.core.stats import SearchStats, StageTimings
from repro.core.thresholds import resolve_tau
from repro.core.topk import TopKResult
from repro.obs.metrics import BoundedHistogram, MetricsRegistry
from repro.obs.trace import Tracer, default_tracer
from repro.serve.cache import ResultCache, query_cache_key
from repro.serve.coalescer import MicroBatcher, PendingRequest
from repro.serve.schema import METRIC_HELP, base_metrics_registry


class RWLock:
    """A writer-preferring reader-writer lock.

    Any number of readers may hold the lock together; a writer waits for
    them to drain and excludes everyone. Arriving readers queue behind a
    waiting writer so a steady search stream cannot starve maintenance.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    @contextmanager
    def read(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


@dataclass
class ServeResponse:
    """One served request: the result plus its serving provenance.

    ``generation`` is the index generation the result is valid for —
    the search ran entirely under a read lock held at that generation,
    or was replayed from a cache entry stamped with it.
    """

    result: Union[SearchResult, TopKResult]
    generation: int
    cached: bool


class QueryService:
    """Concurrent query service over one loaded lake.

    Args:
        backend: a :class:`~repro.core.out_of_core.LakeSearcher`, or a
            bare :class:`~repro.core.index.PexesoIndex` /
            :class:`~repro.core.out_of_core.PartitionedPexeso` (wrapped
            automatically — pass whatever
            :func:`~repro.core.persistence.load_any` returned).
        window_ms: micro-batching window. Requests arriving within this
            many milliseconds of a leader fuse into one engine dispatch;
            ``0`` coalesces opportunistically without sleeping; ``None``
            disables coalescing entirely (each request dispatches its
            own single-query batch — the serial baseline the serving
            benchmark compares against).
        max_batch: cap on requests per fused dispatch.
        cache_size: LRU capacity of the result cache; ``0`` disables.
        flags: ablation switches applied to every served search.
        max_workers: worker-pool width passed through to the searcher.
        tracer: the :class:`~repro.obs.trace.Tracer` service spans are
            recorded into; defaults to the process-wide tracer.
    """

    def __init__(
        self,
        backend: Union[LakeSearcher, PexesoIndex, PartitionedPexeso],
        window_ms: Optional[float] = 2.0,
        max_batch: int = 64,
        cache_size: int = 256,
        flags: Optional[AblationFlags] = None,
        max_workers: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ):
        if window_ms is not None and window_ms < 0:
            raise ValueError("window_ms must be non-negative (or None)")
        if isinstance(backend, LakeSearcher):
            # left untouched — the service records fused fan-in itself,
            # so a caller-shared searcher keeps its own configuration
            searcher = backend
        else:
            searcher = LakeSearcher(backend, flags=flags, max_workers=max_workers)
        self.searcher = searcher
        metric = searcher.backend.metric
        if metric is None:  # a PartitionedPexeso built with the default
            metric = EuclideanMetric()
        #: ``resolve_tau(tau, tau_fraction, dim)`` over the lake's metric
        self.resolve_tau = partial(resolve_tau, metric=metric)
        self.flags = flags
        self._rw = RWLock()
        self._generation = 0
        self.cache = ResultCache(cache_size)
        self._batcher: Optional[MicroBatcher] = None
        if window_ms is not None:
            # a weak callback: no service <-> batcher cycle, so a dropped
            # service (and its index) is freed at once, not at the next
            # cyclic collection
            execute = weakref.WeakMethod(self._execute_batch)
            self._batcher = MicroBatcher(
                lambda requests: execute()(requests),
                window_seconds=window_ms / 1000.0,
                max_batch=max_batch,
            )
        self.tracer = tracer if tracer is not None else default_tracer()
        self.stats = SearchStats()
        self._stats_lock = threading.Lock()
        self._requests_served = 0
        # per-stage wall-time distributions, one sample per dispatch —
        # the server's /metrics renders these as summaries
        self._stage_histograms: dict[str, BoundedHistogram] = {}

    #: retained fused-batch-size samples (lifetime totals stay exact —
    #: the histogram's count/total fields are unbounded)
    MAX_COALESCED_SAMPLES = 4096

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def from_directory(cls, directory: str | Path, **kwargs) -> "QueryService":
        """Serve a saved index directory (single or partitioned layout)."""
        from repro.core.persistence import load_any

        return cls(load_any(directory), **kwargs)

    # -- properties ----------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Current index generation (bumped by every mutation)."""
        return self._generation

    @property
    def n_columns(self) -> int:
        return self.searcher.n_columns

    @property
    def coalescing_enabled(self) -> bool:
        return self._batcher is not None

    # -- serving -------------------------------------------------------------------

    @staticmethod
    def _normalized_parts(
        parts: Optional[Sequence[int]],
    ) -> Optional[tuple[int, ...]]:
        if parts is None:
            return None
        normalized = tuple(sorted({int(p) for p in parts}))
        if not normalized:
            # An explicitly empty subset would dispatch over zero shards
            # and come back as a plausible-looking "no matches" — refuse
            # loudly instead (the HTTP servers map this to a 400).
            raise ValueError(
                "parts must name at least one partition (or be omitted "
                "to search the whole lake)"
            )
        return normalized

    def search(
        self,
        query: np.ndarray,
        tau: float,
        joinability: Union[float, int],
        parts: Optional[Sequence[int]] = None,
        trace=None,
    ) -> ServeResponse:
        """Serve one threshold search (coalesced and cached).

        The returned :class:`ServeResponse` stamps the generation the
        search executed under; a cached response replays the stored
        result only while its generation is still current.

        ``parts`` restricts the search to a partition subset (cluster
        scatter routing). Restricted requests dispatch directly — the
        micro-batcher fuses only whole-lake requests, because one engine
        pass answers one partition set.

        ``trace`` is an optional parent :class:`~repro.obs.trace.Span`
        (or :class:`~repro.obs.trace.TraceContext`): when given, the
        request records a ``service.search`` child span annotated with
        the cache outcome and the per-stage timing breakdown.
        """
        query = self._validated_query(query)
        parts = self._normalized_parts(parts)
        with self.tracer.span("service.search", parent=trace) as span:
            # joinability semantics depend on its Python type (int =
            # absolute count, float = fraction; 1 != 1.0 here although
            # they hash the same), so the type goes into the key
            # alongside the value.
            key = query_cache_key(
                "search", query, float(tau),
                type(joinability).__name__, joinability, parts,
            )
            entry = self.cache.get(key, self._generation)
            if entry is not None:
                self._count_cache(hit=True)
                span.annotate(cached=True, generation=entry.generation)
                return ServeResponse(
                    result=entry.value, generation=entry.generation, cached=True
                )
            self._count_cache(hit=False)
            if self._batcher is not None and parts is None:
                result, generation = self._batcher.submit(query, tau, joinability)
            else:
                result, generation = self._search_direct(
                    query, tau, joinability, parts
                )
            self.cache.put(key, result, generation)
            span.annotate(
                cached=False, generation=generation,
                stages=dict(result.stats.stage_seconds),
            )
            return ServeResponse(
                result=result, generation=generation, cached=False
            )

    def topk(
        self,
        query: np.ndarray,
        tau: float,
        k: int,
        parts: Optional[Sequence[int]] = None,
        trace=None,
    ) -> ServeResponse:
        """Serve one exact top-k request (cached, not coalesced).

        ``parts`` is the cluster scatter parameter: answer only these
        partitions. ``trace`` is the optional parent span, as in
        :meth:`search`.
        """
        query = self._validated_query(query)
        parts = self._normalized_parts(parts)
        with self.tracer.span("service.topk", parent=trace) as span:
            key = query_cache_key("topk", query, float(tau), int(k), parts)
            entry = self.cache.get(key, self._generation)
            if entry is not None:
                self._count_cache(hit=True)
                span.annotate(cached=True, generation=entry.generation)
                return ServeResponse(
                    result=entry.value, generation=entry.generation, cached=True
                )
            self._count_cache(hit=False)
            with self._rw.read():
                generation = self._generation
                result = self.searcher.topk(query, tau, k, parts=parts)
            self._merge_stats(result.stats)
            self.cache.put(key, result, generation)
            span.annotate(
                cached=False, generation=generation,
                stages=dict(result.stats.stage_seconds),
            )
            return ServeResponse(
                result=result, generation=generation, cached=False
            )

    # -- live maintenance ----------------------------------------------------------

    def add_column(
        self,
        vectors: np.ndarray,
        part: Optional[int] = None,
        column_id: Optional[int] = None,
    ) -> tuple[int, int]:
        """Append one column; returns ``(column_id, new generation)``.

        Takes the write lock: in-flight searches drain first, queued
        searches observe the new column and the bumped generation, and
        every cached result is invalidated by the bump. ``part`` /
        ``column_id`` are the cluster coordinator's explicit placement
        (partitioned backends only).
        """
        with self._rw.write():
            new_id = self.searcher.add_column(
                vectors, part=part, column_id=column_id
            )
            self._generation += 1
            return new_id, self._generation

    def delete_column(self, column_id: int) -> int:
        """Remove one column; returns the new generation.

        Raises:
            KeyError: when ``column_id`` is unknown or already deleted.
        """
        with self._rw.write():
            self.searcher.delete_column(column_id)
            self._generation += 1
            return self._generation

    def has_column(self, column_id: int) -> bool:
        return self.searcher.has_column(column_id)

    # -- telemetry -----------------------------------------------------------------

    def snapshot_stats(self) -> SearchStats:
        """A consistent copy of the service-wide counters."""
        with self._stats_lock:
            copy = SearchStats()
            copy.merge(self.stats)
            return copy

    def lru_info(self) -> Optional[dict[str, int]]:
        """Shard-residency telemetry (``None`` on a single-index backend).

        Surfaced by the server's ``/metrics`` as the ``shard_lru_*``
        gauges so spill behaviour is observable in production.
        """
        backend = self.searcher.backend
        if isinstance(backend, PartitionedPexeso):
            return backend.lru_info()
        return None

    def describe(self) -> dict[str, Any]:
        """Service state for ``/stats`` (JSON-safe)."""
        stats = self.snapshot_stats()
        batches, coalesced = self.coalescing_totals()
        batcher = self._batcher
        return {
            "generation": self._generation,
            "n_columns": self.searcher.n_columns,
            "partitioned": self.searcher.is_partitioned,
            "requests_served": self._requests_served,
            "cache": {
                "size": len(self.cache),
                "capacity": self.cache.capacity,
                "hits": stats.cache_hits,
                "misses": stats.cache_misses,
            },
            "coalescing": {
                "enabled": batcher is not None,
                "window_ms": (
                    batcher.window_seconds * 1000.0 if batcher is not None else None
                ),
                "max_batch": batcher.max_batch if batcher is not None else None,
                "batches": batches,
                "requests": coalesced,
            },
            "distance_computations": stats.distance_computations,
            "shard_lru": self.lru_info(),
        }

    def metrics_registry(self) -> MetricsRegistry:
        """The service's ``/metrics`` families (the server appends its
        admission gauges and renders)."""
        stats = self.snapshot_stats()
        batches, coalesced = self.coalescing_totals()
        extra = {
            "coalesced_batches": batches,
            "coalesced_requests": coalesced,
            "generation": self._generation,
            "columns": self.n_columns,
            "cache_size": len(self.cache),
        }
        lru = self.lru_info()
        if lru is not None:
            extra.update(
                resident_shards=lru["resident"],
                spilled_shards=lru["spilled"],
                shard_lru_size=lru["lru_size"],
                shard_lru_capacity=lru["lru_capacity"],
                shard_lru_hits=lru["lru_hits"],
                shard_lru_misses=lru["lru_misses"],
            )
        registry = base_metrics_registry(stats, extra)
        registry.summary(
            "batch_size", METRIC_HELP["batch_size"],
            source=stats.coalesced_batch_sizes,
        )
        for stage, hist in sorted(self.stage_histograms().items()):
            registry.summary(
                "stage_seconds", METRIC_HELP["stage_seconds"],
                source=hist, labels={"stage": stage},
            )
        return registry

    # -- internals -----------------------------------------------------------------

    def _validated_query(self, query: np.ndarray) -> np.ndarray:
        """Reject malformed queries before they can poison a fused batch."""
        index = self.searcher.index  # None over a partitioned lake
        return validated_vectors(query, index.dim if index is not None else None)

    def _count_cache(self, hit: bool) -> None:
        with self._stats_lock:
            self._requests_served += 1
            if hit:
                self.stats.cache_hits += 1
            else:
                self.stats.cache_misses += 1

    def _merge_stats(self, stats: SearchStats) -> None:
        with self._stats_lock:
            self.stats.merge(stats)
            # the merge replaces the histogram (field-wise +); re-apply
            # the service's retained-window bound (totals stay exact)
            self.stats.coalesced_batch_sizes.set_maxlen(
                self.MAX_COALESCED_SAMPLES
            )
            for stage, seconds in stats.stage_seconds.items():
                histogram = self._stage_histograms.get(stage)
                if histogram is None:
                    histogram = self._stage_histograms[stage] = BoundedHistogram()
                histogram.add(seconds)

    def coalescing_totals(self) -> tuple[int, int]:
        """Exact lifetime ``(fused batches, coalesced requests)`` totals
        (the histogram's unbounded counters, not the sample window)."""
        with self._stats_lock:
            sizes = self.stats.coalesced_batch_sizes
            return sizes.count, int(sizes.total)

    def stage_histograms(self) -> dict[str, BoundedHistogram]:
        """Per-stage wall-time distributions (one sample per dispatch),
        keyed by stage name — the ``/metrics`` summary source."""
        with self._stats_lock:
            return dict(self._stage_histograms)

    def _search_direct(
        self, query: np.ndarray, tau: float, joinability, parts=None
    ) -> tuple[SearchResult, int]:
        """Per-request dispatch (coalescing disabled): one-query batch."""
        with self._rw.read():
            generation = self._generation
            batch = self.searcher.search_many(
                [query], [tau], [joinability],
                flags=self.flags, parts=parts,
            )
        self._merge_stats(batch.stats)
        result = batch.results[0]
        # the dispatch-level breakdown is the request's breakdown (one
        # request, one dispatch); a copy avoids aliasing
        result.stats.stage_seconds = batch.stats.stage_seconds.copy()
        return result, generation

    def _execute_batch(self, requests: Sequence[PendingRequest]) -> None:
        """Fused dispatch for one coalesced batch (runs on the leader).

        The whole batch executes under one read-lock hold, so every
        request in it is answered by the same index generation.
        """
        dispatch_started = time.perf_counter()
        queries = [r.args[0] for r in requests]
        taus = [r.args[1] for r in requests]
        joins = [r.args[2] for r in requests]
        try:
            with self._rw.read():
                generation = self._generation
                batch = self.searcher.search_many(
                    queries, taus, joins,
                    flags=self.flags,
                )
        except Exception:
            # One malformed request (e.g. a dim mismatch on a partitioned
            # backend or a mistyped joinability, unverifiable up front)
            # must not fail its batch mates: re-dispatch each request
            # alone so errors stay local.
            # Exception, not BaseException: KeyboardInterrupt/SystemExit
            # must propagate and kill the dispatch, not be stored as one
            # request's error.
            for request in requests:
                try:
                    request.payload = self._search_direct(*request.args)
                except Exception as exc:
                    request.error = exc
            return
        if not self.searcher.record_batch_sizes:
            # the service owns fan-in telemetry unless the caller's own
            # searcher is already recording it (avoid double counting)
            batch.stats.coalesced_batch_sizes.append(len(requests))
        self._merge_stats(batch.stats)
        for request, result in zip(requests, batch.results):
            # a fused request's breakdown: the whole batch's stage costs
            # (it waited through them) plus its own time on the queue
            result.stats.stage_seconds = batch.stats.stage_seconds.copy()
            result.stats.stage_seconds.add(
                "queue_wait",
                max(0.0, dispatch_started - request.enqueued_at),
            )
            request.payload = (result, generation)
