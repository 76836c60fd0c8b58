"""One JSON schema for search results, shared by the server and the CLI.

The HTTP server's ``/search`` response and ``python -m repro.cli search
--json`` emit the *same* payload shape, so scripts, the
:class:`~repro.serve.client.ServeClient` and shell pipelines parse one
format:

.. code-block:: json

    {
      "tau": 0.31,
      "t_count": 12,
      "query_size": 20,
      "generation": 3,
      "cached": false,
      "hits": [
        {"column_id": 5, "table": "users", "column": "name",
         "match_count": 14, "joinability": 0.7, "exact_count": true}
      ]
    }

``table`` / ``column`` appear when a column catalog (the ``catalog.json``
written by ``repro.cli index``) is available; ``generation`` / ``cached``
appear when the result came through a :class:`~repro.serve.service.QueryService`.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from repro.core.search import JoinableColumn, SearchResult
from repro.core.stats import SearchStats
from repro.core.topk import TopKResult
from repro.obs.metrics import MetricsRegistry

#: a single node stamps one generation integer; a cluster response rolls
#: every worker's generation into a vector indexed by worker slot
Generation = Union[int, Sequence[int]]


def _ref(columns: Optional[Sequence[dict]], column_id: int) -> dict[str, Any]:
    if columns is None or not (0 <= column_id < len(columns)):
        return {}
    ref = columns[column_id]
    return {"table": ref["table"], "column": ref["column"]}


def label_column(
    columns: list, column_id: int, table: Optional[str], column: Optional[str]
) -> None:
    """Write a live-added column's catalog entry at its ``column_id`` slot.

    Positional, never an append: concurrent adds finish in any order and
    an append would shift every later label by one. Unlabelled slots
    below it are padded with ``"?"``. Callers serialise the call.
    """
    while len(columns) <= column_id:
        columns.append({"table": "?", "column": "?"})
    columns[column_id] = {
        "table": str(table) if table is not None else f"column_{column_id}",
        "column": str(column) if column is not None else "key",
    }


def _generation_value(generation: Generation) -> Union[int, list[int]]:
    if isinstance(generation, int):
        return generation
    return [int(g) for g in generation]


def search_payload(
    result: SearchResult,
    columns: Optional[Sequence[dict]] = None,
    generation: Optional[Generation] = None,
    cached: Optional[bool] = None,
    timings: Optional[dict] = None,
) -> dict[str, Any]:
    """The shared ``/search`` response for one threshold-search result.

    ``timings`` attaches the per-stage wall-time breakdown (``stage ->
    seconds``, see :class:`~repro.core.stats.StageTimings`); it defaults
    to the result's own ``stats.stage_seconds`` and is omitted when
    empty.
    """
    if timings is None:
        timings = dict(result.stats.stage_seconds)
    payload: dict[str, Any] = {
        "tau": float(result.tau),
        "t_count": int(result.t_count),
        "query_size": int(result.query_size),
        "hits": [
            {
                "column_id": int(hit.column_id),
                **_ref(columns, hit.column_id),
                "match_count": int(hit.match_count),
                "joinability": float(hit.joinability),
                "exact_count": bool(hit.exact_count),
            }
            for hit in result.joinable
        ],
    }
    if generation is not None:
        payload["generation"] = _generation_value(generation)
    if cached is not None:
        payload["cached"] = bool(cached)
    if timings:
        payload["timings"] = {
            stage: float(seconds) for stage, seconds in timings.items()
        }
    return payload


def topk_payload(
    result: TopKResult,
    columns: Optional[Sequence[dict]] = None,
    generation: Optional[Generation] = None,
    cached: Optional[bool] = None,
    timings: Optional[dict] = None,
) -> dict[str, Any]:
    """The shared ``/topk`` response (hits in rank order)."""
    if timings is None:
        timings = dict(result.stats.stage_seconds)
    payload: dict[str, Any] = {
        "tau": float(result.tau),
        "k": int(result.k),
        "hits": [
            {
                "column_id": int(cid),
                **_ref(columns, cid),
                "match_count": int(count),
                "joinability": float(joinability),
            }
            for cid, count, joinability in result.hits
        ],
    }
    if generation is not None:
        payload["generation"] = _generation_value(generation)
    if cached is not None:
        payload["cached"] = bool(cached)
    if timings:
        payload["timings"] = {
            stage: float(seconds) for stage, seconds in timings.items()
        }
    return payload


def search_result_from_payload(payload: dict) -> SearchResult:
    """The inverse of :func:`search_payload` (stats are not round-tripped).

    The cluster's remote shard seam rebuilds each worker's
    :class:`~repro.core.search.SearchResult` from its JSON reply so the
    exact shard merge (:func:`~repro.core.engine.merge_shard_batches`)
    runs on the same objects single-node search produces. JSON float
    round-trips are exact for IEEE doubles, so joinabilities survive
    bit for bit.
    """
    hits = [
        JoinableColumn(
            column_id=int(h["column_id"]),
            match_count=int(h["match_count"]),
            joinability=float(h["joinability"]),
            exact_count=bool(h.get("exact_count", True)),
        )
        for h in payload["hits"]
    ]
    return SearchResult(
        joinable=hits,
        stats=SearchStats(),
        tau=float(payload["tau"]),
        t_count=int(payload["t_count"]),
        query_size=int(payload["query_size"]),
    )


def topk_result_from_payload(payload: dict) -> TopKResult:
    """The inverse of :func:`topk_payload` (stats are not round-tripped)."""
    hits = [
        (int(h["column_id"]), int(h["match_count"]), float(h["joinability"]))
        for h in payload["hits"]
    ]
    return TopKResult(
        hits=hits,
        stats=SearchStats(),
        tau=float(payload["tau"]),
        k=int(payload["k"]),
    )


#: one-line help strings for the serving metric names (names predate the
#: registry — dashboards and tests parse them literally, so they stay)
METRIC_HELP = {
    "cache_hits": "Requests answered from the generation-stamped result cache.",
    "cache_misses": "Requests that ran a real search.",
    "coalesced_batches": "Fused micro-batch dispatches (lifetime).",
    "coalesced_requests": "Requests answered through fused dispatches (lifetime).",
    "distance_computations": "Exact metric distance evaluations during verification.",
    "candidate_pairs": "(query vector, leaf cell) candidate pairs from blocking.",
    "matching_pairs": "(query vector, leaf cell) pairs proven by Lemma 5/6.",
    "shard_load_seconds": "Seconds spent loading spilled partitions from disk.",
    "generation": "Current index generation (bumped by every mutation).",
    "columns": "Columns currently indexed.",
    "cache_size": "Result-cache entries currently resident.",
    "resident_shards": "Partitions resident in memory.",
    "spilled_shards": "Partitions spilled to disk.",
    "shard_lru_size": "Shards held by the LRU.",
    "shard_lru_capacity": "LRU shard capacity.",
    "shard_lru_hits": "LRU hits.",
    "shard_lru_misses": "LRU misses (loads from disk).",
    "admission_capacity": "Admission-controller concurrency capacity.",
    "admission_inflight": "Requests currently admitted and in flight.",
    "admission_shed": "Requests shed with 429 by admission control.",
    "deadline_rejects": "Requests rejected because their budget expired.",
    "stage_seconds": "Per-stage search wall time (one sample per dispatch).",
    "batch_size": "Requests fused per micro-batch dispatch.",
}


def base_metrics_registry(
    stats: SearchStats, extra: Optional[dict] = None
) -> "MetricsRegistry":
    """The serving counters as a typed registry (``pexeso_serve_`` prefix).

    The single exposition backing every ``/metrics`` endpoint: the base
    search/cache counters from ``stats`` plus ``extra`` service-level
    values — an ``extra`` entry sharing a base counter's name
    *overrides* it (the service reports exact lifetime coalescing
    totals this way). Values keep their Python type so ints render bare
    and floats render with a decimal point, exactly as the pre-registry
    exposition did. Callers add their own families (summaries, labelled
    gauges) to the returned registry before rendering.
    """
    values = {
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "coalesced_batches": len(stats.coalesced_batch_sizes),
        "coalesced_requests": stats.coalesced_requests,
        "distance_computations": stats.distance_computations,
        "candidate_pairs": stats.candidate_pairs,
        "matching_pairs": stats.matching_pairs,
        "shard_load_seconds": stats.shard_load_seconds,
    }
    values.update(extra or {})
    registry = MetricsRegistry(prefix="pexeso_serve_")
    counters = {
        "cache_hits", "cache_misses", "coalesced_batches",
        "coalesced_requests", "distance_computations", "candidate_pairs",
        "matching_pairs", "admission_shed", "deadline_rejects",
        "shard_lru_hits", "shard_lru_misses",
    }
    for name, value in values.items():
        help_text = METRIC_HELP.get(name, name)
        if name in counters:
            registry.counter(name, help_text, value)
        else:
            registry.gauge(name, help_text, value)
    return registry
