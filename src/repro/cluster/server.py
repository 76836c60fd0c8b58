"""The coordinator's route table over the shared HTTP front door.

The coordinator is served by the same
:class:`~repro.serve.server.ServeHTTPServer` and request handler as a
serving node (:mod:`repro.serve.server` describes the gate sequence);
this module only registers :data:`COORDINATOR_ROUTES` over a
:class:`~repro.cluster.coordinator.ClusterCoordinator`. It speaks the
*same* JSON schema, so :class:`~repro.serve.client.ServeClient` and
``search --json`` consumers work unchanged — the only schema difference
is that ``generation`` is a per-worker vector instead of one integer.
On top of the serving node's eight endpoints the table adds the worker
lifecycle (``POST /workers``, ``POST /workers/N/ready``, ``POST
/health-check``), ``GET /cluster`` (an alias of ``/stats``) and ``GET
/columns/N``.

Only ``/search`` and ``/topk`` are shed under overload: refusing a
worker's lifecycle report or a write-through would turn congestion into
unavailability (a worker stuck down, a replica diverging).

``503`` signals an unserviceable cluster (some partition has no live
worker); transport failures during a request fail over to replicas
before that verdict is reached.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.resilience import Deadline
from repro.obs.trace import Tracer
from repro.serve.client import DEADLINE_HEADER
from repro.serve.schema import search_payload, topk_payload
from repro.serve.server import (
    OPERATOR_ROUTES,
    JsonRequestHandler,
    Route,
    RouteTable,
    ServeHTTPServer,
    delete_column,
    stats,
)

#: the coordinator is served by the one front-door class
ClusterHTTPServer = ServeHTTPServer


def _request_deadline(request: JsonRequestHandler, body: dict) -> Optional[Deadline]:
    """This request's latency budget, from the header or the body.

    The header carries the remaining milliseconds a propagating caller
    measured at send time; ``"deadline_ms"`` in the body is the
    end-client form. ``None`` when the request carries neither (the
    coordinator then applies its configured default, if any).
    """
    raw = request.headers.get(DEADLINE_HEADER)
    if raw is None:
        raw = body.get("deadline_ms")
    if raw is None:
        return None
    return Deadline.from_ms(float(raw))


def _search(request: JsonRequestHandler, body: dict) -> dict:
    coordinator = request.server.backend
    query, tau = request.query_and_tau(body)
    joinability = body.get("joinability", 0.6)
    with request.server.tracer.trace(
        "coordinator.search", parent=request.trace_context()
    ) as span:
        span.annotate(n_queries=int(query.shape[0]), tau=float(tau))
        result, generations = coordinator.search(
            query, tau, joinability, deadline=_request_deadline(request, body),
            trace=span,
        )
    return search_payload(
        result, columns=coordinator.columns, generation=generations
    )


def _topk(request: JsonRequestHandler, body: dict) -> dict:
    coordinator = request.server.backend
    query, tau = request.query_and_tau(body)
    k = int(body.get("k", 10))
    with request.server.tracer.trace(
        "coordinator.topk", parent=request.trace_context()
    ) as span:
        span.annotate(n_queries=int(query.shape[0]), k=k)
        result, generations = coordinator.topk(
            query, tau, k, deadline=_request_deadline(request, body),
            trace=span,
        )
    return topk_payload(
        result, columns=coordinator.columns, generation=generations
    )


def _add_column(request: JsonRequestHandler, body: dict) -> dict:
    # partition/column_id are the *worker-level* write-through fields;
    # the coordinator does its own placement and ID allocation, and
    # silently ignoring them would let a client retry marked
    # idempotent (it carried an explicit ID) double-insert here.
    for field in ("partition", "column_id"):
        if field in body:
            raise ValueError(
                f'"{field}" is set by the coordinator, not by clients; '
                "send the vectors only"
            )
    column_id, generations = request.server.backend.add_column(
        request.query_vectors(body),
        table=body.get("table"), column=body.get("column"),
    )
    return {"column_id": column_id, "generation": generations}


def _column_info(request: JsonRequestHandler, body: dict, column_id: int) -> dict:
    coordinator = request.server.backend
    return {
        "column_id": column_id,
        "live": coordinator.has_column(column_id),
        "partition": coordinator.column_partition(column_id),
    }


def _register_worker(request: JsonRequestHandler, body: dict) -> dict:
    return request.server.backend.register_worker(body.get("url"))


def _worker_ready(request: JsonRequestHandler, body: dict, slot: int) -> dict:
    return request.server.backend.worker_ready(slot, str(body["url"]))


def _health_check(request: JsonRequestHandler, body: dict) -> dict:
    coordinator = request.server.backend
    statuses = coordinator.health_check()
    return {
        "workers": statuses,
        "serviceable": coordinator.shard_map.is_serviceable(),
    }


#: only the expensive read path is sheddable; lifecycle reports and
#: write-through are never refused (see the module docstring)
COORDINATOR_ROUTES: RouteTable = {
    **OPERATOR_ROUTES,
    ("GET", "/cluster"): Route(stats),
    ("GET", "/columns/N"): Route(_column_info),
    ("POST", "/search"): Route(_search, shed=True, deadline=True),
    ("POST", "/topk"): Route(_topk, shed=True, deadline=True),
    ("POST", "/columns"): Route(_add_column),
    ("DELETE", "/columns/N"): Route(delete_column),
    ("POST", "/workers"): Route(_register_worker),
    ("POST", "/workers/N/ready"): Route(_worker_ready),
    ("POST", "/health-check"): Route(_health_check),
}


def make_cluster_server(
    lake_dir_or_coordinator,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    max_concurrent: Optional[int] = None,
    fault_injector=None,
    tracer: Optional[Tracer] = None,
    **coordinator_kwargs: Any,
) -> ClusterHTTPServer:
    """Build a ready-to-run coordinator server.

    Accepts a prebuilt :class:`ClusterCoordinator` or a saved
    partitioned lake directory (plus the coordinator's constructor
    arguments — ``n_workers`` is required in that case). Run it exactly
    like a serving node: ``serve_forever()`` on a thread, ``close()``
    to drain and stop. ``max_concurrent`` / ``fault_injector`` configure
    the *server's* admission gate and front-door fault plane (the
    coordinator's worker clients get the coordinator's own injector).
    """
    if isinstance(lake_dir_or_coordinator, ClusterCoordinator):
        coordinator = lake_dir_or_coordinator
    else:
        if tracer is not None:
            coordinator_kwargs.setdefault("tracer", tracer)
        coordinator = ClusterCoordinator(
            Path(lake_dir_or_coordinator), **coordinator_kwargs
        )
    embedder, preprocess = None, True
    catalog = coordinator.catalog
    if catalog and "embedder" in catalog:
        from repro.embedding.hashing import HashingNGramEmbedder

        embedder = HashingNGramEmbedder.from_catalog(catalog)
        preprocess = catalog.get("preprocess", True)
    return ServeHTTPServer(
        (host, port), coordinator, COORDINATOR_ROUTES,
        embedder=embedder, preprocess=preprocess, quiet=quiet,
        max_concurrent=max_concurrent, fault_injector=fault_injector,
        tracer=tracer,
    )
