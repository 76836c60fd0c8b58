"""The HTTP front door: one stdlib JSON server over a search backend.

A ``ThreadingHTTPServer`` — one thread per connection — which is exactly
the arrival pattern the service's micro-batcher is built for: concurrent
handler threads calling ``service.search`` coalesce into fused engine
dispatches.

There is one server class (:class:`ServeHTTPServer`) and one request
handler (:class:`JsonRequestHandler`); what a process answers is data, a
:data:`RouteTable` over a *backend*. Every request runs one gate
sequence (:meth:`JsonRequestHandler._dispatch`), so a policy difference
between a serving node and the cluster coordinator is a different
:class:`Route` entry, never a branch in this module. The serving node's
table over a :class:`~repro.serve.service.QueryService` is
:data:`SERVICE_ROUTES` below — read it for the endpoint list;
:mod:`repro.cluster.server` registers the coordinator's. Both share the
operator GETs (:data:`OPERATOR_ROUTES`), written once over
``backend.describe()`` and ``backend.metrics_registry()``.

Request bodies are JSON objects: ``/search`` takes ``{"vectors"|"values",
"tau"|"tau_fraction", "joinability"}``, ``/topk`` swaps ``joinability``
for ``k``, ``POST /columns`` takes ``{"vectors"|"values"}``. ``"values"``
(raw strings) requires the server to hold an embedder —
:func:`make_server` wires one up from a CLI-built index directory's
``catalog.json``; ``"vectors"`` always works.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.obs.trace import TRACE_HEADER, TraceContext, Tracer
from repro.serve.client import DEADLINE_HEADER
from repro.serve.faults import apply_server_faults
from repro.serve.schema import (
    METRIC_HELP,
    label_column,
    search_payload,
    topk_payload,
)
from repro.serve.service import QueryService


class AdmissionController:
    """A bounded admission gate with load-shedding counters.

    At most ``capacity`` requests execute concurrently; arrivals beyond
    that are *shed* — answered ``429`` with a ``Retry-After`` hint —
    instead of queueing behind a growing backlog until everything times
    out. ``capacity=None`` admits everything (counters still work).
    """

    def __init__(self, capacity: Optional[int], retry_after: float = 0.5):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be at least 1 (or None)")
        self.capacity = int(capacity) if capacity is not None else None
        self.retry_after = float(retry_after)
        self._lock = threading.Lock()
        self.inflight = 0
        self.admitted = 0
        self.shed = 0

    def try_acquire(self) -> bool:
        with self._lock:
            if self.capacity is not None and self.inflight >= self.capacity:
                self.shed += 1
                return False
            self.inflight += 1
            self.admitted += 1
            return True

    def release(self) -> None:
        with self._lock:
            self.inflight -= 1

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {
                "admission_capacity": float(
                    self.capacity if self.capacity is not None else -1
                ),
                "admission_inflight": float(self.inflight),
                "admission_admitted": float(self.admitted),
                "admission_shed": float(self.shed),
            }


class GracefulHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that can shut down without dropping work.

    Handler threads are daemonic (a hung client cannot pin the process),
    but every in-flight request is counted, so :meth:`close` can stop
    accepting, *drain* the requests already executing, and only then
    close the socket — the clean-restart path a cluster worker needs.
    Use as a context manager, or call :meth:`close` directly (also from
    a signal handler via :func:`install_signal_handlers`).
    """

    daemon_threads = True
    allow_reuse_address = True

    # socketserver's default listen backlog is 5; a synchronized burst
    # of clients overflows it and the kernel resets the excess
    # connections before any handler runs — admission control must be
    # the thing that sheds load, not the accept queue.
    request_queue_size = 128

    #: Retry-After (seconds) sent with the fast 503 during a drain.
    drain_retry_after = 1.0

    def __init__(self, *args, **kwargs):
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._served = False
        self._close_lock = threading.Lock()
        self._closed = False
        self.draining = False
        super().__init__(*args, **kwargs)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        # Serialized against close(): a close that already ran (e.g. a
        # SIGTERM delivered between install_signal_handlers and here)
        # must make this a no-op — entering the accept loop on a closed
        # socket would crash instead of exiting cleanly. Conversely,
        # once _served is set under the lock, a concurrent close() will
        # call shutdown() and this loop is guaranteed to observe it.
        with self._close_lock:
            if self._closed:
                return
            self._served = True
        super().serve_forever(poll_interval)

    def process_request_thread(self, request, client_address) -> None:
        with self._inflight_cond:
            self._inflight += 1
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()

    def handle_error(self, request, client_address) -> None:
        # A client that hangs up mid-request or before its reply is
        # routine, not a server error: reads and writes alike land here.
        hung_up = isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError))
        if not hung_up:
            super().handle_error(request, client_address)

    def close(self, drain_seconds: float = 5.0) -> None:
        """Stop accepting, drain in-flight requests, release the socket.

        ``drain_seconds`` bounds the wait for running handlers; anything
        still executing after the deadline is abandoned to its daemon
        thread (the process can exit regardless).

        Safe to call more than once and from several threads (the CLI
        drains on the main thread after a signal handler's helper
        thread already initiated the close): later calls wait for the
        first to finish, then return.
        """
        # Flag first, outside the lock: requests that reach dispatch
        # from here on get a fast 503 + Retry-After instead of
        # executing against a closing service, which is what lets the
        # drain below actually converge under load.
        self.draining = True
        with self._close_lock:
            if self._closed:
                return
            # Drain *before* stopping the accept loop: connections that
            # arrive mid-drain still get accepted and answered with the
            # fast 503 above, instead of rotting in the listen backlog
            # until server_close() resets them.
            deadline = time.monotonic() + max(0.0, drain_seconds)
            with self._inflight_cond:
                while self._inflight:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._inflight_cond.wait(timeout=remaining)
            # shutdown() blocks until serve_forever() exits its loop —
            # only meaningful (and safe) when the loop was entered.
            if self._served:
                self.shutdown()
            self.server_close()
            self._closed = True

    def __exit__(self, *exc_info) -> None:
        self.close()


def install_signal_handlers(server: GracefulHTTPServer) -> None:
    """Route SIGTERM/SIGINT to a graceful drain-and-close.

    The handler fires ``server.close()`` on a helper thread — calling
    ``shutdown()`` from the signal frame would deadlock when
    ``serve_forever()`` runs on the main thread. Call from the main
    thread (a CPython requirement for ``signal.signal``).
    """

    def _handle(signum, frame):
        threading.Thread(
            target=server.close, name="graceful-shutdown", daemon=True
        ).start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _handle)


class RequestError(Exception):
    """A refusal with a status of its own (unknown path or id -> 404).

    Any exception may carry an ``http_status``; the handler answers with
    it, which is how a backend's own failures (an expired deadline, an
    unserviceable cluster) reach the wire without this module knowing
    their types.
    """

    def __init__(self, http_status: int, message: str):
        super().__init__(message)
        self.http_status = http_status


@dataclass(frozen=True)
class Route:
    """What one ``(method, path pattern)`` does and which gates guard it.

    ``call(request, body, *ids)`` returns the reply — a dict is sent as
    JSON, a str as plain text; ``ids`` are the path's ``N`` segments as
    integers. ``shed`` puts the route behind admission control (``429``
    + ``Retry-After`` over capacity); ``deadline`` refuses work whose
    propagated ``X-Repro-Deadline-Ms`` budget is already spent (``504``).
    """

    call: Callable[..., Union[dict, str]]
    shed: bool = False
    deadline: bool = False


#: ``(method, path pattern) -> Route``; an ``N`` segment matches one id
RouteTable = Mapping[tuple[str, str], Route]


def find_route(
    routes: RouteTable, method: str, path: str
) -> tuple[Optional[Route], list[str]]:
    """The route serving ``method path`` plus its raw id segments."""
    segments = path.strip("/").split("/")
    for (verb, pattern), route in routes.items():
        wanted = pattern.strip("/").split("/")
        if verb == method and len(wanted) == len(segments) and all(
            w == "N" or w == s for w, s in zip(wanted, segments)
        ):
            return route, [s for w, s in zip(wanted, segments) if w == "N"]
    return None, []


class ServeHTTPServer(GracefulHTTPServer):
    """The one HTTP front door: a backend behind a route table.

    A serving node (or cluster worker) holds a
    :class:`~repro.serve.service.QueryService`, the cluster coordinator
    a :class:`~repro.cluster.coordinator.ClusterCoordinator`; what
    differs between them is the ``routes`` table, never this class.

    Args:
        address: ``(host, port)``; port 0 binds an ephemeral port
            (read it back from ``server_address``).
        backend: the resident object the routes call — it supplies
            ``describe()``, ``metrics_registry()``, ``resolve_tau()``
            and a ``tracer`` besides its search and maintenance calls.
        routes: the :data:`RouteTable` this server answers.
        embedder: optional string embedder enabling ``"values"`` inputs.
        columns: optional column catalog (``[{"table", "column"}, ...]``)
            used to label hits in responses.
        preprocess: apply full-form preprocessing to ``"values"`` inputs
            (must match how the lake was indexed).
        quiet: suppress per-request access logging.
        max_concurrent: admission-control capacity — at most this many
            requests on ``shed`` routes execute at once; excess arrivals
            get ``429`` + ``Retry-After``. ``None`` = unlimited.
        fault_injector: optional
            :class:`~repro.serve.faults.FaultInjector` whose schedule
            runs against incoming POST/DELETE requests (scripted
            slow-worker delays, injected errors, dropped connections).
        tracer: the :class:`~repro.obs.trace.Tracer` recording request
            spans (continued from the ``X-Repro-Trace`` header when a
            caller sends one); defaults to the backend's tracer.
    """

    def __init__(
        self,
        address: tuple[str, int],
        backend,
        routes: RouteTable,
        embedder=None,
        columns: Optional[Sequence[dict]] = None,
        preprocess: bool = True,
        quiet: bool = True,
        max_concurrent: Optional[int] = None,
        fault_injector=None,
        tracer: Optional[Tracer] = None,
    ):
        self.backend = backend
        self.routes = routes
        self.embedder = embedder
        self.columns = list(columns) if columns is not None else None
        self.columns_lock = threading.Lock()
        self.preprocess = preprocess
        self.quiet = quiet
        self.admission = AdmissionController(max_concurrent)
        self.fault_injector = fault_injector
        self.tracer = tracer if tracer is not None else backend.tracer
        self._counter_lock = threading.Lock()
        self.deadline_rejects = 0
        super().__init__(address, JsonRequestHandler)

    @property
    def service(self):
        """The backend, under the name a serving node's callers use."""
        return self.backend

    #: ... and under the name the coordinator's callers use
    coordinator = service

    def count_deadline_reject(self) -> None:
        with self._counter_lock:
            self.deadline_rejects += 1

    def resilience_metrics(self) -> dict[str, float]:
        """Admission / deadline gauges for the ``/metrics`` exposition."""
        metrics = self.admission.snapshot()
        with self._counter_lock:
            metrics["deadline_rejects"] = float(self.deadline_rejects)
        return metrics


class JsonRequestHandler(BaseHTTPRequestHandler):
    """The one request handler: every verb is a route-table dispatch."""

    protocol_version = "HTTP/1.1"
    server: ServeHTTPServer  # for type checkers

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        """Drain -> fault plane -> admission -> body -> deadline -> call.

        GETs are the operator's view and skip the first two gates: they
        keep answering through a drain and never advance a fault
        schedule. An early refusal consumes the unread body first (see
        :meth:`_discard_body`).
        """
        server = self.server
        if method != "GET":
            if server.draining:
                self._discard_body()
                self._send_error_json(
                    "server is draining", 503,
                    retry_after=server.drain_retry_after,
                )
                return
            if apply_server_faults(self):
                return
        route, raw_ids = find_route(server.routes, method, self.path)
        admitted = route is not None and route.shed
        if admitted and not server.admission.try_acquire():
            self._discard_body()
            self._send_error_json(
                "server over capacity; request shed", 429,
                retry_after=server.admission.retry_after,
            )
            return
        status = 200
        try:
            body = self._read_body()
            if route is None:
                raise RequestError(404, f"unknown path {self.path}")
            if route.deadline and self._deadline_expired():
                raise RequestError(504, "deadline expired")
            reply = route.call(self, body, *map(int, raw_ids))  # bad id -> 400
            if isinstance(reply, str):
                text, content_type = reply, "text/plain; charset=utf-8"
            else:
                text, content_type = json.dumps(reply), "application/json"
        except Exception as exc:
            status = getattr(exc, "http_status", None)
            if status is None:
                bad_input = isinstance(exc, (ValueError, KeyError, TypeError))
                status = 400 if bad_input else 500
            text, content_type = json.dumps({"error": str(exc)}), "application/json"
        finally:
            if admitted:
                server.admission.release()
        # the slot is free before the reply goes out: a client that sends
        # its next request as soon as it reads this reply is admitted
        self._send(text, content_type, status)

    # -- plumbing ------------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send(
        self, text: str, content_type: str, status: int = 200,
        retry_after: Optional[float] = None,
    ) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:g}")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, message: str, status: int, retry_after: Optional[float] = None
    ) -> None:
        self._send(
            json.dumps({"error": message}), "application/json", status, retry_after
        )

    def _discard_body(self) -> None:
        """Consume an unread request body before an early error reply.

        Rejecting a POST before reading its body leaves the bytes queued
        in the socket; closing the connection then makes the kernel send
        RST, which can destroy the buffered error response before the
        client reads it — a shed request must see its 429, not a
        connection reset.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return
        if length > 0:
            try:
                self.rfile.read(length)
            except OSError:  # pragma: no cover - client already gone
                pass

    def _deadline_expired(self) -> bool:
        """Whether the propagated budget is already spent (and count it).

        Reads the ``X-Repro-Deadline-Ms`` header (remaining budget in
        milliseconds at send time); a non-positive value means the
        caller's deadline passed and the answer could never be used, so
        the server refuses with 504 before touching the index.
        """
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return False
        try:
            remaining_ms = float(raw)
        except ValueError:
            return False
        if remaining_ms > 0:
            return False
        self.server.count_deadline_reject()
        return True

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    # -- what the route calls read off a request -----------------------------------

    def trace_context(self) -> Optional[TraceContext]:
        """The caller's trace context from ``X-Repro-Trace`` (or None)."""
        return TraceContext.from_header(self.headers.get(TRACE_HEADER))

    def query_vectors(self, body: dict) -> np.ndarray:
        """The query column from either raw vectors or embeddable strings."""
        if ("vectors" in body) == ("values" in body):
            raise ValueError('give exactly one of "vectors" / "values"')
        if "vectors" in body:
            if not isinstance(body["vectors"], (list, tuple)):
                raise ValueError('"vectors" must be a JSON array of rows')
            return np.asarray(body["vectors"], dtype=np.float64)
        if self.server.embedder is None:
            raise ValueError(
                'this server has no embedder; send "vectors" instead of "values"'
            )
        if not isinstance(body["values"], (list, tuple)):
            # a bare string would be iterated character by character
            raise ValueError('"values" must be a JSON array of strings')
        values = [str(v) for v in body["values"]]
        if self.server.preprocess:
            from repro.lake.preprocessing import to_full_form

            values = [to_full_form(v) for v in values]
        return self.server.embedder.embed_column(values)

    def query_and_tau(self, body: dict) -> tuple[np.ndarray, float]:
        """The query column and its absolute τ (from either τ form)."""
        query = self.query_vectors(body)
        tau = self.server.backend.resolve_tau(
            body.get("tau"), body.get("tau_fraction"), query.shape[1]
        )
        return query, tau


def _parse_parts(body: dict) -> Optional[list[int]]:
    """The optional partition restriction of a scatter-routed request."""
    parts = body.get("parts")
    if parts is None:
        return None
    if not isinstance(parts, (list, tuple)):
        raise ValueError('"parts" must be a JSON array of partition ids')
    return [int(p) for p in parts]


# -- routes every backend shares ---------------------------------------------------


def _healthz(request: JsonRequestHandler, body: dict) -> dict:
    state = request.server.backend.describe()
    reply = {
        "ok": state.get("serviceable", True),
        "generation": state["generation"],
        "n_columns": state["n_columns"],
    }
    if "workers" in state:
        reply["workers"] = [worker["status"] for worker in state["workers"]]
    return reply


def stats(request: JsonRequestHandler, body: dict) -> dict:
    return request.server.backend.describe()


def _metrics(request: JsonRequestHandler, body: dict) -> str:
    registry = request.server.backend.metrics_registry()
    for name, value in request.server.resilience_metrics().items():
        if name in ("admission_shed", "deadline_rejects"):
            registry.counter(name, METRIC_HELP.get(name, name), value)
        else:
            registry.gauge(name, METRIC_HELP.get(name, name), value)
    return registry.render()


def _traces(request: JsonRequestHandler, body: dict) -> dict:
    tracer = request.server.tracer
    return {"traces": tracer.traces(), "slow_queries": tracer.slow_queries()}


def delete_column(request: JsonRequestHandler, body: dict, column_id: int) -> dict:
    try:
        generation = request.server.backend.delete_column(column_id)
    except KeyError:
        raise RequestError(404, f"unknown column id {column_id}") from None
    return {"deleted": column_id, "generation": generation}


#: the operator's view, identical on every backend and never gated
OPERATOR_ROUTES: RouteTable = {
    ("GET", "/healthz"): Route(_healthz),
    ("GET", "/stats"): Route(stats),
    ("GET", "/metrics"): Route(_metrics),
    ("GET", "/debug/traces"): Route(_traces),
}


# -- the serving node's routes (backend: QueryService) -----------------------------


def _search(request: JsonRequestHandler, body: dict) -> dict:
    query, tau = request.query_and_tau(body)
    joinability = body.get("joinability", 0.6)
    with request.server.tracer.trace(
        "serve.search", parent=request.trace_context()
    ) as span:
        span.annotate(n_queries=int(query.shape[0]), tau=float(tau))
        response = request.server.backend.search(
            query, tau, joinability, parts=_parse_parts(body), trace=span,
        )
    return search_payload(
        response.result,
        columns=request.server.columns,
        generation=response.generation,
        cached=response.cached,
    )


def _topk(request: JsonRequestHandler, body: dict) -> dict:
    query, tau = request.query_and_tau(body)
    k = int(body.get("k", 10))
    with request.server.tracer.trace(
        "serve.topk", parent=request.trace_context()
    ) as span:
        span.annotate(n_queries=int(query.shape[0]), k=k)
        response = request.server.backend.topk(
            query, tau, k, parts=_parse_parts(body), trace=span,
        )
    return topk_payload(
        response.result,
        columns=request.server.columns,
        generation=response.generation,
        cached=response.cached,
    )


def _add_column(request: JsonRequestHandler, body: dict) -> dict:
    server = request.server
    vectors = request.query_vectors(body)
    part = body.get("partition")
    explicit_id = body.get("column_id")
    column_id, generation = server.backend.add_column(
        vectors,
        part=int(part) if part is not None else None,
        column_id=int(explicit_id) if explicit_id is not None else None,
    )
    if server.columns is not None:
        # handler threads add concurrently and the slot write pads the
        # list first, so it is not atomic
        with server.columns_lock:
            label_column(
                server.columns, column_id, body.get("table"), body.get("column")
            )
    return {"column_id": column_id, "generation": generation}


#: a serving node sheds every mutating verb: it owns no one else's state,
#: so refusing work under overload is always safe
SERVICE_ROUTES: RouteTable = {
    **OPERATOR_ROUTES,
    ("POST", "/search"): Route(_search, shed=True, deadline=True),
    ("POST", "/topk"): Route(_topk, shed=True, deadline=True),
    ("POST", "/columns"): Route(_add_column, shed=True),
    ("DELETE", "/columns/N"): Route(delete_column, shed=True),
}


def make_server(
    service_or_dir,
    host: str = "127.0.0.1",
    port: int = 0,
    embedder=None,
    columns: Optional[Sequence[dict]] = None,
    preprocess: Optional[bool] = None,
    quiet: bool = True,
    max_concurrent: Optional[int] = None,
    fault_injector=None,
    tracer: Optional[Tracer] = None,
    **service_kwargs: Any,
) -> ServeHTTPServer:
    """Build a ready-to-run server from a service or a saved index directory.

    Given a directory, the index is loaded via
    :func:`~repro.core.persistence.load_any` and — when the directory
    carries the CLI's ``catalog.json`` — a matching
    :class:`~repro.embedding.hashing.HashingNGramEmbedder`, the column
    catalog and the preprocessing switch are wired up automatically, so
    ``make_server("lake_index/")`` serves string queries out of the box.

    Call ``serve_forever()`` on the result (or hand it to a thread) and
    ``shutdown()`` / ``server_close()`` to stop.
    """
    if tracer is not None:
        # a service built here should record into the same tracer the
        # server continues remote contexts on
        service_kwargs.setdefault("tracer", tracer)
    if isinstance(service_or_dir, QueryService):
        service = service_or_dir
    elif isinstance(service_or_dir, (str, Path)):
        directory = Path(service_or_dir)
        service = QueryService.from_directory(directory, **service_kwargs)
        catalog_path = directory / "catalog.json"
        if catalog_path.exists():
            catalog = json.loads(catalog_path.read_text())
            if columns is None:
                columns = catalog.get("columns")
            if embedder is None and "embedder" in catalog:
                from repro.embedding.hashing import HashingNGramEmbedder

                embedder = HashingNGramEmbedder.from_catalog(catalog)
            if preprocess is None:
                preprocess = catalog.get("preprocess", True)
    else:
        service = QueryService(service_or_dir, **service_kwargs)
    return ServeHTTPServer(
        (host, port),
        service,
        SERVICE_ROUTES,
        embedder=embedder,
        columns=columns,
        preprocess=True if preprocess is None else bool(preprocess),
        quiet=quiet,
        max_concurrent=max_concurrent,
        fault_injector=fault_injector,
        tracer=tracer,
    )
