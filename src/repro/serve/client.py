"""Tiny urllib client for the serving API (no third-party deps).

:class:`ServeClient` speaks the same JSON schema the server emits and
the CLI's ``search --json`` prints, so a script can swap between a local
index and a remote service without reparsing anything.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Optional, Sequence

import numpy as np

from repro.obs.trace import TRACE_HEADER  # noqa: F401  (re-exported)

#: header carrying a request's *remaining* deadline budget, in
#: milliseconds. Remaining time (not an absolute instant) crosses the
#: wire so clock skew between coordinator and worker cannot corrupt it.
DEADLINE_HEADER = "X-Repro-Deadline-Ms"


class ServeError(RuntimeError):
    """An HTTP-level error from the serving API.

    ``retry_after`` carries the server's ``Retry-After`` header (seconds,
    or ``None``) so shed requests (429/503) can be re-queued politely.
    """

    def __init__(
        self, status: int, message: str, retry_after: Optional[float] = None
    ):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


class ServeClient:
    """Client for one :class:`~repro.serve.server.ServeHTTPServer`.

    Args:
        base_url: e.g. ``http://127.0.0.1:8765`` (the server's ``url``).
        timeout: per-request socket timeout in seconds.
        retries: transport-level retry budget. A connection that cannot
            be established or dies mid-flight (``URLError``,
            ``ConnectionError``, socket timeout) is retried after a
            short backoff; an HTTP *status* error is never retried — the
            server answered. The cluster coordinator leans on this for
            transient worker hiccups, keeping real failures (refused
            connections after the budget) as the failover signal.
        retry_backoff: base sleep ceiling between attempts (the ceiling
            doubles each retry).
        retry_jitter: when true (the default), each retry sleeps a
            *uniform* draw from ``[0, retry_backoff * 2**attempt]``
            (full jitter) instead of the deterministic ceiling, so
            concurrent callers retrying the same hiccup don't
            resynchronize into a retry storm.
        retry_rng: RNG used for jitter; pass a seeded
            ``random.Random`` for reproducible schedules in tests.
        fault_injector: optional
            :class:`~repro.serve.faults.FaultInjector` whose schedule
            runs just before each HTTP send (scripted client-side
            delays, drops, and black-holes).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 0,
        retry_backoff: float = 0.05,
        retry_jitter: bool = True,
        retry_rng: Optional[random.Random] = None,
        fault_injector=None,
    ):
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self.retry_jitter = bool(retry_jitter)
        self._retry_rng = retry_rng if retry_rng is not None else random.Random()
        self.faults = fault_injector

    # -- plumbing ------------------------------------------------------------------

    def _backoff_sleep(self, attempt: int) -> None:
        ceiling = self.retry_backoff * (2 ** attempt)
        if self.retry_jitter:
            time.sleep(self._retry_rng.uniform(0.0, ceiling))
        else:
            time.sleep(ceiling)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        raw: bool = False,
        idempotent: bool = True,
        deadline_ms: Optional[float] = None,
        trace=None,
    ):
        """One HTTP exchange, transport-retried only when ``idempotent``.

        A transport failure leaves it unknown whether the server applied
        the request, so only requests that are safe to apply twice may
        be re-sent — searches, reads, replica write-throughs carrying an
        explicit column ID, tombstone deletes. A non-idempotent request
        (an add that *allocates* an ID) fails straight to the caller.

        ``deadline_ms`` is the latency budget left at call entry. Each
        attempt sends what is left of it at that attempt as the
        ``X-Repro-Deadline-Ms`` header and caps its socket timeout to
        it, so a call never outlives the budget it carries. A first
        attempt whose budget is already spent still goes out with the
        normal timeout, to hear the server's 504; a retry never does.

        ``trace`` (a :class:`~repro.obs.trace.Span` or ``TraceContext``)
        attaches the ``X-Repro-Trace`` header so the server joins the
        caller's trace.
        """
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        expires = None
        if deadline_ms is not None:
            expires = time.monotonic() + float(deadline_ms) / 1000.0
        trace_header = self._trace_header_value(trace)
        if trace_header is not None:
            headers[TRACE_HEADER] = trace_header
        attempts = (self.retries + 1) if idempotent else 1
        for attempt in range(attempts):
            timeout = self.timeout
            if expires is not None:
                left = expires - time.monotonic()
                headers[DEADLINE_HEADER] = f"{left * 1000.0:.3f}"
                if left > 0:
                    timeout = min(timeout, left)
            request = urllib.request.Request(
                self.base_url + path, data=data, headers=headers, method=method
            )
            try:
                if self.faults is not None:
                    self.faults.before_send(self.base_url, method, path)
                with urllib.request.urlopen(request, timeout=timeout) as reply:
                    payload = reply.read()
                break
            except urllib.error.HTTPError as exc:
                detail = exc.read().decode("utf-8", errors="replace")
                try:
                    detail = json.loads(detail).get("error", detail)
                except json.JSONDecodeError:
                    pass
                retry_after = exc.headers.get("Retry-After") if exc.headers else None
                try:
                    retry_after = float(retry_after) if retry_after else None
                except ValueError:
                    retry_after = None
                raise ServeError(exc.code, detail, retry_after=retry_after) from exc
            except (urllib.error.URLError, ConnectionError, TimeoutError):
                if attempt == attempts - 1 or self._spent(expires):
                    raise
                self._backoff_sleep(attempt)
                if self._spent(expires):
                    raise  # no retry could be answered within the budget
        if raw:
            return payload.decode("utf-8")
        return json.loads(payload)

    @staticmethod
    def _spent(expires: Optional[float]) -> bool:
        return expires is not None and time.monotonic() >= expires

    @staticmethod
    def _trace_header_value(trace) -> Optional[str]:
        """The ``X-Repro-Trace`` value for a Span / TraceContext (or None)."""
        if trace is None:
            return None
        context = getattr(trace, "context", None)
        if callable(context):  # a Span (or NullSpan, whose context is None)
            trace = context()
            if trace is None:
                return None
        to_header = getattr(trace, "to_header", None)
        return to_header() if callable(to_header) else None

    @staticmethod
    def _query_body(
        values: Optional[Sequence[str]],
        vectors: Optional[np.ndarray],
    ) -> dict:
        if (values is None) == (vectors is None):
            raise ValueError("give exactly one of values / vectors")
        if values is not None:
            return {"values": [str(v) for v in values]}
        return {"vectors": np.asarray(vectors, dtype=np.float64).tolist()}

    @staticmethod
    def _tau_body(tau: Optional[float], tau_fraction: Optional[float]) -> dict:
        if (tau is None) == (tau_fraction is None):
            raise ValueError("give exactly one of tau / tau_fraction")
        if tau is not None:
            return {"tau": float(tau)}
        return {"tau_fraction": float(tau_fraction)}

    # -- API -----------------------------------------------------------------------

    def search(
        self,
        values: Optional[Sequence[str]] = None,
        vectors: Optional[np.ndarray] = None,
        tau: Optional[float] = None,
        tau_fraction: Optional[float] = None,
        joinability: float | int = 0.6,
        parts: Optional[Sequence[int]] = None,
        deadline_ms: Optional[float] = None,
        trace=None,
    ) -> dict[str, Any]:
        """Threshold search; returns the shared search payload.

        ``parts`` restricts a partitioned server to a partition subset
        (the cluster coordinator's scatter routing). ``deadline_ms``
        sends the remaining latency budget; an expired budget is
        answered 504 by the server before any work runs. ``trace``
        propagates the caller's trace context to the server.
        """
        body = self._query_body(values, vectors)
        body.update(self._tau_body(tau, tau_fraction))
        body["joinability"] = joinability
        if parts is not None:
            body["parts"] = [int(p) for p in parts]
        return self._request(
            "POST", "/search", body, deadline_ms=deadline_ms, trace=trace
        )

    def topk(
        self,
        values: Optional[Sequence[str]] = None,
        vectors: Optional[np.ndarray] = None,
        tau: Optional[float] = None,
        tau_fraction: Optional[float] = None,
        k: int = 10,
        parts: Optional[Sequence[int]] = None,
        deadline_ms: Optional[float] = None,
        trace=None,
    ) -> dict[str, Any]:
        """Exact top-k; returns the shared topk payload.

        ``parts`` is the cluster scatter parameter (answer these
        partitions only). ``deadline_ms`` sends the remaining latency
        budget; ``trace`` propagates the caller's trace context.
        """
        body = self._query_body(values, vectors)
        body.update(self._tau_body(tau, tau_fraction))
        body["k"] = int(k)
        if parts is not None:
            body["parts"] = [int(p) for p in parts]
        return self._request(
            "POST", "/topk", body, deadline_ms=deadline_ms, trace=trace
        )

    def add_column(
        self,
        values: Optional[Sequence[str]] = None,
        vectors: Optional[np.ndarray] = None,
        table: Optional[str] = None,
        column: Optional[str] = None,
        partition: Optional[int] = None,
        column_id: Optional[int] = None,
    ) -> dict[str, Any]:
        """Live-add one column; returns ``{"column_id", "generation"}``.

        ``partition`` / ``column_id`` request explicit placement and a
        pre-allocated global ID (the coordinator's replica write-through).
        """
        body = self._query_body(values, vectors)
        if table is not None:
            body["table"] = table
        if column is not None:
            body["column"] = column
        if partition is not None:
            body["partition"] = int(partition)
        if column_id is not None:
            body["column_id"] = int(column_id)
        # an add carrying an explicit ID is a replicated write-through,
        # which the worker applies idempotently; an ID-allocating add
        # must not be transport-retried (a lost reply would double-add)
        return self._request(
            "POST", "/columns", body, idempotent=column_id is not None
        )

    def delete_column(self, column_id: int) -> dict[str, Any]:
        """Live-delete one column; returns ``{"deleted", "generation"}``."""
        return self._request("DELETE", f"/columns/{int(column_id)}")

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """The raw ``/metrics`` text exposition."""
        return self._request("GET", "/metrics", raw=True)

    def debug_traces(self) -> dict[str, Any]:
        """Recent trace trees + slow-query log from ``/debug/traces``."""
        return self._request("GET", "/debug/traces")
