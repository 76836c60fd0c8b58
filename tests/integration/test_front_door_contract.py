"""The front-door contract, held by both processes that serve HTTP.

A serving node and the cluster coordinator run the same server class and
request handler over different route tables, so every refusal the handler
can make — unknown path, malformed body, unknown id, drain, expired
deadline, load shed — must look the same on both. Each test runs once
against ``make_server`` and once against a thread-mode coordinator.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cluster import LocalCluster
from repro.cluster.server import COORDINATOR_ROUTES
from repro.core.metric import normalize_rows
from repro.core.out_of_core import PartitionedPexeso
from repro.core.persistence import save_partitioned
from repro.serve.client import DEADLINE_HEADER
from repro.serve.server import SERVICE_ROUTES, make_server


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(41)
    return [
        normalize_rows(rng.normal(size=(int(rng.integers(4, 10)), 6)))
        for _ in range(12)
    ]


@pytest.fixture(scope="module")
def lake_dir(columns, tmp_path_factory):
    directory = tmp_path_factory.mktemp("front_door") / "lake"
    lake = PartitionedPexeso(n_pivots=2, levels=3, n_partitions=2).fit(columns)
    save_partitioned(lake, directory)
    return directory


@pytest.fixture(scope="module", params=["serving-node", "coordinator"])
def server(request, lake_dir):
    """The front-door server of one process kind (admission capacity 1)."""
    if request.param == "serving-node":
        node = make_server(lake_dir, port=0, window_ms=None, max_concurrent=1)
        thread = threading.Thread(target=node.serve_forever, daemon=True)
        thread.start()
        yield node
        node.close()
        thread.join(timeout=5.0)
    else:
        with LocalCluster(
            lake_dir, n_workers=2, replication=2, mode="thread",
            server_kwargs=dict(max_concurrent=1),
        ) as cluster:
            yield cluster.coordinator_server


def call(server, method, path, body=None, headers=None):
    """One raw request; returns ``(status, headers, parsed JSON or text)``."""
    data = body if isinstance(body, bytes) or body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        server.url + path, data=data, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as reply:
            status, reply_headers, raw = reply.status, reply.headers, reply.read()
    except urllib.error.HTTPError as err:
        status, reply_headers, raw = err.code, err.headers, err.read()
    if reply_headers.get("Content-Type", "").startswith("application/json"):
        return status, reply_headers, json.loads(raw)
    return status, reply_headers, raw.decode()


def search_body(columns, **extra):
    return {"vectors": columns[0][:4].tolist(), "tau": 0.6, "joinability": 0.3, **extra}


def test_search_answers(server, columns):
    status, _, reply = call(server, "POST", "/search", search_body(columns))
    assert status == 200
    assert {"tau", "t_count", "query_size", "hits", "generation"} <= set(reply)


def test_retired_ef_search_field_is_ignored(server, columns):
    """Search is exact-only: a body still carrying ``"ef_search"`` gets
    the exact answer and no echo, whatever the value, because unknown
    keys are ignored."""
    status, _, exact = call(server, "POST", "/search", search_body(columns))
    assert status == 200 and exact["hits"]
    for value in (2, 0, "sixty-four"):
        status, _, reply = call(
            server, "POST", "/search", search_body(columns, ef_search=value)
        )
        assert status == 200, value
        assert reply["hits"] == exact["hits"]
        assert "ef_search" not in reply


def test_back_to_back_requests_are_admitted(server, columns):
    """At capacity 1, a client that sends its next request as soon as it
    reads a reply is never shed: the slot is released before the reply
    is written."""
    statuses = [
        call(server, "POST", "/search", search_body(columns))[0] for _ in range(50)
    ]
    assert statuses == [200] * 50


@pytest.mark.parametrize("method", ["GET", "POST", "DELETE"])
def test_unknown_path_is_404(server, method):
    status, _, reply = call(server, method, "/no/such/route", {} if method == "POST" else None)
    assert status == 404
    assert "unknown path" in reply["error"]


@pytest.mark.parametrize("body", [b"{not json", b"[1, 2, 3]"])
def test_malformed_body_is_400(server, body):
    status, _, reply = call(server, "POST", "/search", body)
    assert status == 400
    assert "JSON" in reply["error"]


def test_vectors_and_values_together_is_400(server, columns):
    status, _, reply = call(
        server, "POST", "/search", search_body(columns, values=["a", "b"])
    )
    assert status == 400
    assert "exactly one" in reply["error"]


def test_both_tau_forms_is_400(server, columns):
    status, _, reply = call(
        server, "POST", "/search", search_body(columns, tau_fraction=0.1)
    )
    assert status == 400
    assert "tau" in reply["error"]


def test_delete_of_unknown_column_is_404(server):
    status, _, reply = call(server, "DELETE", "/columns/999999")
    assert status == 404
    assert "999999" in reply["error"]
    status, _, _ = call(server, "DELETE", "/columns/not-a-number")
    assert status == 400


def test_drain_refuses_writes_and_searches_but_not_reads(server, columns):
    server.draining = True
    try:
        for method, path, body in (
            ("POST", "/search", search_body(columns)),
            ("POST", "/columns", {"vectors": columns[0][:4].tolist()}),
            ("DELETE", "/columns/0", None),
        ):
            status, headers, reply = call(server, method, path, body)
            assert status == 503, (method, path)
            assert float(headers["Retry-After"]) > 0
            assert "draining" in reply["error"]
        status, _, reply = call(server, "GET", "/healthz")
        assert status == 200 and reply["ok"] is True
    finally:
        server.draining = False


def test_expired_deadline_is_504_and_counted(server, columns):
    before = server.deadline_rejects
    status, _, reply = call(
        server, "POST", "/search", search_body(columns),
        headers={DEADLINE_HEADER: "0"},
    )
    assert status == 504
    assert "deadline" in reply["error"]
    assert server.deadline_rejects == before + 1
    _, _, metrics = call(server, "GET", "/metrics")
    assert f"pexeso_serve_deadline_rejects {float(before + 1)}" in metrics


def test_saturated_gate_sheds_search_while_gets_answer(server, columns):
    assert server.admission.try_acquire()  # capacity 1: the gate is now full
    try:
        status, headers, reply = call(server, "POST", "/search", search_body(columns))
        assert status == 429
        assert float(headers["Retry-After"]) > 0
        assert "shed" in reply["error"]
        for path in ("/healthz", "/stats", "/metrics", "/debug/traces"):
            assert call(server, "GET", path)[0] == 200, path
    finally:
        server.admission.release()
    assert call(server, "POST", "/search", search_body(columns))[0] == 200


def test_gate_policy_is_the_route_tables():
    """What is shed and what checks the deadline, as data."""

    def flagged(routes, flag):
        return {key for key, route in routes.items() if getattr(route, flag)}

    reads = {("POST", "/search"), ("POST", "/topk")}
    assert flagged(SERVICE_ROUTES, "shed") == {
        key for key in SERVICE_ROUTES if key[0] != "GET"
    }
    assert flagged(COORDINATOR_ROUTES, "shed") == reads
    assert flagged(SERVICE_ROUTES, "deadline") == reads
    assert flagged(COORDINATOR_ROUTES, "deadline") == reads
    assert set(SERVICE_ROUTES) < set(COORDINATOR_ROUTES)
