"""HTTP round-trip tests: server + client over ephemeral ports."""

import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro.core.index import PexesoIndex
from repro.core.metric import normalize_rows
from repro.core.out_of_core import PartitionedPexeso
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import make_server
from repro.serve.service import QueryService


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(21)
    return [
        normalize_rows(rng.normal(size=(int(rng.integers(5, 12)), 6)))
        for _ in range(18)
    ]


@pytest.fixture()
def served(columns):
    """A running server + client over a fresh single-index service."""
    index = PexesoIndex.build(columns, n_pivots=3, levels=3)
    service = QueryService(index, window_ms=0, cache_size=32)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, ServeClient(server.url)
    finally:
        server.shutdown()
        server.server_close()


class TestRoundTrips:
    def test_healthz(self, served):
        _, client = served
        reply = client.healthz()
        assert reply["ok"] is True
        assert reply["generation"] == 0
        assert reply["n_columns"] == 18

    def test_search_vectors(self, served, columns):
        service, client = served
        reply = client.search(vectors=columns[3][:6], tau=0.6, joinability=0.3)
        assert reply["generation"] == 0
        assert reply["cached"] is False
        direct = service.search(columns[3][:6], 0.6, 0.3)
        assert [h["column_id"] for h in reply["hits"]] == \
            direct.result.column_ids
        for hit in reply["hits"]:
            assert isinstance(hit["match_count"], int)
            assert 0.0 <= hit["joinability"] <= 1.0

    def test_search_cached_on_second_call(self, served, columns):
        _, client = served
        first = client.search(vectors=columns[2][:5], tau=0.6, joinability=0.3)
        second = client.search(vectors=columns[2][:5], tau=0.6, joinability=0.3)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["hits"] == first["hits"]

    def test_topk(self, served, columns):
        _, client = served
        reply = client.topk(vectors=columns[0][:6], tau=0.6, k=4)
        assert reply["k"] == 4
        assert len(reply["hits"]) <= 4
        joinabilities = [h["joinability"] for h in reply["hits"]]
        assert joinabilities == sorted(joinabilities, reverse=True)

    def test_tau_fraction(self, served, columns):
        _, client = served
        reply = client.search(
            vectors=columns[1][:5], tau_fraction=0.06, joinability=0.3
        )
        assert reply["tau"] > 0

    def test_live_add_and_delete(self, served, columns):
        _, client = served
        probe = columns[4][:7]
        added = client.add_column(vectors=probe, table="live", column="key")
        assert added["generation"] == 1
        found = client.search(vectors=probe, tau=1e-6, joinability=1.0)
        assert added["column_id"] in [h["column_id"] for h in found["hits"]]
        removed = client.delete_column(added["column_id"])
        assert removed["generation"] == 2
        gone = client.search(vectors=probe, tau=1e-6, joinability=1.0)
        assert added["column_id"] not in [h["column_id"] for h in gone["hits"]]

    def test_stats_and_metrics(self, served, columns):
        _, client = served
        client.search(vectors=columns[6][:5], tau=0.6, joinability=0.3)
        stats = client.stats()
        assert stats["requests_served"] >= 1
        assert stats["cache"]["capacity"] == 32
        metrics = client.metrics()
        assert "pexeso_serve_cache_misses" in metrics
        assert "pexeso_serve_coalesced_batches" in metrics
        assert "pexeso_serve_generation" in metrics


class TestErrors:
    def test_unknown_path_404(self, served):
        _, client = served
        with pytest.raises(ServeError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_bad_body_400(self, served):
        _, client = served
        with pytest.raises(ServeError) as err:
            client._request("POST", "/search", body={"tau": 0.5})
        assert err.value.status == 400

    def test_vectors_and_values_both_given_400(self, served):
        _, client = served
        with pytest.raises(ServeError) as err:
            client._request(
                "POST", "/search",
                body={"vectors": [[0.0] * 6], "values": ["x"], "tau": 0.5},
            )
        assert err.value.status == 400

    def test_values_without_embedder_400(self, served):
        _, client = served
        with pytest.raises(ServeError) as err:
            client.search(values=["alice"], tau=0.5)
        assert err.value.status == 400

    def test_bare_string_values_400(self, served):
        # a bare string would be embedded character by character
        _, client = served
        with pytest.raises(ServeError) as err:
            client._request(
                "POST", "/search", body={"values": "alice", "tau": 0.5}
            )
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client._request(
                "POST", "/search", body={"vectors": "alice", "tau": 0.5}
            )
        assert err.value.status == 400

    def test_delete_unknown_column_404(self, served):
        _, client = served
        with pytest.raises(ServeError) as err:
            client.delete_column(10**6)
        assert err.value.status == 404

    def test_both_taus_400(self, served, columns):
        _, client = served
        with pytest.raises(ServeError) as err:
            client._request(
                "POST", "/search",
                body={"vectors": columns[0][:3].tolist(), "tau": 0.5,
                      "tau_fraction": 0.06},
            )
        assert err.value.status == 400


class TestClientHangUp:
    def test_a_client_that_hangs_up_is_no_server_error(self, columns, capfd):
        """Clients send ``/search`` and close before reading the reply.
        Writing it then fails with a broken pipe or a reset; the server
        treats that as a hang-up, prints nothing, and answers the next
        client."""
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        server = make_server(QueryService(index, window_ms=0, cache_size=0), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        body = json.dumps(
            {"vectors": columns[3][:6].tolist(), "tau": 0.6, "joinability": 0.3}
        ).encode()
        request = (
            f"POST /search HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        try:
            for _ in range(5):
                with socket.create_connection(server.server_address[:2]) as sock:
                    sock.sendall(request)
            reply = ServeClient(server.url).search(
                vectors=columns[3][:6], tau=0.6, joinability=0.3
            )
            assert reply["hits"]
        finally:
            server.close()  # drains the hung-up requests' handlers
            thread.join(timeout=5.0)
        assert capfd.readouterr().err == ""

    def test_a_reset_before_the_headers_end_is_no_server_error(
        self, columns, capfd
    ):
        """Clients send a request line and one header, then reset the
        connection (``SO_LINGER`` 0). Reading the next header line then
        fails with a reset; the server treats that as a hang-up too."""
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        server = make_server(QueryService(index, window_ms=0, cache_size=0), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        linger = struct.pack("ii", 1, 0)
        try:
            for _ in range(5):
                with socket.create_connection(server.server_address[:2]) as sock:
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
                    sock.sendall(b"POST /search HTTP/1.1\r\nHost: x\r\n")
            reply = ServeClient(server.url).search(
                vectors=columns[3][:6], tau=0.6, joinability=0.3
            )
            assert reply["hits"]
        finally:
            server.close()
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert capfd.readouterr().err == ""


class TestPartitionedLayout:
    def test_partitioned_service_over_http(self, columns, tmp_path):
        lake = PartitionedPexeso(
            n_pivots=3, levels=3, n_partitions=3, spill_dir=tmp_path / "lake"
        ).fit(columns)
        service = QueryService(lake, window_ms=0)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServeClient(server.url)
            probe = columns[9][:6]
            reply = client.search(vectors=probe, tau=0.6, joinability=0.3)
            single = PexesoIndex.build(columns, n_pivots=3, levels=3)
            from repro.core.search import pexeso_search

            want = pexeso_search(single, probe, 0.6, 0.3)
            assert [h["column_id"] for h in reply["hits"]] == want.column_ids
            assert client.stats()["partitioned"] is True

            added = client.add_column(vectors=probe)
            found = client.search(vectors=probe, tau=1e-6, joinability=1.0)
            assert added["column_id"] in [h["column_id"] for h in found["hits"]]
            client.delete_column(added["column_id"])
        finally:
            server.shutdown()
            server.server_close()


class TestMakeServerFromDirectory:
    def test_serves_saved_index_with_catalog(self, columns, tmp_path):
        import json

        from repro.core.persistence import save_index

        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        out = save_index(index, tmp_path / "idx")
        (out / "catalog.json").write_text(json.dumps({
            "columns": [
                {"table": f"t{i}", "column": "key"} for i in range(len(columns))
            ],
            "embedder": {"dim": 6, "seed": 0},
            "preprocess": True,
        }))
        server = make_server(out, port=0, window_ms=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServeClient(server.url)
            reply = client.search(vectors=columns[0][:5], tau=0.6,
                                  joinability=0.3)
            for hit in reply["hits"]:
                assert hit["table"].startswith("t")
            # the catalog embedder enables string queries
            strings = client.search(values=["alice", "bob"], tau_fraction=0.06,
                                    joinability=0.5)
            assert "hits" in strings
        finally:
            server.shutdown()
            server.server_close()
