"""Graceful shutdown (drain semantics) and shard-LRU metrics exposition."""

import threading
import time

import numpy as np
import pytest

from repro.core.metric import normalize_rows
from repro.core.out_of_core import PartitionedPexeso
from repro.serve.client import ServeClient
from repro.serve.server import make_server
from repro.serve.service import QueryService


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(31)
    return [
        normalize_rows(rng.normal(size=(int(rng.integers(5, 10)), 6)))
        for _ in range(12)
    ]


class TestGracefulShutdown:
    def test_close_waits_for_inflight_request(self, columns):
        """close() must drain a request that is already executing."""
        from repro.core.index import PexesoIndex

        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        service = QueryService(index, window_ms=None, cache_size=0)
        release = threading.Event()
        real_search = service.search

        def slow_search(*args, **kwargs):
            release.wait(timeout=5.0)
            return real_search(*args, **kwargs)

        service.search = slow_search
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()

        client = ServeClient(server.url)
        outcome = {}

        def request():
            outcome["reply"] = client.search(
                vectors=columns[0][:4], tau=0.6, joinability=0.3
            )

        requester = threading.Thread(target=request)
        requester.start()
        time.sleep(0.15)  # the request is now inside slow_search

        closer = threading.Thread(target=server.close)
        closer.start()
        time.sleep(0.1)
        assert closer.is_alive(), "close() must wait for the in-flight request"
        release.set()
        closer.join(timeout=5.0)
        requester.join(timeout=5.0)
        assert not closer.is_alive()
        # the drained request completed normally, not with a reset socket
        assert outcome["reply"]["hits"] is not None

    def test_close_without_serving_does_not_deadlock(self, columns):
        from repro.core.index import PexesoIndex

        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        server = make_server(QueryService(index), port=0)
        server.close()  # serve_forever never ran; must return immediately

    def test_context_manager_closes(self, columns):
        from repro.core.index import PexesoIndex

        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        with make_server(QueryService(index), port=0) as server:
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            assert ServeClient(server.url).healthz()["ok"] is True
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_drain_deadline_bounds_the_wait(self, columns):
        """A handler that never finishes cannot wedge close() forever."""
        from repro.core.index import PexesoIndex

        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        service = QueryService(index, window_ms=None, cache_size=0)
        release = threading.Event()
        handlers = []

        def stuck_search(*args, **kwargs):
            handlers.append(threading.current_thread())
            release.wait(30.0)

        service.search = stuck_search
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        def doomed_request():
            try:
                ServeClient(server.url, timeout=2.0).search(
                    vectors=columns[0][:4], tau=0.6, joinability=0.3
                )
            except Exception:
                pass  # abandoned by the bounded drain — expected

        hang = threading.Thread(target=doomed_request, daemon=True)
        hang.start()
        time.sleep(0.15)
        started = time.monotonic()
        try:
            server.close(drain_seconds=0.3)
            assert time.monotonic() - started < 5.0
        finally:
            # the abandoned handler must not outlive the test
            release.set()
            for worker in [hang, thread, *handlers]:
                worker.join(timeout=5.0)
                assert not worker.is_alive()


class TestShardLRUMetrics:
    def test_metrics_expose_lru_gauges(self, columns, tmp_path):
        """Spill-mode shard residency is observable through /metrics."""
        lake = PartitionedPexeso(
            n_pivots=2, levels=3, n_partitions=3,
            spill_dir=tmp_path / "spill", lru_shards=2,
        ).fit(columns)
        service = QueryService(lake, window_ms=None, cache_size=0)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServeClient(server.url)
            client.search(vectors=columns[2][:4], tau=0.6, joinability=0.3)
            metrics = client.metrics()
            assert "pexeso_serve_shard_lru_size" in metrics
            assert "pexeso_serve_shard_lru_capacity 2" in metrics
            assert "pexeso_serve_shard_lru_misses" in metrics
            assert "pexeso_serve_resident_shards" in metrics
            assert "pexeso_serve_shard_load_seconds" in metrics
            info = service.lru_info()
            assert info["lru_size"] <= 2
            assert info["lru_misses"] >= 1
            # /stats carries the same structure
            assert client.stats()["shard_lru"]["lru_capacity"] == 2
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_single_index_has_no_lru_info(self, columns):
        from repro.core.index import PexesoIndex

        service = QueryService(PexesoIndex.build(columns, n_pivots=2, levels=3))
        assert service.lru_info() is None
