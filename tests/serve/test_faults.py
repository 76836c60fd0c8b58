"""Fault injector determinism, jittered retries, admission and drain."""

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.index import PexesoIndex
from repro.core.metric import normalize_rows
from repro.serve.client import ServeClient, ServeError
from repro.serve.faults import (
    FaultInjector,
    InjectedBlackhole,
    InjectedDrop,
)
from repro.serve.server import AdmissionController, make_server
from repro.serve.service import QueryService


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(77)
    return [
        normalize_rows(rng.normal(size=(int(rng.integers(5, 10)), 6)))
        for _ in range(10)
    ]


@pytest.fixture()
def service(columns):
    index = PexesoIndex.build(columns, n_pivots=3, levels=3)
    return QueryService(index, window_ms=None, cache_size=0)


def running_server(service, **kwargs):
    server = make_server(service, port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


class TestInjectorScheduling:
    def test_nth_first_every_are_deterministic(self):
        injector = FaultInjector(seed=0)
        injector.script("drop", nth=[1, 3])
        fired = [
            bool(injector.intercept("t", "POST", "/search")) for _ in range(5)
        ]
        assert fired == [False, True, False, True, False]

        injector.clear()
        injector.script("drop", first=2)
        fired = [
            bool(injector.intercept("t", "POST", "/search")) for _ in range(4)
        ]
        assert fired == [True, True, False, False]

        injector.clear()
        injector.script("drop", every=3)
        fired = [
            bool(injector.intercept("t", "POST", "/search")) for _ in range(6)
        ]
        assert fired == [True, False, False, True, False, False]

    def test_probability_replays_with_same_seed(self):
        def run(seed):
            injector = FaultInjector(seed=seed)
            injector.script("delay", probability=0.4, delay=0.0)
            return [
                bool(injector.intercept("t", "POST", "/search"))
                for _ in range(40)
            ]

        assert run(7) == run(7)
        assert run(7) != run(8)  # astronomically unlikely to collide

    def test_matchers_scope_by_method_path_target(self):
        injector = FaultInjector()
        injector.script("drop", method="POST", path="/search", target="w1")
        assert not injector.intercept("w1", "GET", "/search")
        assert not injector.intercept("w1", "POST", "/topk")
        assert not injector.intercept("w2", "POST", "/search")
        assert injector.intercept("w1", "POST", "/search")

    def test_times_caps_total_firings(self):
        injector = FaultInjector()
        injector.script("drop", times=2)
        fired = sum(
            bool(injector.intercept("t", "POST", "/x")) for _ in range(5)
        )
        assert fired == 2
        assert injector.fired("drop") == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().script("meteor")

    def test_client_hook_raises_typed_exceptions(self):
        injector = FaultInjector()
        rule = injector.script("drop", first=1)
        with pytest.raises(InjectedDrop):
            injector.before_send("t", "POST", "/search")
        injector.unscript(rule)
        injector.script("blackhole", delay=0.0)
        with pytest.raises(InjectedBlackhole):
            injector.before_send("t", "POST", "/search")
        # both are transport-level types the retry/failover machinery sees
        assert issubclass(InjectedDrop, ConnectionError)
        assert issubclass(InjectedBlackhole, TimeoutError)


class TestClientFaultsAndJitter:
    def test_client_retries_through_injected_drops(self, service, columns):
        server, thread = running_server(service)
        try:
            injector = FaultInjector(seed=1)
            injector.script("drop", first=2, path="/search")
            client = ServeClient(
                server.url, retries=2, retry_backoff=0.001,
                fault_injector=injector,
            )
            reply = client.search(
                vectors=columns[0][:4], tau=0.6, joinability=0.3
            )
            assert reply["hits"] is not None
            assert injector.fired("drop") == 2
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_retry_budget_exhausted_raises_the_drop(self, service, columns):
        server, thread = running_server(service)
        try:
            injector = FaultInjector(seed=1)
            injector.script("drop", path="/search")  # every attempt
            client = ServeClient(
                server.url, retries=1, retry_backoff=0.001,
                fault_injector=injector,
            )
            with pytest.raises(ConnectionError):
                client.search(vectors=columns[0][:4], tau=0.6, joinability=0.3)
            assert injector.fired("drop") == 2  # initial + one retry
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_retry_never_outlives_the_deadline(self, service, columns):
        """The first send is black-holed for longer than the whole
        budget: the call must fail with the transport error rather than
        retry with a budget it no longer has."""
        arrivals = FaultInjector()
        arrivals.script("delay", path="/search", delay=0.0)  # counts sends
        server, thread = running_server(service, fault_injector=arrivals)
        try:
            injector = FaultInjector()
            injector.script("blackhole", path="/search", delay=0.2, first=1)
            client = ServeClient(
                server.url, retries=1, retry_backoff=0.001,
                fault_injector=injector,
            )
            with pytest.raises(OSError):
                client.search(
                    vectors=columns[0][:4], tau=0.6, joinability=0.3,
                    deadline_ms=100.0,
                )
            assert arrivals.fired("delay") == 0, "no second /search was sent"
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_full_jitter_desynchronizes_backoff(self, service, columns):
        """Two clients with the same schedule but different RNGs must not
        sleep the same deterministic ceiling (the retry-storm fix)."""
        server, thread = running_server(service)
        try:
            sleeps = {}
            for name, seed in (("a", 5), ("b", 6)):
                injector = FaultInjector(seed=1)
                injector.script("drop", first=3, path="/search")
                client = ServeClient(
                    server.url, retries=3, retry_backoff=0.05,
                    retry_rng=random.Random(seed), fault_injector=injector,
                )
                observed = []
                client._backoff_sleep = (
                    lambda attempt, c=client, o=observed: o.append(
                        c._retry_rng.uniform(0.0, c.retry_backoff * 2 ** attempt)
                    )
                )
                client.search(vectors=columns[0][:4], tau=0.6, joinability=0.3)
                sleeps[name] = observed
            assert len(sleeps["a"]) == len(sleeps["b"]) == 3
            assert sleeps["a"] != sleeps["b"]
            ceilings = [0.05, 0.1, 0.2]
            for vals in sleeps.values():
                assert all(0.0 <= v <= c for v, c in zip(vals, ceilings))
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_jitter_off_reproduces_deterministic_backoff(self):
        client = ServeClient("http://127.0.0.1:1", retry_jitter=False,
                             retry_backoff=0.01)
        started = time.monotonic()
        client._backoff_sleep(1)
        assert time.monotonic() - started >= 0.02


class TestServerFaults:
    def test_injected_error_answers_without_running_the_query(
        self, service, columns
    ):
        injector = FaultInjector()
        injector.script("error", path="/search", status=503, first=1)
        server, thread = running_server(service, fault_injector=injector)
        try:
            client = ServeClient(server.url)
            with pytest.raises(ServeError) as err:
                client.search(vectors=columns[0][:4], tau=0.6, joinability=0.3)
            assert err.value.status == 503
            assert "injected" in err.value.message
            # the schedule is spent: the next request runs normally
            reply = client.search(
                vectors=columns[0][:4], tau=0.6, joinability=0.3
            )
            assert reply["hits"] is not None
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_injected_drop_kills_the_connection(self, service, columns):
        injector = FaultInjector()
        injector.script("drop", path="/search", first=1)
        server, thread = running_server(service, fault_injector=injector)
        try:
            client = ServeClient(server.url)
            with pytest.raises((ConnectionError, OSError)):
                client.search(vectors=columns[0][:4], tau=0.6, joinability=0.3)
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_injected_delay_slows_the_worker(self, service, columns):
        injector = FaultInjector()
        injector.script("delay", path="/search", delay=0.2, first=1)
        server, thread = running_server(service, fault_injector=injector)
        try:
            client = ServeClient(server.url)
            started = time.monotonic()
            client.search(vectors=columns[0][:4], tau=0.6, joinability=0.3)
            assert time.monotonic() - started >= 0.2
        finally:
            server.close()
            thread.join(timeout=5.0)


class TestAdmissionControl:
    def test_overload_sheds_429_with_retry_after(self, service, columns):
        release = threading.Event()
        real_search = service.search

        def slow_search(*args, **kwargs):
            release.wait(timeout=10.0)
            return real_search(*args, **kwargs)

        service.search = slow_search
        server, thread = running_server(service, max_concurrent=2)
        try:
            def request():
                client = ServeClient(server.url, timeout=15.0)
                try:
                    reply = client.search(
                        vectors=columns[0][:4], tau=0.6, joinability=0.3
                    )
                    return ("ok", reply)
                except ServeError as exc:
                    return ("error", exc)

            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(request) for _ in range(6)]
                time.sleep(0.3)  # let 2 enter, 4 get shed
                release.set()
                outcomes = [f.result() for f in futures]
            shed = [o for kind, o in outcomes if kind == "error"]
            served = [o for kind, o in outcomes if kind == "ok"]
            assert len(served) >= 2 and len(shed) >= 1
            for exc in shed:
                assert exc.status == 429
                assert exc.retry_after is not None and exc.retry_after > 0
            snapshot = server.admission.snapshot()
            assert snapshot["admission_shed"] == len(shed)
            # the handler releases its slot just *after* the reply hits
            # the wire, so give the finally blocks a beat to run
            deadline = time.monotonic() + 2.0
            while (
                server.admission.snapshot()["admission_inflight"]
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert server.admission.snapshot()["admission_inflight"] == 0
        finally:
            release.set()
            server.close()
            thread.join(timeout=5.0)

    def test_get_endpoints_bypass_admission(self, service, columns):
        """Ops visibility survives overload: /metrics is never shed."""
        server, thread = running_server(service, max_concurrent=1)
        try:
            client = ServeClient(server.url)
            server.admission.try_acquire()  # saturate the gate
            try:
                assert client.healthz()["ok"] is True
                metrics = client.metrics()
                assert "pexeso_serve_admission_capacity 1.0" in metrics
                assert "pexeso_serve_admission_inflight 1.0" in metrics
                with pytest.raises(ServeError) as err:
                    client.search(
                        vectors=columns[0][:4], tau=0.6, joinability=0.3
                    )
                assert err.value.status == 429
            finally:
                server.admission.release()
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_metrics_expose_shed_and_deadline_gauges(self, service, columns):
        server, thread = running_server(service)
        try:
            client = ServeClient(server.url)
            metrics = client.metrics()
            assert "pexeso_serve_admission_shed 0.0" in metrics
            assert "pexeso_serve_deadline_rejects 0.0" in metrics
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_controller_validates_capacity(self):
        with pytest.raises(ValueError):
            AdmissionController(0)
        unlimited = AdmissionController(None)
        assert all(unlimited.try_acquire() for _ in range(64))


class TestDeadlineRejection:
    def test_expired_budget_rejected_504_before_work(self, service, columns):
        server, thread = running_server(service)
        try:
            client = ServeClient(server.url)
            with pytest.raises(ServeError) as err:
                client.search(
                    vectors=columns[0][:4], tau=0.6, joinability=0.3,
                    deadline_ms=0.0,
                )
            assert err.value.status == 504
            assert server.deadline_rejects == 1
            assert "pexeso_serve_deadline_rejects 1.0" in client.metrics()
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_live_budget_is_honoured(self, service, columns):
        server, thread = running_server(service)
        try:
            client = ServeClient(server.url)
            reply = client.search(
                vectors=columns[0][:4], tau=0.6, joinability=0.3,
                deadline_ms=30_000.0,
            )
            assert reply["hits"] is not None
            assert server.deadline_rejects == 0
        finally:
            server.close()
            thread.join(timeout=5.0)


class TestDrainWindow:
    def test_mid_drain_requests_get_fast_503(self, service, columns):
        """New arrivals during close() are refused immediately with
        Retry-After while the in-flight request drains normally."""
        release = threading.Event()
        real_search = service.search

        def slow_search(*args, **kwargs):
            release.wait(timeout=10.0)
            return real_search(*args, **kwargs)

        service.search = slow_search
        server, thread = running_server(service)
        try:
            inflight_outcome = {}

            def inflight():
                inflight_outcome["reply"] = ServeClient(
                    server.url, timeout=15.0
                ).search(vectors=columns[0][:4], tau=0.6, joinability=0.3)

            requester = threading.Thread(target=inflight)
            requester.start()
            time.sleep(0.2)  # request is now inside slow_search

            closer = threading.Thread(target=server.close)
            closer.start()
            time.sleep(0.2)  # drain is underway, socket still accepting

            started = time.monotonic()
            with pytest.raises(ServeError) as err:
                ServeClient(server.url, timeout=15.0).search(
                    vectors=columns[0][:4], tau=0.6, joinability=0.3
                )
            elapsed = time.monotonic() - started
            assert err.value.status == 503
            assert err.value.retry_after is not None
            assert elapsed < 2.0, "mid-drain refusal must be fast"

            release.set()
            closer.join(timeout=10.0)
            requester.join(timeout=10.0)
            assert inflight_outcome["reply"]["hits"] is not None
        finally:
            release.set()
            server.close()
            thread.join(timeout=5.0)
