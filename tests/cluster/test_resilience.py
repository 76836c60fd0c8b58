"""Resilience layer: deadlines, breakers, hedged reads, worker flapping."""

import threading
import time

import numpy as np
import pytest

from repro.cluster import LocalCluster
from repro.cluster.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    LatencyTracker,
    ResilienceConfig,
)
from repro.core.metric import normalize_rows
from repro.core.out_of_core import LakeSearcher, PartitionedPexeso
from repro.core.persistence import load_partitioned, save_partitioned
from repro.serve.client import ServeError
from repro.serve.faults import FaultInjector, InjectedDrop


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(23)
    return [
        normalize_rows(rng.normal(size=(int(rng.integers(4, 12)), 6)))
        for _ in range(18)
    ]


@pytest.fixture(scope="module")
def lake_dir(columns, tmp_path_factory):
    directory = tmp_path_factory.mktemp("resilience") / "lake"
    lake = PartitionedPexeso(n_pivots=2, levels=3, n_partitions=4).fit(columns)
    save_partitioned(lake, directory)
    return directory


@pytest.fixture()
def reference(lake_dir):
    return LakeSearcher(load_partitioned(lake_dir))


def parity(reply_hits, want):
    got = [
        (h["column_id"], h["match_count"], h["joinability"])
        for h in reply_hits
    ]
    return got == [
        (h.column_id, h.match_count, h.joinability) for h in want.joinable
    ]


class TestDeadline:
    def test_remaining_counts_down_and_expires(self):
        deadline = Deadline.from_ms(50.0)
        assert 0.0 < deadline.remaining() <= 0.05
        assert not deadline.expired()
        deadline.check("warmup")  # must not raise while live
        time.sleep(0.06)
        assert deadline.expired()
        assert deadline.remaining_ms() < 0
        with pytest.raises(DeadlineExceeded) as err:
            deadline.check("scatter wave")
        assert "scatter wave" in str(err.value)

    def test_zero_budget_is_born_expired(self):
        assert Deadline.from_ms(0.0).expired()


class TestLatencyTracker:
    def test_default_until_first_sample(self):
        tracker = LatencyTracker(default=0.07)
        assert tracker.quantile(0.95) == 0.07
        tracker.record(0.2)
        assert tracker.quantile(0.95) == 0.2

    def test_nearest_rank_quantile_and_window(self):
        tracker = LatencyTracker(window=100)
        for ms in range(1, 101):
            tracker.record(ms / 1000.0)
        # nearest-rank: the ceil(q*n)-th smallest sample (1-based)
        assert tracker.quantile(0.95) == pytest.approx(0.095)
        assert tracker.quantile(0.5) == pytest.approx(0.050)
        # the window slides: 100 huge samples push the old ones out
        for _ in range(100):
            tracker.record(5.0)
        assert tracker.quantile(0.5) == 5.0
        assert tracker.count == 200

    def test_nearest_rank_exact_multiple_off_by_one(self):
        # Regression: int(q*n) picked the 20th smallest (the max) for
        # p95 of 20 samples; nearest-rank is the ceil(0.95*20) = 19th.
        tracker = LatencyTracker(window=20)
        for v in range(1, 21):
            tracker.record(float(v))
        assert tracker.quantile(0.95) == 19.0
        assert tracker.quantile(1.0) == 20.0
        assert tracker.quantile(0.05) == 1.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_threshold_gates_opening(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, clock=clock)
        assert breaker.record_failure() == BREAKER_CLOSED
        assert breaker.record_failure() == BREAKER_OPEN
        assert breaker.transitions["opened"] == 1

    def test_probe_granted_once_per_cooldown_window(self):
        clock = FakeClock()
        breaker = CircuitBreaker(cooldown=1.0, clock=clock)
        breaker.record_failure()
        assert not breaker.should_probe(), "cooldown not yet elapsed"
        clock.advance(1.0)
        assert breaker.should_probe()
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.should_probe(), "one probe per window"
        # the grant itself times out: a lost prober can't wedge the slot
        clock.advance(1.0)
        assert breaker.should_probe()

    def test_failed_probe_doubles_the_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(cooldown=1.0, max_cooldown=3.0, clock=clock)
        breaker.record_failure()
        assert breaker.current_cooldown() == 1.0
        clock.advance(1.0)
        assert breaker.should_probe()
        breaker.record_failure()  # probe failed -> open harder
        assert breaker.state == BREAKER_OPEN
        assert breaker.current_cooldown() == 2.0
        clock.advance(1.0)
        assert not breaker.should_probe(), "backoff doubled"
        clock.advance(1.0)
        assert breaker.should_probe()
        breaker.record_failure()
        assert breaker.current_cooldown() == 3.0, "capped at max_cooldown"

    def test_success_closes_and_resets_backoff(self):
        clock = FakeClock()
        breaker = CircuitBreaker(cooldown=1.0, clock=clock)
        for _ in range(3):  # rack up consecutive opens
            breaker.record_failure()
            clock.advance(breaker.current_cooldown())
            breaker.should_probe()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.current_cooldown() == 1.0
        assert breaker.transitions["closed"] == 1

    def test_ordinary_call_success_never_closes_an_open_breaker(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown=1.0, clock=clock)
        breaker.record_failure()
        breaker.record_call_success()  # closed: the failure is forgotten
        assert breaker.record_failure() == BREAKER_CLOSED
        assert breaker.record_failure() == BREAKER_OPEN
        breaker.record_call_success()  # a call in flight before the open
        assert breaker.state == BREAKER_OPEN
        clock.advance(1.0)
        assert breaker.should_probe()
        breaker.record_call_success()
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.transitions["closed"] == 0

    def test_trip_forces_open_and_closed_never_probes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=5, clock=clock)
        assert not breaker.should_probe()
        breaker.trip()
        assert breaker.state == BREAKER_OPEN
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestHedgedReads:
    def test_hedge_beats_a_slow_worker_with_exact_results(
        self, lake_dir, reference, columns
    ):
        """Worker 0 is scripted slow; the hedge fires to its replica and
        the first (exact) answer wins well before the primary returns."""
        slow = FaultInjector(seed=3)
        slow.script("delay", path="/search", delay=0.4)
        with LocalCluster(
            lake_dir,
            n_workers=2,
            replication=2,
            mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
            worker_fault_injectors=[slow, None],
            coordinator_kwargs=dict(
                resilience=ResilienceConfig(
                    hedge_default_delay=0.05, hedge_delay_max=0.05
                ),
            ),
        ) as cluster:
            query = columns[3][:5]
            want = reference.search(query, 0.6, 0.3)
            started = time.monotonic()
            reply = cluster.client.search(
                vectors=query, tau=0.6, joinability=0.3
            )
            elapsed = time.monotonic() - started
            assert parity(reply["hits"], want)
            coordinator = cluster.coordinator
            assert coordinator._hedges_fired >= 1
            assert coordinator._hedges_won >= 1
            assert elapsed < 0.4, "the hedged answer must not wait out the primary"
            described = coordinator.describe()["resilience"]
            assert described["hedges_fired"] >= 1
            assert described["hedges_won"] >= 1
            metrics = coordinator.metrics_text()
            assert "pexeso_serve_cluster_hedges_fired" in metrics
            assert "pexeso_serve_cluster_hedges_won" in metrics

    def test_hedging_off_is_respected(self, lake_dir, reference, columns):
        slow = FaultInjector(seed=3)
        slow.script("delay", path="/search", delay=0.2)
        with LocalCluster(
            lake_dir,
            n_workers=2,
            replication=2,
            mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
            worker_fault_injectors=[slow, None],
            coordinator_kwargs=dict(
                resilience=ResilienceConfig(hedge=False),
            ),
        ) as cluster:
            query = columns[3][:5]
            want = reference.search(query, 0.6, 0.3)
            reply = cluster.client.search(
                vectors=query, tau=0.6, joinability=0.3
            )
            assert parity(reply["hits"], want)
            assert cluster.coordinator._hedges_fired == 0


class HeldSearchDrop(FaultInjector):
    """A fault plane whose barrier holds the first ``/search`` send until
    ``release`` is set, then drops it; later sends pass."""

    def __init__(self):
        super().__init__()
        self.holding = threading.Event()
        self.release = threading.Event()

    def before_send(self, target, method, path):
        if path.startswith("/search") and not self.holding.is_set():
            self.holding.set()
            assert self.release.wait(10)
            raise InjectedDrop("held send dropped")
        super().before_send(target, method, path)


class TestHedgeLosers:
    def test_a_loser_failing_after_a_probe_leaves_health_alone(
        self, lake_dir, reference, columns
    ):
        """The primary call is held, so the hedge answers; a health check
        then finds both workers up, and only afterwards does the held
        call fail. That loser started before the probe, so it must not
        demote its worker."""
        held = HeldSearchDrop()
        with LocalCluster(
            lake_dir,
            n_workers=2,
            replication=2,
            mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
            coordinator_kwargs=dict(
                retries=0,
                fault_injector=held,
                resilience=ResilienceConfig(
                    hedge_default_delay=0.01, hedge_delay_max=0.01
                ),
            ),
        ) as cluster:
            coordinator = cluster.coordinator
            query = columns[3][:5]
            reply = cluster.client.search(vectors=query, tau=0.6, joinability=0.3)
            assert parity(reply["hits"], reference.search(query, 0.6, 0.3))
            assert held.holding.is_set() and coordinator._hedges_won >= 1
            assert coordinator.health_check() == ["up", "up"]
            held.release.set()
            for thread in threading.enumerate():
                if thread.name.startswith(("scatter-", "hedge-")):
                    thread.join(10)
            assert coordinator.shard_map.statuses() == ["up", "up"]
            assert coordinator._breakers[0].state == BREAKER_CLOSED
            assert coordinator._breakers[1].state == BREAKER_CLOSED


class TestDeadlinePropagation:
    def test_expired_budget_rejected_at_the_front_door(
        self, lake_dir, columns
    ):
        with LocalCluster(
            lake_dir,
            n_workers=2,
            replication=2,
            mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
        ) as cluster:
            with pytest.raises(ServeError) as err:
                cluster.client.search(
                    vectors=columns[0][:4], tau=0.6, joinability=0.3,
                    deadline_ms=0.0,
                )
            assert err.value.status == 504

    def test_budget_expiring_mid_request_counts_a_violation(
        self, lake_dir, columns
    ):
        """A budget that survives the front door but dies before the
        scatter is refused by the coordinator's own deadline check."""
        with LocalCluster(
            lake_dir,
            n_workers=2,
            replication=2,
            mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
        ) as cluster:
            coordinator = cluster.coordinator
            dead = Deadline.from_ms(0.0)
            with pytest.raises(DeadlineExceeded):
                coordinator.search(columns[0][:4], 0.6, 0.3, deadline=dead)
            assert coordinator._deadline_violations == 1
            assert (
                "pexeso_serve_cluster_deadline_violations 1"
                in coordinator.metrics_text()
            )

    def test_budget_running_out_in_a_worker_call_demotes_nobody(
        self, lake_dir, reference, columns
    ):
        """The budget-capped socket timeout fires on a slow (not dead)
        worker: a deadline violation, never a breaker failure, so with
        replication 1 the next request is still served exactly."""
        slow = FaultInjector(seed=5)
        slow.script("delay", path="/search", delay=0.6, first=1)
        with LocalCluster(
            lake_dir,
            n_workers=2,
            replication=1,
            mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
            worker_fault_injectors=[slow, None],
            coordinator_kwargs=dict(retries=0),
        ) as cluster:
            coordinator = cluster.coordinator
            query = columns[4][:5]
            with pytest.raises(DeadlineExceeded):
                coordinator.search(query, 0.6, 0.3, deadline=Deadline.from_ms(150.0))
            assert coordinator._deadline_violations == 1
            assert coordinator.shard_map.statuses() == ["up", "up"]
            assert [b.state for b in coordinator._breakers] == [BREAKER_CLOSED] * 2
            want = reference.search(query, 0.6, 0.3)
            reply = cluster.client.search(vectors=query, tau=0.6, joinability=0.3)
            assert parity(reply["hits"], want)

    def test_generous_budget_answers_exactly(
        self, lake_dir, reference, columns
    ):
        with LocalCluster(
            lake_dir,
            n_workers=2,
            replication=2,
            mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
        ) as cluster:
            query = columns[5][:5]
            want = reference.search(query, 0.6, 0.3)
            reply = cluster.client.search(
                vectors=query, tau=0.6, joinability=0.3, deadline_ms=30_000.0,
            )
            assert parity(reply["hits"], want)
            assert cluster.coordinator._deadline_violations == 0

    def test_default_deadline_applies_when_none_sent(self, lake_dir, columns):
        with LocalCluster(
            lake_dir,
            n_workers=2,
            replication=2,
            mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
            coordinator_kwargs=dict(
                resilience=ResilienceConfig(default_deadline_ms=0.0),
            ),
        ) as cluster:
            with pytest.raises(DeadlineExceeded):
                cluster.coordinator.search(columns[0][:4], 0.6, 0.3)


class TestWorkerFlapping:
    def test_demote_probe_repromote_cycles_converge(
        self, lake_dir, reference, columns
    ):
        """Repeated flaps: scripted transport drops demote worker 0, the
        half-open probe replays what it missed and re-promotes it, and
        generation vectors never regress across the whole sequence."""
        coord_faults = FaultInjector(seed=9)
        clock = FakeClock()
        with LocalCluster(
            lake_dir,
            n_workers=2,
            replication=2,
            mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
            coordinator_kwargs=dict(
                fault_injector=coord_faults,
                retries=0,
                resilience=ResilienceConfig(breaker_cooldown=0.01),
                breaker_clock=clock,
            ),
        ) as cluster:
            coordinator = cluster.coordinator
            worker0_url = coordinator.shard_map.worker(0).url
            rng = np.random.default_rng(41)
            previous = coordinator.generation_vector()

            for cycle in range(3):
                # one transport drop on the next call to worker 0
                rule = coord_faults.script(
                    "drop", target=worker0_url, times=1
                )
                query = columns[cycle][:4]
                want = reference.search(query, 0.6, 0.3)
                reply = cluster.client.search(
                    vectors=query, tau=0.6, joinability=0.3
                )
                assert parity(reply["hits"], want), (
                    "failover answer must stay exact"
                )
                coord_faults.unscript(rule)
                assert coordinator.shard_map.statuses()[0] == "down"
                assert coordinator._breakers[0].state != BREAKER_CLOSED
                metrics = coordinator.metrics_text()
                assert 'pexeso_serve_cluster_worker_up{slot="0"} 0' in metrics
                assert 'pexeso_serve_cluster_breaker_open{slot="0"} 1' in metrics

                # mutate while down: worker 0 must catch up via replay
                newcol = normalize_rows(rng.normal(size=(5, 6)))
                gid, generations = coordinator.add_column(newcol)
                assert all(
                    g >= p for g, p in zip(generations, previous)
                ), "generation vector must never regress"
                previous = generations

                # breaker cooldown elapses -> the half-open probe replays
                # the missed mutation and re-promotes
                assert coordinator.probe_half_open() == []  # still cooling
                clock.advance(2 * coordinator._breakers[0].current_cooldown())
                probed = coordinator.probe_half_open()
                assert probed == [0]
                assert coordinator.shard_map.statuses() == ["up", "up"]
                assert coordinator._breakers[0].state == BREAKER_CLOSED
                current = coordinator.generation_vector()
                assert all(g >= p for g, p in zip(current, previous))
                previous = current

                # the rejoined replica answers the added column exactly
                found = cluster.client.search(
                    vectors=newcol[:3], tau=1e-6, joinability=1.0
                )
                assert gid in [h["column_id"] for h in found["hits"]]

            described = coordinator.describe()["resilience"]
            assert described["worker_failovers"][0] == 3
            assert described["breakers"] == [BREAKER_CLOSED, BREAKER_CLOSED]
            assert coordinator._breakers[0].transitions["closed"] == 3

    def test_late_success_to_a_demoted_worker_leaves_it_to_the_probe(
        self, lake_dir, columns
    ):
        """A call already in flight when its worker was demoted (a hedge
        loser) answers late: the breaker must stay open, or the slot the
        shard map lists as down would never be granted a probe again."""
        clock = FakeClock()
        with LocalCluster(
            lake_dir,
            n_workers=2,
            replication=2,
            mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
            coordinator_kwargs=dict(
                resilience=ResilienceConfig(breaker_cooldown=1.0),
                breaker_clock=clock,
            ),
        ) as cluster:
            coordinator = cluster.coordinator

            def demoted_mid_flight(client, parts, deadline_ms, span):
                coordinator._demote(0)
                return client.healthz()

            coordinator._timed_call(0, None, demoted_mid_flight, None)
            assert coordinator.shard_map.statuses()[0] == "down"
            assert coordinator._breakers[0].state == BREAKER_OPEN
            clock.advance(1.0)
            assert coordinator.probe_half_open() == [0]
            assert coordinator.shard_map.statuses() == ["up", "up"]
            assert coordinator._breakers[0].state == BREAKER_CLOSED

    def test_probe_backs_off_while_the_worker_stays_dead(
        self, lake_dir, columns
    ):
        clock = FakeClock()
        with LocalCluster(
            lake_dir,
            n_workers=2,
            replication=2,
            mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
            coordinator_kwargs=dict(
                retries=0,
                resilience=ResilienceConfig(
                    breaker_cooldown=0.05, breaker_max_cooldown=10.0
                ),
                breaker_clock=clock,
            ),
        ) as cluster:
            coordinator = cluster.coordinator
            cluster.kill_worker(0)
            reply = cluster.client.search(
                vectors=columns[0][:4], tau=0.6, joinability=0.3
            )
            assert reply["hits"] is not None  # failover served it
            assert coordinator.shard_map.statuses()[0] == "down"

            assert coordinator.probe_half_open() == [], "cooldown gates probes"
            clock.advance(0.06)
            assert coordinator.probe_half_open() == [0]
            # the probe failed against a dead socket: cooldown doubled
            assert coordinator._breakers[0].current_cooldown() >= 0.1
            clock.advance(0.06)
            assert coordinator.probe_half_open() == [], "backoff after failure"
            assert coordinator.shard_map.statuses()[0] == "down"


class TestClusterAdmission:
    def test_search_sheds_while_lifecycle_stays_open(self, lake_dir, columns):
        with LocalCluster(
            lake_dir,
            n_workers=2,
            replication=2,
            mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
            server_kwargs=dict(max_concurrent=1),
        ) as cluster:
            server = cluster.coordinator_server
            assert server.admission.try_acquire()  # saturate the gate
            try:
                with pytest.raises(ServeError) as err:
                    cluster.client.search(
                        vectors=columns[0][:4], tau=0.6, joinability=0.3
                    )
                assert err.value.status == 429
                assert err.value.retry_after is not None
                # lifecycle and mutation traffic is never shed
                assert cluster.client.healthz()["ok"] is True
                assert cluster.client.cluster()["serviceable"] is True
                newcol = normalize_rows(
                    np.random.default_rng(2).normal(size=(4, 6))
                )
                added = cluster.client.add_column(vectors=newcol)
                assert added["column_id"] >= 0
                metrics = cluster.client.metrics()
                assert "pexeso_serve_admission_shed 1.0" in metrics
            finally:
                server.admission.release()
            reply = cluster.client.search(
                vectors=columns[0][:4], tau=0.6, joinability=0.3
            )
            assert reply["hits"] is not None
