"""Tail latency under chaos — hedged replica reads and load shedding.

Not a paper figure: this benchmarks the repository's resilience layer
(``repro/cluster/resilience``, ``repro/serve/faults``). Two phases:

* **Hedging** — a replicated 2-worker cluster serves a bursty trace
  while worker 0 is scripted (deterministically, via
  :class:`~repro.serve.faults.FaultInjector`) to stall a fraction of its
  search handling by several hundred milliseconds — the classic
  straggler. The same trace and the same fault seed run twice: hedged
  replica reads off, then on. With hedging on, the coordinator fans a
  slow shard call out to the replica after the tracked p95 delay and the
  first answer wins, so the straggler leaves the tail. The headline
  assertion is **p99 improves by >= 30%** — with every reply, both
  arms, checked hit-for-hit against single-node search (a hedge can
  change *which* worker answers, never *what* it answers).

* **Load shedding** — a single serving node with admission capacity 2
  takes a 16-client synchronized burst (far past 2x capacity) of
  artificially slowed requests. The bounded gate must shed the excess
  with fast 429 + Retry-After while every admitted request returns the
  exact answer — and the process must drain back to zero in-flight
  (no deadlock) within the run's bounded wall clock.
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path

from common import ResultTable, make_dataset, write_bench_json

from repro.cluster import LocalCluster
from repro.cluster.client import ClusterClient
from repro.cluster.resilience import ResilienceConfig
from repro.core.index import PexesoIndex
from repro.core.out_of_core import LakeSearcher, PartitionedPexeso
from repro.core.persistence import load_partitioned, save_partitioned
from repro.core.search import pexeso_search
from repro.core.thresholds import distance_threshold
from repro.serve.client import ServeClient, ServeError
from repro.serve.faults import FaultInjector
from repro.serve.server import make_server
from repro.serve.service import QueryService

TAU_FRACTION = 0.06
T = 0.3
N_PARTITIONS = 4
N_CLIENTS = 2
N_REQUESTS = 160
SLOW_PROBABILITY = 0.08
SLOW_DELAY = 0.75
MIN_P99_IMPROVEMENT = 0.30

OVERLOAD_CAPACITY = 2
OVERLOAD_CLIENTS = 16
OVERLOAD_REQUESTS_PER_CLIENT = 3
OVERLOAD_WORK_DELAY = 0.05


def tail_like(scale: float = 1.0, seed: int = 5):
    """A deliberately light repository for tail-latency measurement.

    Unlike the throughput benchmarks, this one needs the *base* request
    cost to sit far below the injected straggler delay — a GIL-saturated
    thread-mode cluster would bury the 350ms stall in queueing noise and
    make hedging fire on every call instead of only on stragglers.
    """
    return make_dataset(
        "TAIL-like",
        n_tables=max(8, int(28 * scale)),
        rows_range=(8, 20),
        dim=16,
        n_entities=80,
        query_rows=12,
        seed=seed,
    )


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (same rule as the hedge-delay tracker)."""
    ranked = sorted(samples)
    rank = min(len(ranked) - 1, max(0, int(q * len(ranked))))
    return ranked[rank]


def make_query_pool(dataset, n_queries: int, query_rows: int = 20):
    """Distinct embedded query columns, reused round-robin by the trace."""
    queries = []
    for i in range(n_queries):
        table, _ = dataset.gen.generate_query_table(
            n_rows=query_rows, domain=i % 5, name=f"tail_query_{i}"
        )
        queries.append(
            dataset.gen.embedder.embed_column(table.column("key").values)
        )
    return queries


def run_bursty_trace(
    url: str, queries, expected, n_requests: int, n_clients: int,
    tau: float, joinability, burst: int = 4,
):
    """Replay a bursty closed-loop trace; returns per-request latencies.

    Each client thread fires ``burst`` back-to-back requests, pauses
    briefly, and repeats — the arrival pattern that makes stragglers
    dominate the tail. Every reply is checked against the oracle rows.
    """
    per_client = n_requests // n_clients
    latencies = [0.0] * (per_client * n_clients)
    stage_totals: dict[str, float] = {}
    stage_lock = threading.Lock()
    errors: list[BaseException] = []
    gate = threading.Barrier(n_clients)

    def client_thread(c: int):
        client = ClusterClient(url, retries=0, timeout=60.0)
        try:
            gate.wait()
            for r in range(per_client):
                i = c * per_client + r
                qi = i % len(queries)
                started = time.perf_counter()
                reply = client.search(
                    vectors=queries[qi], tau=tau, joinability=joinability
                )
                latencies[i] = time.perf_counter() - started
                with stage_lock:
                    for stage, seconds in reply.get("timings", {}).items():
                        stage_totals[stage] = \
                            stage_totals.get(stage, 0.0) + seconds
                got = [
                    (h["column_id"], h["match_count"], h["joinability"])
                    for h in reply["hits"]
                ]
                assert got == expected[qi], (
                    "hedged/faulted reply diverged from single-node search"
                )
                if (r + 1) % burst == 0:
                    time.sleep(0.02)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=client_thread, args=(c,))
        for c in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300.0)
    if errors:
        raise errors[0]
    return latencies, dict(sorted(stage_totals.items()))


def run_tail_comparison(
    dataset,
    n_requests: int = N_REQUESTS,
    n_clients: int = N_CLIENTS,
    n_partitions: int = N_PARTITIONS,
    slow_probability: float = SLOW_PROBABILITY,
    slow_delay: float = SLOW_DELAY,
    n_pivots: int = 3,
    levels: int = 3,
    tau_fraction: float = TAU_FRACTION,
    joinability=T,
    fault_seed: int = 7,
    lake_dir: str | Path | None = None,
) -> dict:
    """The same trace + fault schedule, hedging off vs on."""
    tmp = Path(lake_dir) if lake_dir else Path(
        tempfile.mkdtemp(prefix="bench_tail_")
    )
    saved = tmp / "lake"
    if not saved.exists():
        lake = PartitionedPexeso(
            n_pivots=n_pivots, levels=levels, n_partitions=n_partitions,
        ).fit(dataset.vector_columns)
        save_partitioned(lake, saved)

    reference = LakeSearcher(load_partitioned(saved))
    tau = distance_threshold(tau_fraction, reference.backend.metric, dataset.dim)
    queries = make_query_pool(dataset, n_queries=min(12, n_requests))
    expected = [
        [
            (h.column_id, h.match_count, h.joinability)
            for h in reference.search(q, tau, joinability).joinable
        ]
        for q in queries
    ]

    out: dict = {
        "n_requests": (n_requests // n_clients) * n_clients,
        "n_clients": n_clients,
        "slow_probability": slow_probability,
        "slow_delay": slow_delay,
    }
    for label, hedge in (("off", False), ("on", True)):
        # a fresh cluster and a fresh same-seed injector per arm: both
        # arms see the identical deterministic fault schedule
        injector = FaultInjector(seed=fault_seed)
        injector.script(
            "delay", path="/search",
            probability=slow_probability, delay=slow_delay,
        )
        with LocalCluster(
            saved, n_workers=2, replication=2, mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
            worker_fault_injectors=[injector, None],
            coordinator_kwargs=dict(
                # hedge fires at <= 0.3s: far above the normal worker
                # call (tens of ms, so healthy calls never hedge), far
                # below the injected straggler stall (slow_delay)
                resilience=ResilienceConfig(
                    hedge=hedge,
                    hedge_default_delay=0.1,
                    hedge_delay_max=0.3,
                ),
            ),
        ) as cluster:
            # warmup outside the trace (connections, first dispatch)
            ClusterClient(cluster.url).search(
                vectors=queries[0], tau=tau, joinability=joinability
            )
            latencies, stage_totals = run_bursty_trace(
                cluster.url, queries, expected, n_requests, n_clients,
                tau, joinability,
            )
            coordinator = cluster.coordinator
            out[f"hedging_{label}"] = {
                "p50": percentile(latencies, 0.50),
                "p95": percentile(latencies, 0.95),
                "p99": percentile(latencies, 0.99),
                "max": max(latencies),
                "hedges_fired": coordinator._hedges_fired,
                "hedges_won": coordinator._hedges_won,
                "faults_fired": injector.fired("delay"),
                # coordinator-side wall per stage, summed over requests
                # (from each reply's `timings` breakdown)
                "stage_seconds": stage_totals,
            }
    p99_off = out["hedging_off"]["p99"]
    p99_on = out["hedging_on"]["p99"]
    out["p99_improvement"] = 1.0 - (p99_on / p99_off) if p99_off > 0 else 0.0
    return out


def run_overload(
    dataset,
    capacity: int = OVERLOAD_CAPACITY,
    n_clients: int = OVERLOAD_CLIENTS,
    requests_per_client: int = OVERLOAD_REQUESTS_PER_CLIENT,
    work_delay: float = OVERLOAD_WORK_DELAY,
    n_columns: int = 48,
) -> dict:
    """A synchronized burst far past capacity against one serving node."""
    columns = dataset.vector_columns[:n_columns]
    index = PexesoIndex.build(columns, n_pivots=3, levels=3)
    query = dataset.queries[0]
    tau = distance_threshold(TAU_FRACTION, index.metric, dataset.dim)
    want = [
        (h.column_id, h.match_count, h.joinability)
        for h in pexeso_search(index, query, tau, T).joinable
    ]

    # every request is artificially slowed so the burst actually piles
    # up on the admission gate instead of draining instantly
    injector = FaultInjector(seed=11)
    injector.script("delay", path="/search", delay=work_delay)
    service = QueryService(index, window_ms=None, cache_size=0)
    server = make_server(
        service, port=0, max_concurrent=capacity, fault_injector=injector
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    served = []
    shed = []
    errors: list[BaseException] = []
    gate = threading.Barrier(n_clients)

    def client_thread():
        client = ServeClient(server.url, timeout=60.0)
        try:
            gate.wait()
            for _ in range(requests_per_client):
                try:
                    reply = client.search(
                        vectors=query, tau=tau, joinability=T
                    )
                except ServeError as exc:
                    assert exc.status == 429, f"unexpected status {exc.status}"
                    assert exc.retry_after is not None
                    shed.append(exc)
                    continue
                got = [
                    (h["column_id"], h["match_count"], h["joinability"])
                    for h in reply["hits"]
                ]
                assert got == want, "admitted request diverged under overload"
                served.append(reply)
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=client_thread) for _ in range(n_clients)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    wall = time.perf_counter() - started
    try:
        if errors:
            raise errors[0]
        deadline = time.monotonic() + 5.0
        while (
            server.admission.snapshot()["admission_inflight"]
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        snapshot = server.admission.snapshot()
    finally:
        server.close()
        thread.join(timeout=10.0)
    return {
        "capacity": capacity,
        "offered": n_clients * requests_per_client,
        "served": len(served),
        "shed": len(shed),
        "wall_seconds": wall,
        "inflight_after": snapshot["admission_inflight"],
    }


def report(tail: dict, overload: dict) -> None:
    table = ResultTable(
        f"Tail latency under a scripted slow worker: {tail['n_requests']} "
        f"bursty requests from {tail['n_clients']} clients, worker 0 delayed "
        f"{tail['slow_delay']*1000:.0f}ms with p={tail['slow_probability']} "
        "(every reply checked hit-for-hit against single-node search)",
        ["Hedging", "p50 (s)", "p95 (s)", "p99 (s)", "max (s)",
         "hedges fired/won"],
    )
    for label in ("off", "on"):
        arm = tail[f"hedging_{label}"]
        table.add(
            label, arm["p50"], arm["p95"], arm["p99"], arm["max"],
            f"{arm['hedges_fired']}/{arm['hedges_won']}",
        )
    table.add(
        "p99 improvement", f"{tail['p99_improvement']:.0%}", "-", "-", "-", "-"
    )
    table.print_and_save("tail_latency.md")
    write_bench_json(
        "tail_latency",
        {
            "p99_improvement": tail["p99_improvement"],
            "p50_off": tail["hedging_off"]["p50"],
            "p99_off": tail["hedging_off"]["p99"],
            "p50_on": tail["hedging_on"]["p50"],
            "p99_on": tail["hedging_on"]["p99"],
            "hedges_fired": tail["hedging_on"]["hedges_fired"],
            "hedges_won": tail["hedging_on"]["hedges_won"],
            "stage_seconds_off": tail["hedging_off"]["stage_seconds"],
            "stage_seconds_on": tail["hedging_on"]["stage_seconds"],
            "overload_offered": overload["offered"],
            "overload_served": overload["served"],
            "overload_shed": overload["shed"],
            "overload_wall_seconds": overload["wall_seconds"],
        },
    )


def test_tail_latency_hedging(benchmark):
    dataset = tail_like()
    tail = benchmark.pedantic(
        lambda: run_tail_comparison(dataset),
        rounds=1,
        iterations=1,
    )
    overload = run_overload(dataset)
    report(tail, overload)
    assert tail["hedging_on"]["hedges_fired"] > 0
    assert tail["p99_improvement"] >= MIN_P99_IMPROVEMENT, (
        f"hedging must cut p99 by >= {MIN_P99_IMPROVEMENT:.0%}, got "
        f"{tail['p99_improvement']:.0%}"
    )
    assert overload["shed"] > 0 and overload["served"] > 0
    assert overload["inflight_after"] == 0


def main() -> None:
    """CI entry point: run at CI size and write results/tail_latency.*."""
    dataset = tail_like()
    tail = run_tail_comparison(dataset)
    overload = run_overload(dataset)
    report(tail, overload)
    assert tail["hedging_on"]["hedges_fired"] > 0, "the hedge never fired"
    assert tail["p99_improvement"] >= MIN_P99_IMPROVEMENT, (
        f"hedging must cut p99 by >= {MIN_P99_IMPROVEMENT:.0%} under the "
        f"injected slow worker, got {tail['p99_improvement']:.0%}"
    )
    assert overload["shed"] > 0, "2x-capacity overload must shed requests"
    assert overload["served"] > 0, "admitted requests must still be answered"
    assert overload["inflight_after"] == 0, "server failed to drain (deadlock?)"
    print(
        f"CI tail-latency check passed: p99 {tail['hedging_off']['p99']*1000:.0f}ms "
        f"-> {tail['hedging_on']['p99']*1000:.0f}ms "
        f"({tail['p99_improvement']:.0%} better, "
        f"{tail['hedging_on']['hedges_fired']} hedges fired, every reply "
        f"exact); overload shed {overload['shed']}/{overload['offered']} "
        f"requests with {overload['served']} exact answers and a clean drain"
    )


if __name__ == "__main__":
    main()
