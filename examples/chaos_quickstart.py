"""Chaos quickstart: scripted faults against a replicated cluster.

Builds a small partitioned lake, spins up a coordinator + 2 workers
in-process, then scripts worker 0 to misbehave — slow stalls, injected
500s, dropped connections — and walks the resilience contract:

* every answer that arrives is *bit-identical* to single-node search,
  faults or not (failover and hedging never change results, only
  latency and availability);
* a hedged read races the replica after a p95-tracked delay, so a
  scripted 400ms stall stops dominating the tail;
* a deadline budget propagates coordinator -> worker and an exhausted
  budget fails fast with 504 instead of queueing doomed work;
* a dropped connection demotes the worker through its circuit breaker,
  and a half-open probe re-promotes it once it behaves again.

The fault schedule is seeded and ordinal-scripted, so this run is
deterministic. Runs in a few seconds::

    python examples/chaos_quickstart.py
"""

import tempfile
import time
from pathlib import Path

from repro.cluster import LocalCluster
from repro.cluster.resilience import ResilienceConfig
from repro.core.out_of_core import LakeSearcher, PartitionedPexeso
from repro.core.persistence import load_partitioned, save_partitioned
from repro.core.thresholds import distance_threshold
from repro.lake.datagen import DataLakeGenerator
from repro.serve.client import ServeError
from repro.serve.faults import FaultInjector


def main() -> None:
    # 1. Offline: a small lake, 4 partitions, saved to disk — plus a
    #    single-node reference searcher. Exactness under chaos means
    #    "equal to this, hit for hit", which every step below asserts.
    gen = DataLakeGenerator(seed=0, n_entities=80, dim=16)
    lake = gen.generate_lake(n_tables=24, rows_range=(8, 18))
    saved = Path(tempfile.mkdtemp()) / "lake"
    save_partitioned(
        PartitionedPexeso(n_pivots=3, levels=3, n_partitions=4).fit(
            lake.vector_columns()
        ),
        saved,
    )
    reference = LakeSearcher(load_partitioned(saved))
    tau = distance_threshold(0.06, reference.backend.metric, 16)

    query_table, _ = gen.generate_query_table(n_rows=12, domain=0)
    query = gen.embedder.embed_column(query_table.column("key").values)
    want = [
        (h.column_id, h.match_count)
        for h in reference.search(query, tau, 0.25).joinable
    ]

    # 2. Script worker 0's fault plane: every /search stalls 400ms, and
    #    the third one is answered with an injected HTTP 500. Worker 1
    #    (hosting replicas of the same partitions) stays healthy.
    chaos = FaultInjector(seed=7)
    chaos.script("delay", path="/search", delay=0.4)
    chaos.script("error", path="/search", nth={2}, status=500)
    # a second fault domain on the coordinator's *client* transport,
    # scripted later to sever the coordinator -> worker 0 hop
    coord_chaos = FaultInjector(seed=11)

    with LocalCluster(
        saved, n_workers=2, replication=2, mode="thread",
        worker_fault_injectors=[chaos, None],
        coordinator_kwargs=dict(
            retries=0,
            fault_injector=coord_chaos,
            resilience=ResilienceConfig(
                hedge_default_delay=0.05, hedge_delay_max=0.1,
                breaker_cooldown=0.1,
            ),
        ),
    ) as cluster:
        client = cluster.client

        # 3. Hedged reads. Worker 0 stalls 400ms on every search, so the
        #    coordinator's per-worker latency tracker arms a hedge: after
        #    a p95-tracked delay the same shard call is raced against the
        #    replica and the first answer wins. The reply is still exact.
        for i in range(3):
            started = time.perf_counter()
            reply = client.search(vectors=query, tau=tau, joinability=0.25)
            elapsed = time.perf_counter() - started
            got = [(h["column_id"], h["match_count"]) for h in reply["hits"]]
            assert got == want, "chaos must never change results"
            print(f"search {i}: {len(got)} hits (exact) in {elapsed*1000:.0f}ms")
        resilience = client.cluster()["resilience"]
        print(f"hedges fired={resilience['hedges_fired']} "
              f"won={resilience['hedges_won']}; "
              f"faults consumed={chaos.fired()}")

        # 4. Deadline propagation. The client attaches its remaining
        #    budget as a header; the coordinator re-propagates what is
        #    left to every worker call, and an exhausted budget is
        #    refused up front with 504 — no doomed work queued.
        try:
            client.search(vectors=query, tau=tau, joinability=0.25,
                          deadline_ms=0.0)
        except ServeError as exc:
            print(f"\nzero budget -> HTTP {exc.status} ({exc.message})")
        reply = client.search(vectors=query, tau=tau, joinability=0.25,
                              deadline_ms=30_000)
        assert [(h["column_id"], h["match_count"]) for h in reply["hits"]] == want
        print("30s budget -> exact answer")

        # 5. Flapping worker. Sever the coordinator -> worker 0 hop: the
        #    next shard call hits a dropped connection, the coordinator
        #    demotes the worker (circuit breaker opens) and fails over to
        #    the replica — the answer is still exact. After the breaker's
        #    cooldown a half-open probe re-promotes the worker.
        chaos.clear()
        coordinator = cluster.coordinator
        worker0_url = client.cluster()["workers"][0]["url"]
        coord_chaos.script("drop", target=worker0_url, times=1)
        reply = client.search(vectors=query, tau=tau, joinability=0.25)
        assert [(h["column_id"], h["match_count"]) for h in reply["hits"]] == want
        statuses = [w["status"] for w in client.cluster()["workers"]]
        print(f"\nworker 0 dropped a connection: statuses {statuses}, "
              "answers still exact")

        time.sleep(coordinator.resilience.breaker_cooldown + 0.05)
        promoted = coordinator.probe_half_open()
        statuses = [w["status"] for w in client.cluster()["workers"]]
        print(f"half-open probe re-promoted {promoted}: statuses {statuses}")

        # 6. Everything above is observable: per-worker gauges and the
        #    resilience counters ship on /metrics.
        wanted = ("worker_up", "hedges_fired", "admission", "breaker_open")
        print("\nmetrics excerpt:")
        for line in client.metrics().splitlines():
            if any(key in line for key in wanted):
                print(f"  {line}")


if __name__ == "__main__":
    main()
