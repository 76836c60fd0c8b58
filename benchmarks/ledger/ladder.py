"""The traced run: the layer ladder, the layer probes and the trace file.

The same cold queries go one at a time up a ladder of entry points, each
rung a child span of the query's op span:

    R0  the pipeline called by hand, in BatchSearch._search_group's order
        (PivotSpace.map_vectors -> HierarchicalGrid.build -> block ->
        verify_row_blocks), one child span each
    R1  LakeSearcher.search              (scalar path)
    R2  BatchSearch.search_many([q])     (batch path, batch of one)
    R3  QueryService.search              (lock, coalescer, cache)
    R4  ServeClient.search               (HTTP + JSON)
    R5a ServeClient.search on the workers, one call per partition (the
        slowest is what a scatter waits for)
    R5b ClusterClient.search             (coordinator, scatter, merge)

Queries differ a lot in cost, so ``added_ms`` of a rung is the median over
the queries of (this rung - the rung below) for the same query; every
rung must return the same column ids. The layer probes (index
build, persistence, maintenance, ANN, top-k, partitioning, coalescing,
cache, JSON) run after the ladder, and short windows of the serve and
cluster traffic mixes give the counters that only exist under load.

Every layer is measured from outside: by timing calls into public
functions and reading public reply fields (``result.stats``, reply
``timings``, ``/stats``, ``/cluster``, ``/metrics``, ``lru_info()``).
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from lakes import LakeGenerator, smoke_spec
from repro.core import kernels
from repro.core.ann import measure_recall
from repro.core.blocker import block
from repro.core.engine import BatchSearch
from repro.core.grid import HierarchicalGrid
from repro.core.out_of_core import LakeSearcher
from repro.core.persistence import (
    load_index, load_partitioned, save_index, save_partitioned,
)
from repro.core.stats import SearchStats
from repro.core.thresholds import joinability_count
from repro.core.verifier import verify_row_blocks
from repro.obs.trace import Tracer
from repro.serve.client import ServeClient
from repro.serve.service import QueryService
from spans import SpanRecorder
from window import (
    LADDER_STREAM, PROBE_STREAM, ClientDriver, Verdict, median_ms, pooled, run_window,
)
from workloads import (
    WORKLOADS, ClusterSystem, HttpClient, LakeClient, ServeSystem, SpillSystem,
    Workload, build_index, build_partitioned,
)

#: ladder queries, probe queries, probe writes: (full run, smoke test)
N_LADDER = (32, 8)
N_PROBE = (16, 4)
N_WRITES = (8, 2)
N_TOPK = 8
TOPK_BUDGET_SECONDS = 2.5
EF_SEARCH = 64
#: first client number of each short window (a workload has at most two clients)
SERVE_CLIENTS, CLUSTER_CLIENTS, PLAIN_CLIENTS, TRACED_CLIENTS = 0, 2, 4, 6


def _timed(call, *args, **kwargs):
    started = time.perf_counter()
    out = call(*args, **kwargs)
    return out, time.perf_counter() - started


def _ids(result) -> list[int]:
    return [h.column_id for h in result.joinable]


def _reply_ids(reply: dict) -> list[int]:
    return [h["column_id"] for h in reply["hits"]]


def pipeline_by_hand(index, query, spec, op):
    """R0: the four engine stages, each under a span of its own."""
    stats = SearchStats()
    n = query.shape[0]
    with op.child("R0.pipeline") as r0:
        with r0.child("core.pivot.map_vectors") as s_map:
            mapped = index.pivot_space.map_vectors(query)
        with r0.child("core.grid.HierarchicalGrid.build") as s_grid:
            hg_q = HierarchicalGrid.build(
                mapped, levels=index.levels, extent=index.pivot_space.extent,
                store_members=True,
            )
        with r0.child("core.blocker.block") as s_block:
            blocked = block(hg_q, index.grid, mapped, spec.tau, stats=stats)
        with r0.child("core.verifier.verify_row_blocks") as s_verify:
            verdicts = verify_row_blocks(
                blocked, index.inverted, query, mapped, index.vectors,
                index.mapped, index.metric, spec.tau,
                [joinability_count(spec.joinability, n)], [n],
                np.zeros(n, dtype=np.intp), stats=stats, row_block_size=8,
            )
    ids = sorted(c for c in verdicts[0].joinable if c in index.column_rows)
    lemma = stats.stage_seconds.get("lemma_filter", 0.0)
    samples = {
        "r0": r0.seconds, "map": s_map.seconds, "grid": s_grid.seconds,
        "block": s_block.seconds, "lemma": lemma,
        # the Lemma 1/2 mask kernels run inside verify_row_blocks; it reports
        # their time, and the rest of its span is verification proper
        "verify": s_verify.seconds - lemma,
        "reconcile":
            r0.covered_seconds([s_map, s_grid, s_block, s_verify]) / r0.seconds,
    }
    return ids, stats, samples


def climb(spec, queries, columns, index, service, serve, cluster, recorder, verdict):
    """Send every query up the rungs.

    Returns the per-query samples by name (rung and stage seconds, reply
    timings, body sizes), R0's summed counters and the number of hits.
    """
    searcher = LakeSearcher(index)
    engine = BatchSearch(index)
    serve_client = ServeClient(serve.server.url)
    cluster_client = cluster.cluster.client
    plan = cluster_client.cluster()
    # Partition p is answered by its primary (rank p of the plan); R5a asks
    # the *replica* instead, so R5b's identical (query, partition) request
    # cannot be served from the cache R5a just filled on that worker.
    replicas = [
        (part, ServeClient(plan["workers"][(rank + 1) % len(plan["workers"])]["url"]))
        for rank, part in enumerate(plan["parts"])
    ]
    tau, join = spec.tau, spec.joinability
    samples: dict[str, list[float]] = defaultdict(list)
    counts = SearchStats()
    n_joinable = 0

    for i, query in enumerate(queries):
        # One untimed pass first: whichever rung ran first would otherwise
        # pay this query's CPU-cache misses for all the others. (No result
        # cache sits on this path, so every rung still does the full work.)
        searcher.search(query, tau, join)
        with recorder.root(f"ladder.q{i}") as op:
            r0_ids, stats, r0_samples = pipeline_by_hand(index, query, spec, op)
            with op.child("R1.LakeSearcher.search") as r1_span:
                r1 = searcher.search(query, tau, join)
            with op.child("R2.BatchSearch.search_many") as r2_span:
                r2 = engine.search_many([query], tau, join).results[0]
            with op.child("R3.QueryService.search") as r3_span:
                r3 = service.search(query, tau, join).result
            with op.child("R4.ServeClient.search") as r4_span:
                r4 = serve_client.search(vectors=query, tau=tau, joinability=join)
            r5a_ids, r5a_seconds = [], []
            for part, worker in replicas:
                with op.child(f"R5a.ServeClient.search(worker, part {part})") as span:
                    reply = worker.search(
                        vectors=query, tau=tau, joinability=join, parts=[part]
                    )
                r5a_ids.extend(_reply_ids(reply))
                r5a_seconds.append(span.seconds)
            with op.child("R5b.ClusterClient.search") as r5b_span:
                r5b = cluster_client.search(vectors=query, tau=tau, joinability=join)

        # the JSON work of one hop, alone: both bodies encoded and decoded once
        body = {"vectors": np.asarray(query).tolist(), "tau": tau, "joinability": join}
        started = time.perf_counter()
        request_text = json.dumps(body)
        json.loads(request_text)
        reply_text = json.dumps(r4)
        json.loads(reply_text)
        json_seconds = time.perf_counter() - started

        counts.merge(stats)
        n_joinable += len(r0_ids)
        for name, value in {
            **r0_samples,
            "r1": r1_span.seconds, "r2": r2_span.seconds, "r3": r3_span.seconds,
            "r4": r4_span.seconds, "r5a": max(r5a_seconds), "r5b": r5b_span.seconds,
            "queue_wait": r4.get("timings", {}).get("queue_wait", 0.0),
            "scatter": r5b.get("timings", {}).get("scatter", 0.0),
            "merge": r5b.get("timings", {}).get("merge", 0.0),
            "json": json_seconds,
            "request_bytes": len(request_text.encode()),
            "reply_bytes": len(reply_text.encode()),
        }.items():
            samples[name].append(value)

        # every rung must return the same column ids, and the right ones
        rungs = [_ids(r1), _ids(r2), _ids(r3), _reply_ids(r4), sorted(r5a_ids),
                 _reply_ids(r5b)]
        verdict.attempted += len(rungs)
        verdict.failed += sum(ids != r0_ids for ids in rungs)
        verdict.check(LakeClient.hits_of(r1), query, columns, spec)
    return samples, counts, n_joinable


def ladder_metrics(samples: dict, c: SearchStats, n_joinable: int, spec) -> dict:
    """Per-layer metrics read off the ladder (times: medians; counts: per-query means)."""
    s = samples
    n = len(s["r0"])

    def added_ms(rung: str, below: str) -> float:
        return median_ms([a - b for a, b in zip(s[rung], s[below])])

    def mean_ms(name: str) -> float:
        return statistics.mean(s[name]) * 1000.0

    pairs_decided = c.lemma1_filtered + c.lemma2_matched + c.distance_computations
    return {
        "core.pivot.map_ms": median_ms(s["map"]),
        "core.pivot.mapping_distances": spec.query_rows * spec.n_pivots,
        "core.grid.hgq_build_ms": median_ms(s["grid"]),
        "core.blocker.block_ms": median_ms(s["block"]),
        "core.blocker.share": sum(s["block"]) / sum(s["r0"]),
        "core.blocker.cells_visited": c.cells_visited / n,
        "core.blocker.candidate_pairs": c.candidate_pairs / n,
        "core.blocker.matching_pairs": c.matching_pairs / n,
        "core.blocker.us_per_cell": sum(s["block"]) * 1e6 / max(1, c.cells_visited),
        "core.filtering.lemma_ms": median_ms(s["lemma"]),
        "core.filtering.share": sum(s["lemma"]) / sum(s["r0"]),
        "core.filtering.lemma1_filtered": c.lemma1_filtered / n,
        "core.filtering.lemma2_matched": c.lemma2_matched / n,
        "core.filtering.pruned_ratio": c.lemma1_filtered / max(1, pairs_decided),
        "core.verifier.verify_ms": median_ms(s["verify"]),
        "core.verifier.share": sum(s["verify"]) / sum(s["r0"]),
        "core.verifier.distance_computations": c.distance_computations / n,
        "core.verifier.columns_verified": c.columns_verified / n,
        "core.verifier.lemma7_skips": c.lemma7_skips / n,
        "core.verifier.early_accepts": c.early_accepts / n,
        "core.verifier.ns_per_distance":
            sum(s["verify"]) * 1e9 / max(1, c.distance_computations),
        "core.verifier.hit_ratio": n_joinable / max(1, c.columns_verified),
        "core.search.single_ms": median_ms(s["r1"]),
        "core.engine.batch_of_one_ms": median_ms(s["r2"]),
        "core.engine.self_ms": added_ms("r2", "r0"),
        "serve.service.added_ms": added_ms("r3", "r1"),
        "serve.coalescer.queue_wait_ms": mean_ms("queue_wait"),
        "serve.http.added_ms": added_ms("r4", "r3"),
        "serve.http.request_bytes": statistics.mean(s["request_bytes"]),
        "serve.http.reply_bytes": statistics.mean(s["reply_bytes"]),
        "serve.http.json_ms": median_ms(s["json"]),
        "cluster.worker.call_ms": median_ms(s["r5a"]),
        "cluster.coordinator.added_ms": added_ms("r5b", "r5a"),
        "cluster.coordinator.scatter_ms": mean_ms("scatter"),
        "cluster.coordinator.merge_ms": mean_ms("merge"),
        "bench.reconcile_share": statistics.mean(s["reconcile"]),
    }


# -- layer probes -------------------------------------------------------------------


def probe_engine_batch(index, queries, spec) -> dict:
    """The batch path on the whole query list against the scalar path."""
    searcher = LakeSearcher(index)
    singles = [_timed(searcher.search, q, spec.tau, spec.joinability)[1] for q in queries]
    _, batch_seconds = _timed(
        BatchSearch(index).search_many, queries, spec.tau, spec.joinability
    )
    per_query = batch_seconds / len(queries)
    return {
        "core.engine.batch_ms_per_query": per_query * 1000.0,
        "core.engine.batch_amortisation": statistics.mean(singles) / per_query,
    }


def probe_index(spec, columns, extra) -> dict:
    """Index build by phase and in-memory maintenance, on an index of its own."""
    index, build_seconds = _timed(build_index, spec, columns)
    adds, deletes = [], []
    for column in extra:
        column_id, seconds = _timed(index.add_column, column)
        adds.append(seconds)
        deletes.append(_timed(index.delete_column, column_id)[1])
    stats = index.stats
    return {
        "core.index.build_s": build_seconds,
        "core.index.pivot_selection_s": stats.pivot_selection_seconds,
        "core.index.pivot_mapping_s": stats.pivot_mapping_seconds,
        "core.index.grid_build_s": stats.grid_build_seconds,
        "core.index.inverted_index_s": stats.inverted_index_seconds,
        "core.index.memory_bytes_per_vector": index.memory_bytes() / index.n_vectors,
        "core.index.add_column_ms": median_ms(adds),
        "core.index.delete_column_ms": median_ms(deletes),
    }


def probe_topk(index, queries, spec) -> dict:
    """Exact top-10: up to N_TOPK calls inside a fixed time budget (at least one)."""
    searcher = LakeSearcher(index)
    seconds = []
    started = time.perf_counter()
    for query in queries[:N_TOPK]:
        seconds.append(_timed(searcher.topk, query, spec.tau, 10)[1])
        if time.perf_counter() - started > TOPK_BUDGET_SECONDS:
            break
    return {"core.topk.call_ms": median_ms(seconds)}


def probe_ann(index, queries, spec) -> dict:
    """The opt-in ANN tier at ef_search=64 against the exact path."""
    searcher = LakeSearcher(index)
    exact = [searcher.search(q, spec.tau, spec.joinability) for q in queries]
    _, build_seconds = _timed(index.build_ann_graph)
    approx, seconds = [], []
    for query in queries:
        result, elapsed = _timed(
            searcher.search, query, spec.tau, spec.joinability, ef_search=EF_SEARCH
        )
        approx.append(result)
        seconds.append(elapsed)
    index.ann_graph = None  # leave the index as the other probes expect it
    verified_exact = sum(r.stats.columns_verified for r in exact)
    return {
        "core.ann.build_s": build_seconds,
        "core.ann.recall_ef64": statistics.mean(
            measure_recall(_ids(e), _ids(a)) for e, a in zip(exact, approx)
        ),
        "core.ann.search_ms_ef64": median_ms(seconds),
        "core.ann.verified_ratio_ef64":
            sum(r.stats.columns_verified for r in approx) / max(1, verified_exact),
    }


def _written_bytes(directory: Path, before: dict) -> int:
    """Bytes of the files under ``directory`` that are new or changed since ``before``."""
    return sum(
        size for path, (stamp, size) in _snapshot(directory).items()
        if before.get(path) != (stamp, size)
    )


def _snapshot(directory: Path) -> dict:
    stats = {str(p): p.stat() for p in Path(directory).rglob("*") if p.is_file()}
    return {path: (st.st_mtime_ns, st.st_size) for path, st in stats.items()}


def probe_out_of_core(spec, columns, index, queries, extra, workdir: Path) -> dict:
    """Partitioning, shard fan-out, spill loads and durable writes."""
    tau, join = spec.tau, spec.joinability
    n_parts = SpillSystem.N_PARTITIONS
    batch = queries[:8]

    def per_query(call, **kwargs) -> float:
        return statistics.median(
            _timed(call, batch, tau, join, **kwargs)[1] for _ in range(3)
        ) / len(batch)

    single = per_query(LakeSearcher(index).search_many)
    resident = build_partitioned(spec, columns, n_parts)
    partitioned = per_query(resident.search_many, max_workers=1)
    lake_dir = save_partitioned(resident, workdir / "probe_spill")
    spilled = load_partitioned(lake_dir)
    spilled.lru_shards = SpillSystem.LRU_SHARDS
    serial = per_query(spilled.search_many, max_workers=1)
    fanned = per_query(spilled.search_many)

    # one shard at a time in a fixed order: loads and LRU hits repeat exactly
    spilled = load_partitioned(lake_dir)
    spilled.lru_shards = SpillSystem.LRU_SHARDS
    load_seconds, merge_seconds = 0.0, []
    for query in queries:
        stats = spilled.search_many([query], tau, join, max_workers=1).stats
        load_seconds += stats.shard_load_seconds
        merge_seconds.append(stats.stage_seconds.get("merge", 0.0))
    lru = spilled.lru_info()

    # durable maintenance: every write re-spills a shard and rewrites the manifest
    write_seconds, amplification = [], []
    for column in extra:
        before = _snapshot(lake_dir)
        column_id, seconds = _timed(spilled.add_column, column)
        amplification.append(_written_bytes(lake_dir, before) / column.nbytes)
        write_seconds.append(seconds)
        write_seconds.append(_timed(spilled.delete_column, column_id)[1])
    return {
        "core.out_of_core.partition_penalty": partitioned / single,
        "core.out_of_core.fanout_penalty": fanned / serial,
        "core.out_of_core.shard_load_ms": load_seconds * 1000.0 / max(1, lru["lru_misses"]),
        "core.out_of_core.lru_hit_ratio":
            lru["lru_hits"] / max(1, lru["lru_hits"] + lru["lru_misses"]),
        "core.out_of_core.merge_ms": median_ms(merge_seconds),
        "core.persistence.durable_write_ms": median_ms(write_seconds),
        "core.persistence.write_amplification": statistics.mean(amplification),
    }


def probe_persistence(index, queries, spec, workdir: Path) -> dict:
    """Save, the two ways to load, and what searching a mapped index costs."""
    directory, save_seconds = _timed(save_index, index, workdir / "probe_index")
    mapped, mmap_seconds = _timed(load_index, directory, mmap=True)
    _, eager_seconds = _timed(load_index, directory, mmap=False)

    def search_ms(target) -> float:
        searcher = LakeSearcher(target)
        return median_ms([
            _timed(searcher.search, q, spec.tau, spec.joinability)[1] for q in queries
        ])

    search_ms(mapped)  # first touch faults the pages in; not what is measured
    return {
        "core.persistence.save_s": save_seconds,
        "core.persistence.load_mmap_s": mmap_seconds,
        "core.persistence.load_eager_s": eager_seconds,
        "core.persistence.mmap_search_penalty": search_ms(mapped) / search_ms(index),
    }


def probe_service(stored_dir: Path, queries, spec) -> dict:
    """Two concurrent QueryService callers against one (the coalescer's gain)."""
    half = len(queries) // 2

    def drive(service, share) -> None:
        for query in share:
            service.search(query, spec.tau, spec.joinability)

    solo = QueryService.from_directory(stored_dir)
    _, solo_seconds = _timed(drive, solo, queries)
    duo = QueryService.from_directory(stored_dir)
    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=2) as pool:
        for future in [
            pool.submit(drive, duo, share) for share in (queries[:half], queries[half:])
        ]:
            future.result()
    duo_seconds = time.perf_counter() - started
    return {"serve.coalescer.concurrency_gain": solo_seconds / duo_seconds}


def probe_cache_and_tracer(serve, spec, columns, queries, workdir: Path) -> dict:
    """A cached reply's round trip, and the in-program tracer's cost on the serve path."""
    client = HttpClient(ServeClient(serve.server.url), spec)  # sampled at rate 1.0 (default)
    unsampled = ServeSystem(
        spec, columns, workdir / "probe_unsampled", tracer=Tracer(sample_rate=0.0)
    )
    try:
        quiet = HttpClient(ServeClient(unsampled.server.url), spec)
        ratios = []
        for i, query in enumerate(queries):
            # both servers answer each query cold, taking turns to go first
            pair = (client, quiet) if i % 2 == 0 else (quiet, client)
            seconds = {c: _timed(c.search, query)[1] for c in pair}
            ratios.append(seconds[client] / seconds[quiet])
    finally:
        unsampled.close()
    hot = [_timed(client.search, q)[1] for q in queries]
    return {
        "serve.cache.hit_roundtrip_ms": median_ms(hot),
        "obs.trace.sampled_overhead_share": statistics.median(ratios) - 1.0,
    }


def make_drivers(workload: Workload, system, gen, recorder, first_client: int) -> list:
    """The workload's clients; ``first_client`` picks query streams nothing else has
    drawn from, so no result cache has seen their cold queries."""
    return [
        ClientDriver(system.client(), workload, gen, first_client + number, recorder)
        for number in range(workload.n_clients)
    ]


def mini_window(workload: Workload, system, gen, seconds: float, first_client: int) -> list:
    """A short untraced window of one traffic mix on an already set-up system."""
    drivers = make_drivers(workload, system, gen, SpanRecorder(enabled=False), first_client)
    run_window(drivers, seconds)
    for driver in drivers:
        driver.drain()
    return drivers


def overhead_windows(workload: Workload, system, gen, seconds: float, recorder):
    """The workload's mix untraced and traced, one cycle of each in turn.

    The recorder's cost is microseconds per op; measured on two windows
    one after the other it drowns in the box's drift, so the two
    alternate cycle by cycle.
    """
    plain = make_drivers(workload, system, gen, SpanRecorder(enabled=False), PLAIN_CLIENTS)
    traced = make_drivers(workload, system, gen, recorder, TRACED_CLIENTS)
    deadline = time.perf_counter() + 2.0 * seconds
    cycled = False
    while not cycled or time.perf_counter() < deadline:
        run_window(plain, 0.0)  # a window of no length still runs one cycle
        run_window(traced, 0.0)
        cycled = True
    for driver in plain + traced:
        driver.drain()
    share = (
        median_ms(pooled(traced, "search", "hot")) / median_ms(pooled(plain, "search", "hot"))
        - 1.0
    )
    return share, plain + traced


def serve_window_metrics(serve, gen, seconds: float):
    """Counters that exist only under load on one node: cache, fused batches, writes."""
    api = ServeClient(serve.server.url)
    before = api.stats()
    drivers = mini_window(WORKLOADS["serve_http_mixed"], serve, gen, seconds, SERVE_CLIENTS)
    after = api.stats()

    def grew(section: str, key: str) -> float:
        return after[section][key] - before[section][key]

    hits, misses = grew("cache", "hits"), grew("cache", "misses")
    writes = pooled(drivers, "add", "delete")
    return {
        "serve.cache.hit_ratio": hits / max(1, hits + misses),
        "serve.coalescer.mean_fused_batch":
            grew("coalescing", "requests") / max(1, grew("coalescing", "batches")),
        "serve.service.write_ms": statistics.mean(writes) * 1000.0,
    }, drivers


def cluster_window_metrics(cluster, gen, seconds: float):
    """Counters that exist only under the cluster mix: hedges, failovers, slot balance."""
    api = cluster.cluster.client
    before = api.cluster()
    drivers = mini_window(WORKLOADS["cluster_2w"], cluster, gen, seconds, CLUSTER_CLIENTS)
    after = api.cluster()

    def grew(key: str) -> int:
        return after["resilience"][key] - before["resilience"][key]

    # mean call latency per worker slot, from the coordinator's /metrics summaries
    exposition = api.metrics()
    slot_means = []
    for slot in range(len(after["workers"])):
        total, count = (
            re.search(
                rf'cluster_slot_latency_seconds_{field}{{slot="{slot}"}} (\S+)', exposition
            )
            for field in ("sum", "count")
        )
        if total and count and float(count.group(1)):
            slot_means.append(float(total.group(1)) / float(count.group(1)))
    writes = pooled(drivers, "add", "delete")
    return {
        "cluster.coordinator.hedges_fired": grew("hedges_fired"),
        "cluster.coordinator.hedges_won": grew("hedges_won"),
        "cluster.coordinator.failovers": after["failovers"] - before["failovers"],
        "cluster.coordinator.deadline_violations": grew("deadline_violations"),
        "cluster.coordinator.write_fanout_ms": statistics.mean(writes) * 1000.0,
        "cluster.worker.imbalance":
            max(slot_means) / statistics.mean(slot_means) if slot_means else 1.0,
    }, drivers


# -- the traced run -----------------------------------------------------------------


def run_traced(workload: Workload, cfg, workdir: Path) -> dict:
    """The ladder, the probes and the short windows on one workload's lake.

    Every traced run reports every per-layer metric (the driver's
    contract), so every one climbs the whole ladder, whatever rungs its
    own workload's stack has.
    """
    smoke = cfg.smoke
    spec = smoke_spec(workload.lake) if smoke else workload.lake
    gen = LakeGenerator(spec, cfg.seed)
    columns = gen.columns
    queries = gen.queries(N_LADDER[smoke], stream=LADDER_STREAM)
    probes = gen.queries(N_PROBE[smoke], stream=PROBE_STREAM)
    extra = gen.extra_columns(N_WRITES[smoke], stream=PROBE_STREAM)
    mini_seconds = 0.1 if smoke else max(1.0, cfg.seconds / 8.0)
    recorder = SpanRecorder(enabled=True)
    verdict = Verdict()
    metrics: dict[str, float] = {}
    systems = []
    try:
        index = build_index(spec, columns)
        serve = ServeSystem(spec, columns, workdir / "ladder_serve", smoke=smoke)
        systems.append(serve)
        cluster = ClusterSystem(spec, columns, workdir / "ladder_cluster", smoke=smoke)
        systems.append(cluster)
        service = QueryService.from_directory(serve.stored_dir)

        samples, counts, n_joinable = climb(
            spec, queries, columns, index, service, serve, cluster, recorder, verdict
        )
        metrics.update(ladder_metrics(samples, counts, n_joinable, spec))
        metrics["cluster.worker.start_s"] = cluster.start_seconds
        metrics.update(probe_engine_batch(index, queries, spec))
        metrics.update(probe_index(spec, columns, extra))
        metrics.update(probe_topk(index, probes, spec))
        metrics.update(probe_ann(index, probes, spec))
        metrics.update(probe_out_of_core(spec, columns, index, probes, extra, workdir))
        metrics.update(probe_persistence(index, probes, spec, workdir))
        metrics.update(probe_service(serve.stored_dir, probes, spec))
        metrics.update(probe_cache_and_tracer(serve, spec, columns, probes, workdir))

        # the counters that only exist under load, from the mixes that produce them
        serve_metrics, serve_drivers = serve_window_metrics(serve, gen, mini_seconds)
        cluster_metrics, cluster_drivers = cluster_window_metrics(cluster, gen, mini_seconds)
        metrics.update(serve_metrics)
        metrics.update(cluster_metrics)

        # this workload's own mix, untraced then traced: what the recorder costs
        own = workload.system(spec, columns, workdir / "own", smoke=smoke)
        systems.append(own)
        metrics["bench.trace_overhead_share"], own_drivers = overhead_windows(
            workload, own, gen, mini_seconds, recorder
        )
        for drivers in (serve_drivers, cluster_drivers, own_drivers):
            verdict.attempted += sum(d.attempted for d in drivers)
            verdict.failed += sum(d.errors for d in drivers)
    finally:
        for system in systems:
            system.close()
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["bench.failed_share"] = verdict.failed / verdict.attempted

    cfg.results_dir.mkdir(parents=True, exist_ok=True)
    trace_path = cfg.results_dir / f"trace_{workload.name}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name, "seed": cfg.seed, "lake": spec.name,
        "kernel_backend": kernels.get_backend(),
        "spans": recorder.to_json(),
    }) + "\n")
    notes = {
        "trace_file": trace_path.name,
        "spans": len(recorder.spans),
        "kernel_backend": kernels.get_backend(),
        "ladder_queries": len(queries),
    }
    return {"verdict": verdict, "metrics": metrics, "notes": notes}
