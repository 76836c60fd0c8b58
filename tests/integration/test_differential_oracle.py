"""Randomized differential oracle over every search implementation.

One seeded harness generates small random lakes — varying dimensionality,
column count and length, metric, τ selectivity and T — and asserts that
every implementation of joinable-column search agrees bit for bit:

    exact_naive == pexeso_search == BatchSearch
                == PartitionedPexeso (all partitioners, in-memory + spill)

and that the merged sharded top-k equals the single-index top-k equals
the k-prefix of the exhaustively ranked columns, for several k.

A second lane replays the same seeds through a **2-worker cluster**
(in-process coordinator + workers, replication 2): scatter-gathered
hits and top-k prefixes must equal the oracle, including after routed
add/delete mutations and with one worker killed mid-run (failover to
the surviving replica).

This is the safety net behind the parallel shard engine: the sequential
scalar pipeline, the batch engine and the partitioned fan-out share no
result-assembly code, so a merge bug, an off-by-one in the global ID
remap or a top-k merge that drops a tie shows up here as a seed-reproducible
divergence. Run over >= 20 seeds in CI (see the differential-oracle
job).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact_naive import naive_search
from repro.core.engine import BatchSearch
from repro.core.index import PexesoIndex
from repro.core.metric import get_metric, normalize_rows
from repro.core.out_of_core import PartitionedPexeso
from repro.core.partition import PARTITIONERS
from repro.core.search import pexeso_search
from repro.core.topk import naive_topk, pexeso_topk

SEEDS = list(range(24))  # >= 20 seeds, per the CI contract

METRICS = ("euclidean", "manhattan", "chebyshev")


def make_scenario(seed: int):
    """One random lake + query workload; every knob varies with the seed."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 9))
    n_columns = int(rng.integers(8, 21))
    columns = [
        normalize_rows(rng.normal(size=(int(rng.integers(2, 15)), dim)))
        for _ in range(n_columns)
    ]
    metric = get_metric(METRICS[seed % len(METRICS)])

    # Pick τ from an actual distance quantile so selectivity is always
    # interesting (a τ below every distance or above all of them would
    # make the oracle vacuous).
    sample = np.concatenate(columns, axis=0)
    take = sample[rng.choice(sample.shape[0], size=min(40, sample.shape[0]), replace=False)]
    distances = metric.pairwise(take, take)
    distances = distances[distances > 0]
    tau = float(np.quantile(distances, float(rng.uniform(0.05, 0.5))))

    queries = [
        normalize_rows(rng.normal(size=(int(rng.integers(2, 12)), dim))),
        columns[int(rng.integers(0, n_columns))],  # a repository column
    ]

    # T as a fraction or an absolute count (within every query's size),
    # seed-dependent.
    min_rows = min(q.shape[0] for q in queries)
    joinability = (
        float(rng.uniform(0.1, 0.8))
        if rng.random() < 0.5
        else int(rng.integers(1, min_rows + 1))
    )
    n_partitions = int(rng.integers(1, 6))
    return columns, queries, metric, tau, joinability, n_partitions


def hit_rows(result) -> list[tuple[int, int, float]]:
    return [(h.column_id, h.match_count, h.joinability) for h in result.joinable]


@pytest.mark.parametrize("seed", SEEDS)
def test_all_implementations_agree(seed, tmp_path):
    columns, queries, metric, tau, joinability, n_partitions = make_scenario(seed)
    index = PexesoIndex.build(columns, metric=metric, n_pivots=2, levels=3)

    # -- threshold search: naive == scalar == batch (exact counts) ----------------
    naive = [
        naive_search(columns, q, tau, joinability, metric=metric) for q in queries
    ]
    scalar = [pexeso_search(index, q, tau, joinability) for q in queries]
    batch = BatchSearch(index).search_many(queries, tau, joinability)
    for want, got_scalar, got_batch in zip(naive, scalar, batch.results):
        assert hit_rows(got_scalar) == hit_rows(want), f"scalar != naive (seed {seed})"
        assert hit_rows(got_batch) == hit_rows(want), f"batch != naive (seed {seed})"

    # -- partitioned: every partitioner, in-memory and spilled --------------------
    for partitioner in sorted(PARTITIONERS):
        for spill in (None, tmp_path / f"{partitioner}_{seed}"):
            lake = PartitionedPexeso(
                metric=metric,
                n_pivots=2,
                levels=3,
                n_partitions=n_partitions,
                partitioner=partitioner,
                spill_dir=spill,
                max_workers=2,
            ).fit(columns)
            sharded = lake.search_many(queries, tau, joinability)
            for want, got in zip(naive, sharded.results):
                assert hit_rows(got) == hit_rows(want), (
                    f"partitioned ({partitioner}, spill={spill is not None}) "
                    f"!= naive (seed {seed})"
                )

    # -- top-k: sharded, merged once == single-index == naive prefix -------------
    lake = PartitionedPexeso(
        metric=metric, n_pivots=2, levels=3, n_partitions=n_partitions,
        max_workers=2,
    ).fit(columns)
    query = queries[0]
    full = naive_topk(columns, query, tau, len(columns), metric=metric)
    for k in (1, 3, len(columns) + 5):
        want = full[:k]
        single = pexeso_topk(index, query, tau, k)
        merged = lake.topk(query, tau, k)
        assert [(c, n) for c, n, _ in single.hits] == [
            (c, n) for c, n, _ in want
        ], f"single top-{k} != naive (seed {seed})"
        assert merged.hits == single.hits, (
            f"merged top-{k} != single-index top-{k} (seed {seed})"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_cluster_matches_oracle(seed, tmp_path):
    """The distributed lane: a 2-worker cluster replays the same seeds.

    Every scatter-gathered hit and every top-k prefix must equal the
    exhaustive oracle — through replica write-through mutations and one
    simulated worker crash (the coordinator discovers the death via a
    failed scatter and fails the partitions over to the surviving
    replica, mid-run).
    """
    from repro.cluster import LocalCluster
    from repro.core.persistence import save_partitioned

    columns, queries, metric, tau, joinability, n_partitions = make_scenario(seed)
    lake = PartitionedPexeso(
        metric=metric, n_pivots=2, levels=3, n_partitions=n_partitions,
    ).fit(columns)
    lake_dir = tmp_path / "lake"
    save_partitioned(lake, lake_dir)

    def check_search(client, repository, live_ids):
        for query in queries:
            want = naive_search(repository, query, tau, joinability, metric=metric)
            want_rows = [
                (cid, count, jn) for cid, count, jn in hit_rows(want)
                if cid in live_ids
            ]
            reply = client.search(vectors=query, tau=tau, joinability=joinability)
            got = [
                (h["column_id"], h["match_count"], h["joinability"])
                for h in reply["hits"]
            ]
            assert got == want_rows, f"cluster search != naive (seed {seed})"

    def check_topk(client, repository, live_ids):
        query = queries[0]
        ranked = [
            row for row in
            naive_topk(repository, query, tau, len(repository), metric=metric)
            if row[0] in live_ids
        ]
        for k in (1, 3):
            reply = client.topk(vectors=query, tau=tau, k=k)
            got = [(h["column_id"], h["match_count"]) for h in reply["hits"]]
            assert got == [(c, n) for c, n, _ in ranked[:k]], (
                f"cluster top-{k} != naive (seed {seed})"
            )

    # replication=2 over 2 workers: every partition lives on both, so the
    # lake stays fully serviceable with either worker dead
    with LocalCluster(
        lake_dir, n_workers=2, replication=2, mode="thread",
        worker_kwargs=dict(window_ms=None, cache_size=0),
    ) as cluster:
        client = cluster.client
        live_ids = set(range(len(columns)))
        check_search(client, columns, live_ids)
        check_topk(client, columns, live_ids)

        # -- routed mutations: one add (write-through) + one delete -----------
        rng = np.random.default_rng(1000 + seed)
        new_column = normalize_rows(
            rng.normal(size=(int(rng.integers(2, 10)), queries[0].shape[1]))
        )
        added = client.add_column(vectors=new_column)
        assert added["column_id"] == len(columns)
        victim = int(rng.integers(0, len(columns)))
        client.delete_column(victim)

        repository = columns + [new_column]  # naive ids stay positional
        live_ids = (live_ids | {added["column_id"]}) - {victim}
        check_search(client, repository, live_ids)
        check_topk(client, repository, live_ids)

        # -- failover: kill one worker mid-run, every answer stays exact ------
        cluster.kill_worker(seed % 2)
        check_search(client, repository, live_ids)
        check_topk(client, repository, live_ids)
        # the crash is observed (an explicit probe covers the case where
        # routing never touched the dead worker, e.g. a 1-partition lake)
        probed = client.health_check()
        assert probed["workers"][seed % 2] == "down"
        assert probed["serviceable"] is True  # the replica covers it all


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_cluster_matches_oracle(seed, tmp_path):
    """The chaos lane: the cluster stays *exact* under scripted faults.

    Each seed replays its scenario through a replicated 2-worker cluster
    while a deterministic fault schedule abuses both hops: worker 0's
    server randomly delays, drops and 500s search traffic, and the
    coordinator->worker transport randomly drops and black-holes calls.
    A request is allowed to *fail* (HTTP 5xx at the front door — faults
    are faults), but every answer that arrives must be bit-identical to
    the exhaustive oracle: hedged duplicates, replica failover, retries
    and half-open re-promotion may change *which* worker answers, never
    *what* it answers. Fault rules are scoped to ``/search`` / ``/topk``
    only, so the mutation write-through and recovery replay stay clean.
    """
    from repro.cluster import LocalCluster
    from repro.cluster.resilience import ResilienceConfig
    from repro.core.persistence import save_partitioned
    from repro.serve.client import ServeError
    from repro.serve.faults import FaultInjector

    columns, queries, metric, tau, joinability, n_partitions = make_scenario(seed)
    lake = PartitionedPexeso(
        metric=metric, n_pivots=2, levels=3, n_partitions=n_partitions,
    ).fit(columns)
    lake_dir = tmp_path / "lake"
    save_partitioned(lake, lake_dir)

    worker_faults = FaultInjector(seed=seed)
    worker_faults.script("delay", path="/search", probability=0.25, delay=0.03)
    worker_faults.script("error", path="/search", probability=0.15, status=500)
    worker_faults.script("drop", path="/topk", probability=0.2)
    coord_faults = FaultInjector(seed=seed + 100)
    coord_faults.script("drop", path="/search", probability=0.15)
    coord_faults.script("blackhole", path="/topk", probability=0.1, delay=0.02)

    allowed_failures = {500, 502, 503, 504}

    def chaos_search(client, repository, live_ids):
        answered = 0
        for round_ in range(3):
            for qi, query in enumerate(queries):
                want = naive_search(
                    repository, query, tau, joinability, metric=metric
                )
                want_rows = [
                    (cid, count, jn) for cid, count, jn in hit_rows(want)
                    if cid in live_ids
                ]
                deadline_ms = 30_000.0 if (round_ + qi) % 2 else None
                try:
                    reply = client.search(
                        vectors=query, tau=tau, joinability=joinability,
                        deadline_ms=deadline_ms,
                    )
                except ServeError as exc:
                    assert exc.status in allowed_failures, (
                        f"unexpected status {exc.status} (seed {seed})"
                    )
                    continue
                answered += 1
                got = [
                    (h["column_id"], h["match_count"], h["joinability"])
                    for h in reply["hits"]
                ]
                assert got == want_rows, (
                    f"chaos answer != naive (seed {seed})"
                )
        return answered

    def chaos_topk(client, repository, live_ids):
        query = queries[0]
        ranked = [
            row for row in
            naive_topk(repository, query, tau, len(repository), metric=metric)
            if row[0] in live_ids
        ]
        for k in (1, 3):
            try:
                reply = client.topk(vectors=query, tau=tau, k=k)
            except ServeError as exc:
                assert exc.status in allowed_failures
                continue
            got = [(h["column_id"], h["match_count"]) for h in reply["hits"]]
            assert got == [(c, n) for c, n, _ in ranked[:k]], (
                f"chaos top-{k} != naive (seed {seed})"
            )

    with LocalCluster(
        lake_dir, n_workers=2, replication=2, mode="thread",
        worker_kwargs=dict(window_ms=None, cache_size=0),
        worker_fault_injectors=[worker_faults, None],
        coordinator_kwargs=dict(
            retries=1,
            fault_injector=coord_faults,
            resilience=ResilienceConfig(
                hedge_default_delay=0.02, breaker_cooldown=0.05
            ),
        ),
    ) as cluster:
        client = cluster.client
        live_ids = set(range(len(columns)))
        chaos_search(client, columns, live_ids)
        chaos_topk(client, columns, live_ids)

        # routed mutations run clean (fault rules don't match /columns);
        # replicas demoted by chaos catch up through the mutation log.
        # Probe first: chaos may have demoted *both* replicas of some
        # partition, and a write needs at least one live owner.
        client.health_check()
        rng = np.random.default_rng(2000 + seed)
        new_column = normalize_rows(
            rng.normal(size=(int(rng.integers(2, 10)), queries[0].shape[1]))
        )
        added = client.add_column(vectors=new_column)
        victim = int(rng.integers(0, len(columns)))
        client.delete_column(victim)
        repository = columns + [new_column]
        live_ids = (live_ids | {added["column_id"]}) - {victim}

        chaos_search(client, repository, live_ids)
        chaos_topk(client, repository, live_ids)
        # the schedule actually exercised the cluster
        assert any(rule.matches for rule in worker_faults.rules)
        assert any(rule.matches for rule in coord_faults.rules)

        # -- recovery: faults off, probe, then strict full parity -------------
        worker_faults.clear()
        coord_faults.clear()
        probed = client.health_check()
        assert probed["serviceable"] is True
        assert probed["workers"] == ["up", "up"], (
            f"chaos demotions must heal once faults stop (seed {seed})"
        )
        for query in queries:
            want = naive_search(
                repository, query, tau, joinability, metric=metric
            )
            want_rows = [
                (cid, count, jn) for cid, count, jn in hit_rows(want)
                if cid in live_ids
            ]
            reply = client.search(
                vectors=query, tau=tau, joinability=joinability
            )
            got = [
                (h["column_id"], h["match_count"], h["joinability"])
                for h in reply["hits"]
            ]
            assert got == want_rows, f"post-chaos search != naive (seed {seed})"


@pytest.mark.parametrize("seed", SEEDS)
def test_ann_lane_matches_oracle(seed):
    """The ANN lane: the approximate tier never invents a hit.

    Every seed's scenario replays through the opt-in ANN candidate tier
    at several beam widths. The contract under test:

    * **zero false positives** — an ANN hit is always an exact hit with
      a bit-identical match count and joinability, at *every* beam
      width (candidates still pass the unchanged exact verifier);
    * **default knob recall** — at ``DEFAULT_EF_SEARCH`` the measured
      recall against the exact engine is >= 0.9 on every seed;
    * **knob -> max degenerates to exact** — ``ef_search`` at the
      column count returns the exact answer bit for bit (a single index
      is the only backend that accepts the knob).
    """
    from repro.core.ann import DEFAULT_EF_SEARCH, measure_recall
    from repro.core.out_of_core import LakeSearcher

    columns, queries, metric, tau, joinability, n_partitions = make_scenario(seed)
    index = PexesoIndex.build(columns, metric=metric, n_pivots=2, levels=3)
    searcher = LakeSearcher(index)

    recalls = []
    for query in queries:
        exact_rows = hit_rows(searcher.search(query, tau, joinability))
        exact_set = set(exact_rows)
        exact_ids = [row[0] for row in exact_rows]
        for ef in (1, 2, max(1, len(columns) // 2), DEFAULT_EF_SEARCH):
            got_rows = hit_rows(
                searcher.search(query, tau, joinability, ef_search=ef)
            )
            assert set(got_rows) <= exact_set, (
                f"ANN false positive at ef={ef} (seed {seed})"
            )
            recalls.append(
                (ef, measure_recall(exact_ids, [row[0] for row in got_rows]))
            )
        full = searcher.search(
            query, tau, joinability, ef_search=len(columns)
        )
        assert hit_rows(full) == exact_rows, (
            f"ef=n_columns must be bit-for-bit exact (seed {seed})"
        )

    default_recalls = [r for ef, r in recalls if ef == DEFAULT_EF_SEARCH]
    assert min(default_recalls) >= 0.9, (
        f"default-knob recall dropped below 0.9 (seed {seed}): {recalls}"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_persistence_formats_and_backends_agree(seed, tmp_path):
    """The storage lane: the on-disk format, loaded eagerly and mmapped,
    replays the same seeds bit-identically.

        in-memory == format-5 eager == format-5 mmap

    The mmap path serves searches straight off read-only mmaps, so a torn
    serialization or an mmap aliasing bug shows up as a
    seed-reproducible mismatch here.
    """
    from repro.core.persistence import load_index, save_index

    columns, queries, metric, tau, joinability, n_partitions = make_scenario(seed)
    index = PexesoIndex.build(columns, metric=metric, n_pivots=2, levels=3)
    want = [
        hit_rows(pexeso_search(index, q, tau, joinability))
        for q in queries
    ]

    lanes = {}
    save_index(index, tmp_path / "v5")
    lanes["v5-eager"] = load_index(tmp_path / "v5", mmap=False)
    lanes["v5-mmap"] = load_index(tmp_path / "v5", mmap=True)

    for lane, loaded in lanes.items():
        got = [
            hit_rows(pexeso_search(loaded, q, tau, joinability))
            for q in queries
        ]
        assert got == want, f"{lane} != in-memory (seed {seed})"
