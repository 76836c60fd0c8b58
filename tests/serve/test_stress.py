"""Concurrent correctness: mixed serving traffic vs. a per-generation oracle.

N threads hammer one :class:`~repro.serve.service.QueryService` with a
mix of ``search`` / ``topk`` / ``add_column`` / ``delete_column``. Every
response is stamped with the index generation it was served under; after
the run, the mutation log is replayed into one column-set snapshot per
generation and **every** recorded response is checked against the
exhaustive oracle over the snapshot it claims — hits *and* exact match
counts. Any torn read (a search observing a half-applied mutation, a
stale cache entry surviving a generation bump, a coalesced batch mixing
generations) fails this test.
"""

import threading

import numpy as np
import pytest

from repro.core.index import PexesoIndex
from repro.core.metric import EuclideanMetric, normalize_rows
from repro.core.thresholds import joinability_count
from repro.serve.service import QueryService

N_INITIAL = 14
DIM = 6
TAU = 0.6
JOINABILITY = 0.3
N_SEARCHERS = 4
N_MUTATORS = 2
OPS_PER_SEARCHER = 10
OPS_PER_MUTATOR = 6


def _make_columns(seed, n, rows=(5, 12)):
    rng = np.random.default_rng(seed)
    return [
        normalize_rows(rng.normal(size=(int(rng.integers(*rows)), DIM)))
        for _ in range(n)
    ]


def _oracle_counts(snapshot, query, tau):
    """Exact per-column match counts over one generation's column set."""
    metric = EuclideanMetric()
    counts = {}
    for cid, column in snapshot.items():
        pairwise = metric.pairwise(query, column)
        counts[cid] = int((pairwise <= tau).any(axis=1).sum())
    return counts


@pytest.mark.parametrize("window_ms", [0.0, 3.0])
def test_mixed_traffic_matches_generation_oracle(window_ms):
    initial = _make_columns(100, N_INITIAL)
    index = PexesoIndex.build(initial, n_pivots=3, levels=3)
    service = QueryService(
        index, window_ms=window_ms, cache_size=64
    )

    queries = _make_columns(200, 6, rows=(6, 10))
    fresh = [_make_columns(300 + t, OPS_PER_MUTATOR) for t in range(N_MUTATORS)]

    log_lock = threading.Lock()
    mutations = []  # (generation, op, column_id, vectors-or-None)
    search_records = []  # ("search", query_idx, generation, [(cid, count)])
    topk_records = []  # ("topk", query_idx, k, generation, [(cid, count)])
    errors = []
    gate = threading.Barrier(N_SEARCHERS + N_MUTATORS)

    def searcher(worker):
        rng = np.random.default_rng(worker)
        try:
            gate.wait()
            for step in range(OPS_PER_SEARCHER):
                qi = int(rng.integers(len(queries)))
                if step % 3 == 2:
                    k = int(rng.integers(1, 6))
                    response = service.topk(queries[qi], TAU, k)
                    rows = [(cid, count) for cid, count, _ in response.result.hits]
                    with log_lock:
                        topk_records.append((qi, k, response.generation, rows))
                else:
                    response = service.search(queries[qi], TAU, JOINABILITY)
                    rows = [
                        (hit.column_id, hit.match_count)
                        for hit in response.result.joinable
                    ]
                    with log_lock:
                        search_records.append((qi, response.generation, rows))
        except BaseException as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)

    def mutator(worker):
        my_added = []
        rng = np.random.default_rng(1000 + worker)
        try:
            gate.wait()
            for step in range(OPS_PER_MUTATOR):
                if my_added and rng.random() < 0.4:
                    cid, _ = my_added.pop(int(rng.integers(len(my_added))))
                    generation = service.delete_column(cid)
                    with log_lock:
                        mutations.append((generation, "del", cid, None))
                else:
                    vectors = fresh[worker][step]
                    cid, generation = service.add_column(vectors)
                    my_added.append((cid, vectors))
                    with log_lock:
                        mutations.append((generation, "add", cid, vectors))
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=searcher, args=(w,)) for w in range(N_SEARCHERS)
    ] + [threading.Thread(target=mutator, args=(w,)) for w in range(N_MUTATORS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors

    # -- replay the mutation log into one snapshot per generation -------------
    mutations.sort()
    generations = [g for g, *_ in mutations]
    assert generations == list(range(1, len(mutations) + 1)), (
        "each mutation must bump the generation exactly once"
    )
    snapshots = {0: {cid: col for cid, col in enumerate(initial)}}
    current = dict(snapshots[0])
    for generation, op, cid, vectors in mutations:
        if op == "add":
            assert cid not in current, "column IDs must never be reused"
            current[cid] = vectors
        else:
            del current[cid]
        snapshots[generation] = dict(current)

    # -- every response must match the oracle for its own generation ----------
    assert search_records, "stress run produced no searches"
    for qi, generation, rows in search_records:
        snapshot = snapshots[generation]
        counts = _oracle_counts(snapshot, queries[qi], TAU)
        t_count = joinability_count(JOINABILITY, queries[qi].shape[0])
        want = sorted(
            (cid, count) for cid, count in counts.items() if count >= t_count
        )
        assert rows == want, (
            f"search (query {qi}) served under generation {generation} "
            f"disagrees with that generation's oracle"
        )

    assert topk_records, "stress run produced no topk requests"
    for qi, k, generation, rows in topk_records:
        snapshot = snapshots[generation]
        counts = _oracle_counts(snapshot, queries[qi], TAU)
        ranked = sorted(
            ((cid, count) for cid, count in counts.items() if count > 0),
            key=lambda row: (-row[1], row[0]),
        )[: min(k, len(snapshot))]
        assert rows == ranked, (
            f"topk (query {qi}, k={k}) served under generation {generation} "
            f"disagrees with that generation's oracle"
        )


def test_cache_is_never_stale_under_churn():
    """Repeatedly alternate search / mutate; a cached reply must always
    carry the generation its payload was computed under, never the
    current one by accident."""
    initial = _make_columns(1, 10)
    service = QueryService(
        PexesoIndex.build(initial, n_pivots=3, levels=3),
        window_ms=0,
        cache_size=16,
    )
    query = initial[2][:6]
    seen = []
    for round_ in range(6):
        first = service.search(query, TAU, JOINABILITY)
        second = service.search(query, TAU, JOINABILITY)
        assert second.generation == first.generation
        assert second.cached is True
        seen.append(first.generation)
        cid, _ = service.add_column(_make_columns(50 + round_, 1)[0])
        service.delete_column(cid)
    assert seen == [2 * r for r in range(6)]
    stats = service.snapshot_stats()
    assert stats.cache_hits == 6
    assert stats.cache_misses == 6
