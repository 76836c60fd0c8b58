"""End-to-end tracing through a live 2-worker cluster, calm and chaotic.

Thread-mode workers share the process-default tracer, so one traced
``/search`` through coordinator + workers lands every span — coordinator
root, scatter, per-slot calls, worker service spans — in a single ring
buffer as ONE trace tree.  The chaos lane replays the 24 seeds with
scripted faults and demands the trace record the hedge/failover that
actually happened while answers stay bit-identical.
"""

import time

import numpy as np
import pytest

from repro.cluster import LocalCluster
from repro.cluster.resilience import ResilienceConfig
from repro.core.metric import normalize_rows
from repro.core.out_of_core import LakeSearcher, PartitionedPexeso
from repro.core.persistence import load_partitioned, save_partitioned
from repro.obs.trace import Tracer, set_default_tracer
from repro.serve.faults import FaultInjector

WORKER_KWARGS = dict(window_ms=None, cache_size=0)


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(29)
    return [
        normalize_rows(rng.normal(size=(int(rng.integers(5, 12)), 6)))
        for _ in range(18)
    ]


@pytest.fixture(scope="module")
def lake_dir(columns, tmp_path_factory):
    directory = tmp_path_factory.mktemp("trace-lake") / "lake"
    lake = PartitionedPexeso(n_pivots=2, levels=3, n_partitions=4).fit(columns)
    save_partitioned(lake, directory)
    return directory


@pytest.fixture(scope="module")
def reference(lake_dir):
    return LakeSearcher(load_partitioned(lake_dir))


@pytest.fixture()
def tracer():
    """A fresh process-default tracer, restored afterwards."""
    fresh = Tracer()
    previous = set_default_tracer(fresh)
    try:
        yield fresh
    finally:
        set_default_tracer(previous)


def span_names(tree):
    names = []

    def walk(node):
        names.append(node["name"])
        for child in node["children"]:
            walk(child)

    for root in tree["roots"]:
        walk(root)
    return names


def tree_annotations(tree):
    merged = {}

    def walk(node):
        merged.update(node["annotations"])
        for child in node["children"]:
            walk(child)

    for root in tree["roots"]:
        walk(root)
    return merged


def hit_rows(reply):
    return [
        (h["column_id"], h["match_count"], h["joinability"])
        for h in reply["hits"]
    ]


class TestCalmCluster:
    def test_one_traced_search_yields_one_covering_tree(
        self, tracer, lake_dir, columns
    ):
        slow = FaultInjector(seed=1)
        with LocalCluster(
            lake_dir, n_workers=2, replication=2, mode="thread",
            worker_kwargs=WORKER_KWARGS,
            worker_fault_injectors=[slow, None],
            # hedging off: a losing hedge finishes *after* the response
            # and its straggler spans would show up as a second tree
            coordinator_kwargs=dict(
                resilience=ResilienceConfig(hedge=False),
            ),
        ) as cluster:
            query = normalize_rows(np.vstack(columns))
            cluster.client.search(vectors=query, tau=0.6, joinability=0.2)
            # a slow worker makes time inside the root span dominate the
            # request, so the coverage bound below does not hang on
            # millisecond-scale scheduling of the transport around it
            slow.script("delay", path="/search", delay=0.6, first=1)
            tracer.reset()  # warmed up: measure a steady-state request
            started = time.perf_counter()
            reply = cluster.client.search(
                vectors=query, tau=0.6, joinability=0.2
            )
            elapsed = time.perf_counter() - started

        (tree,) = tracer.traces()
        names = span_names(tree)
        (root,) = tree["roots"]
        assert root["name"] == "coordinator.search"
        # the full scatter/worker/service chain is present — worker-side
        # spans joined the coordinator's trace via header propagation
        for expected in (
            "coordinator.scatter", "scatter.slot", "worker.call",
            "serve.search", "service.search", "coordinator.merge",
        ):
            assert expected in names, f"missing span {expected}"
        slots = {
            node["annotations"]["slot"]
            for node in _find_all(tree, "scatter.slot")
        }
        assert slots == {0, 1}

        # acceptance: the coordinator root covers >= 95% of the measured
        # wall time (transport + JSON framing is all that may escape it)
        assert root["duration_seconds"] >= 0.95 * elapsed, (
            root["duration_seconds"], elapsed,
        )
        # the payload's stage breakdown never exceeds the span it sits in
        assert set(reply["timings"]) == {"scatter", "merge"}
        assert sum(reply["timings"].values()) <= root["duration_seconds"]

    def test_debug_traces_endpoint_serves_the_same_tree(
        self, tracer, lake_dir, columns
    ):
        with LocalCluster(
            lake_dir, n_workers=2, replication=2, mode="thread",
            worker_kwargs=WORKER_KWARGS,
        ) as cluster:
            cluster.client.search(
                vectors=columns[3][:5], tau=0.6, joinability=0.3
            )
            debug = cluster.client.debug_traces()
        assert [t["trace_id"] for t in debug["traces"]] == \
            [t["trace_id"] for t in tracer.traces()]
        assert "slow_queries" in debug


class TestWireShape:
    """One call per routed worker, every partition answered once.

    A 4-partition lake on 2 unreplicated workers: each worker owns two
    partitions, so a search is exactly two worker calls whose partition
    groups tile the lake, and a top-k is the same two calls in one
    scatter. Five workers over five partitions make five routed groups,
    and a top-k is still one scatter.
    """

    @pytest.fixture()
    def cluster(self, lake_dir):
        with LocalCluster(
            lake_dir, n_workers=2, replication=1, mode="thread",
            worker_kwargs=WORKER_KWARGS,
        ) as running:
            yield running

    def test_lake_has_four_nonempty_partitions(self, lake_dir):
        lake = load_partitioned(lake_dir)
        assert [bool(g) for g in lake.partition_columns] == [True] * 4

    def test_search_calls_each_worker_once_covering_every_partition(
        self, tracer, cluster, columns
    ):
        tracer.reset()
        cluster.client.search(vectors=columns[3][:5], tau=0.6, joinability=0.3)
        (tree,) = tracer.traces()
        assert len(_find_all(tree, "worker.call")) == 2
        slots = _find_all(tree, "scatter.slot")
        assert sorted(node["annotations"]["slot"] for node in slots) == [0, 1]
        parts = [p for node in slots for p in node["annotations"]["parts"]]
        assert sorted(parts) == [0, 1, 2, 3]

    def test_topk_calls_each_worker_once_in_one_wave(
        self, tracer, cluster, columns
    ):
        tracer.reset()
        cluster.client.topk(vectors=columns[3][:5], tau=0.7, k=3)
        (tree,) = tracer.traces()
        assert len(_find_all(tree, "coordinator.scatter")) == 1
        assert len(_find_all(tree, "worker.call")) == 2
        parts = [
            p
            for node in _find_all(tree, "scatter.slot")
            for p in node["annotations"]["parts"]
        ]
        assert sorted(parts) == [0, 1, 2, 3]

    def test_topk_over_five_groups_is_one_scatter(
        self, tracer, columns, tmp_path
    ):
        lake_dir = tmp_path / "lake"
        lake = PartitionedPexeso(
            n_pivots=2, levels=3, n_partitions=5, partitioner="random"
        ).fit(columns)
        assert all(lake.partition_columns)
        save_partitioned(lake, lake_dir)
        with LocalCluster(
            lake_dir, n_workers=5, replication=1, mode="thread",
            worker_kwargs=WORKER_KWARGS,
        ) as cluster:
            tracer.reset()
            reply = cluster.client.topk(vectors=columns[3][:5], tau=0.7, k=3)
        (tree,) = tracer.traces()
        (scatter,) = _find_all(tree, "coordinator.scatter")
        assert scatter["annotations"]["n_groups"] == 5
        assert len(_find_all(tree, "worker.call")) == 5
        want = LakeSearcher(lake).topk(columns[3][:5], 0.7, 3)
        assert [(h["column_id"], h["match_count"]) for h in reply["hits"]] == [
            (cid, count) for cid, count, _ in want.hits
        ]


def _find_all(tree, name):
    found = []

    def walk(node):
        if node["name"] == name:
            found.append(node)
        for child in node["children"]:
            walk(child)

    for root in tree["roots"]:
        walk(root)
    return found


class TestChaosLane:
    """The 24-seed chaos lane, traced.

    Even seeds script a slow primary (the hedge must fire and win); odd
    seeds script a dropped transport call (the group must fail over to
    the replica).  Either way the query must produce exactly one trace
    tree that *records* the injected event, and the answer must stay
    bit-identical to the exhaustive reference.
    """

    @pytest.mark.parametrize("seed", range(24))
    def test_trace_records_injected_fault_with_exact_results(
        self, tracer, seed, lake_dir, reference, columns
    ):
        hedge_lane = seed % 2 == 0
        worker_faults = [None, None]
        coordinator_kwargs = dict(
            resilience=ResilienceConfig(
                hedge_default_delay=0.02, hedge_delay_max=0.02
            ),
        )
        if hedge_lane:
            slow = FaultInjector(seed=seed)
            slow.script("delay", path="/search", delay=0.3, times=1)
            worker_faults = [slow, None]
        else:
            drop = FaultInjector(seed=seed)
            drop.script("drop", path="/search", times=1)
            # retries=0: the transport must not quietly absorb the drop —
            # the group has to *fail over* to the replica
            coordinator_kwargs.update(retries=0, fault_injector=drop)

        query = columns[seed % len(columns)][:5]
        want = reference.search(query, 0.6, 0.3)
        want_rows = [
            (h.column_id, h.match_count, h.joinability) for h in want.joinable
        ]

        with LocalCluster(
            lake_dir, n_workers=2, replication=2, mode="thread",
            worker_kwargs=WORKER_KWARGS,
            worker_fault_injectors=worker_faults,
            coordinator_kwargs=coordinator_kwargs,
        ) as cluster:
            reply = cluster.client.search(
                vectors=query, tau=0.6, joinability=0.3
            )

        assert hit_rows(reply) == want_rows, f"seed {seed}: result drift"
        (tree,) = tracer.traces()  # exactly one trace for the one query
        annotations = tree_annotations(tree)
        if hedge_lane:
            assert annotations.get("hedge_fired") is True, f"seed {seed}"
            assert annotations.get("hedge_won") is True, f"seed {seed}"
        else:
            assert annotations.get("failover") is True, f"seed {seed}"
        # the scatter slot reports who actually answered after the fault
        assert "answered_by" in annotations, f"seed {seed}"
