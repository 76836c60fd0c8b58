"""Cluster HTTP round trips: parity, maintenance, failover, recovery."""

import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cluster import LocalCluster
from repro.cluster import local as local_module
from repro.cluster.local import worker_env
from repro.cluster.resilience import ResilienceConfig
from repro.core.metric import normalize_rows
from repro.core.out_of_core import LakeSearcher, PartitionedPexeso
from repro.core.persistence import load_partitioned, save_partitioned
from repro.serve.client import ServeError


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(11)
    return [
        normalize_rows(rng.normal(size=(int(rng.integers(4, 12)), 6)))
        for _ in range(18)
    ]


@pytest.fixture(scope="module")
def lake_dir(columns, tmp_path_factory):
    directory = tmp_path_factory.mktemp("cluster") / "lake"
    lake = PartitionedPexeso(n_pivots=2, levels=3, n_partitions=4).fit(columns)
    save_partitioned(lake, directory)
    return directory


@pytest.fixture()
def cluster(lake_dir):
    with LocalCluster(
        lake_dir,
        n_workers=2,
        replication=2,
        mode="thread",
        worker_kwargs=dict(window_ms=None, cache_size=0),
    ) as running:
        yield running


@pytest.fixture()
def reference(lake_dir):
    return LakeSearcher(load_partitioned(lake_dir))


class TestRoundTrips:
    def test_healthz_and_cluster_state(self, cluster):
        reply = cluster.client.healthz()
        assert reply["ok"] is True
        assert reply["workers"] == ["up", "up"]
        assert reply["generation"] == [0, 0]
        state = cluster.client.cluster()
        assert state["serviceable"] is True
        assert state["replication"] == 2
        assert len(state["parts"]) >= 1

    def test_search_parity_with_single_node(self, cluster, reference, columns):
        query = columns[3][:5]
        want = reference.search(query, 0.6, 0.3)
        reply = cluster.client.search(vectors=query, tau=0.6, joinability=0.3)
        got = [
            (h["column_id"], h["match_count"], h["joinability"])
            for h in reply["hits"]
        ]
        assert got == [
            (h.column_id, h.match_count, h.joinability) for h in want.joinable
        ]
        assert reply["generation"] == [0, 0]

    def test_topk_parity_with_single_node(self, cluster, reference, columns):
        query = columns[0][:6]
        want = reference.topk(query, 0.7, 4)
        reply = cluster.client.topk(vectors=query, tau=0.7, k=4)
        assert [
            (h["column_id"], h["match_count"], h["joinability"])
            for h in reply["hits"]
        ] == want.hits

    def test_metrics_exposition(self, cluster, columns):
        cluster.client.search(vectors=columns[1][:4], tau=0.6, joinability=0.3)
        metrics = cluster.client.metrics()
        assert "pexeso_serve_cluster_requests" in metrics
        assert "pexeso_serve_cluster_workers_up 2" in metrics
        assert "pexeso_serve_cluster_serviceable 1" in metrics

    def test_column_probe(self, cluster):
        reply = cluster.client._request("GET", "/columns/0")
        assert reply == {"column_id": 0, "live": True,
                         "partition": reply["partition"]}
        assert cluster.client._request("GET", "/columns/9999")["live"] is False


class TestRoutedMaintenance:
    def test_add_write_through_and_delete(self, cluster):
        rng = np.random.default_rng(3)
        newcol = normalize_rows(rng.normal(size=(6, 6)))
        added = cluster.client.add_column(vectors=newcol, table="live", column="k")
        # write-through: every replica applied the add -> both generations bump
        assert added["generation"] == [1, 1]
        found = cluster.client.search(vectors=newcol[:3], tau=1e-6, joinability=1.0)
        assert added["column_id"] in [h["column_id"] for h in found["hits"]]

        removed = cluster.client.delete_column(added["column_id"])
        assert removed["generation"] == [2, 2]
        gone = cluster.client.search(vectors=newcol[:3], tau=1e-6, joinability=1.0)
        assert added["column_id"] not in [h["column_id"] for h in gone["hits"]]
        with pytest.raises(ServeError) as err:
            cluster.client.delete_column(added["column_id"])
        assert err.value.status == 404

    def test_coordinator_rejects_worker_level_placement(self, cluster):
        """Explicit partition/column_id are write-through fields between
        coordinator and worker; a client sending them to the coordinator
        gets a 400 (silently ignoring them would make the client's
        idempotent-retry marking unsafe)."""
        rng = np.random.default_rng(13)
        vec = normalize_rows(rng.normal(size=(4, 6)))
        with pytest.raises(ServeError) as err:
            cluster.client.add_column(vectors=vec, partition=0, column_id=99)
        assert err.value.status == 400

    def test_ids_allocated_centrally_and_never_reused(self, cluster, columns):
        rng = np.random.default_rng(4)
        first = cluster.client.add_column(
            vectors=normalize_rows(rng.normal(size=(4, 6))))
        cluster.client.delete_column(first["column_id"])
        second = cluster.client.add_column(
            vectors=normalize_rows(rng.normal(size=(4, 6))))
        assert second["column_id"] == first["column_id"] + 1


class TestLocalClusterEquivalence:
    def test_same_mutations_same_ids_partitions_and_answers(
        self, columns, tmp_path
    ):
        """In-process lake and cluster run one scatter-gather: the same
        adds and deletes allocate the same IDs to the same partitions,
        and searches and top-k answer identically afterwards."""
        lake = PartitionedPexeso(n_pivots=2, levels=3, n_partitions=3).fit(columns)
        lake_dir = tmp_path / "lake"
        save_partitioned(lake, lake_dir)
        rng = np.random.default_rng(21)
        new_columns = [normalize_rows(rng.normal(size=(6, 6))) for _ in range(3)]

        def partition_of(gid):
            return next(
                part for part, globals_ in enumerate(lake.partition_columns)
                if gid in globals_
            )

        with LocalCluster(
            lake_dir, n_workers=2, replication=2, mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
        ) as cluster:
            placed = []
            for step, vectors in enumerate(new_columns):
                gid = lake.add_column(vectors)
                added = cluster.client.add_column(vectors=vectors)
                placed.append((gid, partition_of(gid)))
                assert added["column_id"] == gid
                assert cluster.coordinator.column_partition(gid) == partition_of(gid)
                if step == 0:
                    lake.delete_column(2)
                    cluster.client.delete_column(2)
            lake.delete_column(placed[0][0])
            cluster.client.delete_column(placed[0][0])
            assert not cluster.coordinator.has_column(placed[0][0])
            assert cluster.client.cluster()["n_columns"] == lake.n_columns

            local = LakeSearcher(lake)
            query = np.vstack([columns[3][:4], new_columns[1][:3]])
            for tau in (0.4, 0.7):
                want = local.search(query, tau, 0.2)
                reply = cluster.client.search(vectors=query, tau=tau, joinability=0.2)
                assert [
                    (h["column_id"], h["match_count"], h["joinability"])
                    for h in reply["hits"]
                ] == [(h.column_id, h.match_count, h.joinability) for h in want.joinable]
                want_tk = local.topk(query, tau, 4)
                tk = cluster.client.topk(vectors=query, tau=tau, k=4)
                assert [
                    (h["column_id"], h["match_count"], h["joinability"])
                    for h in tk["hits"]
                ] == want_tk.hits


class TestFailover:
    def test_search_survives_worker_crash(self, lake_dir, reference, columns):
        # Hedging off: a hedge to the replica fired before the killed
        # primary's connection error arrives would answer first, and no
        # failover would be counted. Hedged reads are covered in
        # test_resilience.py.
        with LocalCluster(
            lake_dir,
            n_workers=2,
            replication=2,
            mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
            coordinator_kwargs=dict(resilience=ResilienceConfig(hedge=False)),
        ) as cluster:
            query = columns[3][:5]
            want = [
                (h.column_id, h.match_count, h.joinability)
                for h in reference.search(query, 0.6, 0.3).joinable
            ]
            cluster.kill_worker(0)
            # the dead worker is discovered mid-request and failed over
            reply = cluster.client.search(vectors=query, tau=0.6, joinability=0.3)
            assert [
                (h["column_id"], h["match_count"], h["joinability"])
                for h in reply["hits"]
            ] == want
            state = cluster.client.cluster()
            assert state["workers"][0]["status"] == "down"
            assert state["serviceable"] is True  # replicas cover every partition
            assert state["failovers"] >= 1
            # top-k too
            tk = cluster.client.topk(vectors=query, tau=0.7, k=3)
            want_tk = reference.topk(query, 0.7, 3)
            assert [
                (h["column_id"], h["match_count"]) for h in tk["hits"]
            ] == [(c, n) for c, n, _ in want_tk.hits]

    def test_mutations_survive_worker_crash(self, cluster):
        rng = np.random.default_rng(5)
        newcol = normalize_rows(rng.normal(size=(5, 6)))
        cluster.kill_worker(1)
        added = cluster.client.add_column(vectors=newcol)
        # only the surviving replica applied it
        found = cluster.client.search(vectors=newcol[:3], tau=1e-6, joinability=1.0)
        assert added["column_id"] in [h["column_id"] for h in found["hits"]]

    def test_unserviceable_when_all_replicas_down(self, lake_dir, columns):
        with LocalCluster(
            lake_dir, n_workers=2, replication=1, mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
        ) as cluster:
            cluster.kill_worker(0)
            cluster.kill_worker(1)
            with pytest.raises(ServeError) as err:
                cluster.client.search(
                    vectors=columns[0][:4], tau=0.6, joinability=0.3
                )
            assert err.value.status == 503


class TestRecovery:
    def test_rejoining_worker_is_replayed_missed_mutations(self, lake_dir):
        """A worker that restarts reloads the saved lake and must be
        brought level with every routed mutation it missed."""
        rng = np.random.default_rng(6)
        with LocalCluster(
            lake_dir, n_workers=2, replication=2, mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
        ) as cluster:
            newcol = normalize_rows(rng.normal(size=(6, 6)))
            added = cluster.client.add_column(vectors=newcol)
            cluster.kill_worker(0)
            # a second mutation lands while worker 0 is dead
            other = normalize_rows(rng.normal(size=(5, 6)))
            added2 = cluster.client.add_column(vectors=other)

            # restart worker 0 in-process: fresh subset load + re-register
            from repro.cluster.worker import start_worker

            server, slot, thread = start_worker(
                lake_dir, cluster.url, window_ms=None, cache_size=0
            )
            try:
                state = cluster.client.cluster()
                assert state["workers"][slot]["status"] == "up"
                # the replay restored both adds on the rejoined worker:
                # route a restricted probe straight at it
                from repro.serve.client import ServeClient

                direct = ServeClient(server.url)
                probe = direct.search(
                    vectors=newcol[:3], tau=1e-6, joinability=1.0
                )
                assert added["column_id"] in [
                    h["column_id"] for h in probe["hits"]
                ]
                probe2 = direct.search(
                    vectors=other[:3], tau=1e-6, joinability=1.0
                )
                assert added2["column_id"] in [
                    h["column_id"] for h in probe2["hits"]
                ]
            finally:
                server.close(drain_seconds=0.0)
                thread.join(timeout=5.0)


class TestCoordinatorRestart:
    def test_resize_keeps_ids_and_tombstones(self, columns, tmp_path):
        """Restarting with a different worker count must never reuse IDs
        or forget tombstones recorded only in cluster.json."""
        from repro.cluster.coordinator import ClusterCoordinator

        lake_dir = tmp_path / "lake"
        lake = PartitionedPexeso(n_pivots=2, levels=3, n_partitions=3).fit(columns)
        save_partitioned(lake, lake_dir)
        rng = np.random.default_rng(12)
        with LocalCluster(
            lake_dir, n_workers=2, replication=1, mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
        ) as cluster:
            added = cluster.client.add_column(
                vectors=normalize_rows(rng.normal(size=(5, 6))))
            cluster.client.delete_column(0)
        # "restart" with a different topology: 3 slots instead of 2
        coordinator = ClusterCoordinator(lake_dir, n_workers=3, replication=2)
        assert coordinator.lake.next_column_id == added["column_id"] + 1
        assert not coordinator.has_column(0)  # tombstone survived
        assert coordinator.has_column(added["column_id"])  # routing survived
        assert coordinator.shard_map.n_workers == 3  # topology replanned


class TestRemoteDiscovery:
    def test_from_cluster_matches_local_discovery(self, lake_dir, columns):
        from repro.embedding.hashing import HashingNGramEmbedder
        from repro.lake.discovery import JoinableTableSearch
        from repro.lake.table import Column, Table

        embedder = HashingNGramEmbedder(dim=6, seed=0)
        with LocalCluster(
            lake_dir, n_workers=2, replication=1, mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
        ) as cluster:
            search = JoinableTableSearch.from_cluster(
                embedder, cluster.url, preprocess=False
            )
            # the saved lake has no catalog.json -> synthesized refs
            assert len(search.refs) == len(columns)
            query = Table(
                "q",
                [Column("key", [f"value_{i}" for i in range(8)])],
                key_column="key",
            )
            hits = search.search(query, "key", tau_fraction=0.2,
                                 joinability=0.1, with_mappings=False)
            assert isinstance(hits, list)
            with pytest.raises(ValueError, match="with_mappings=False"):
                search.search(query, "key", with_mappings=True)

    def test_from_cluster_after_delete_keeps_high_ids_resolvable(
        self, lake_dir, columns
    ):
        """IDs are never reused, so a facade built after a delete must
        still resolve live IDs above the live *count*."""
        from repro.embedding.hashing import HashingNGramEmbedder
        from repro.lake.discovery import JoinableTableSearch
        from repro.lake.table import Column, Table

        embedder = HashingNGramEmbedder(dim=6, seed=0)
        rng = np.random.default_rng(14)
        with LocalCluster(
            lake_dir, n_workers=2, replication=1, mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
        ) as cluster:
            added = cluster.client.add_column(
                vectors=normalize_rows(rng.normal(size=(5, 6))))
            cluster.client.delete_column(2)
            search = JoinableTableSearch.from_cluster(
                embedder, cluster.url, preprocess=False
            )
            # the live-added id (== len(columns)) must have a slot
            assert len(search.refs) > added["column_id"]
            query = Table(
                "q", [Column("key", ["v"] * 6)], key_column="key"
            )
            hits = search.search(query, "key", tau_fraction=0.3,
                                 joinability=0.1, with_mappings=False)
            assert isinstance(hits, list)  # no IndexError on high IDs

    def test_remote_searcher_parity(self, lake_dir, columns, reference):
        from repro.cluster.remote import RemoteLakeSearcher

        with LocalCluster(
            lake_dir, n_workers=2, replication=1, mode="thread",
            worker_kwargs=dict(window_ms=None, cache_size=0),
        ) as cluster:
            remote = RemoteLakeSearcher(cluster.url)
            query = columns[2][:5]
            want = reference.search(query, 0.6, 0.3)
            got = remote.search(query, 0.6, 0.3)
            assert [(h.column_id, h.match_count, h.joinability)
                    for h in got.joinable] == \
                [(h.column_id, h.match_count, h.joinability)
                 for h in want.joinable]
            assert remote.topk(query, 0.7, 3).hits == \
                reference.topk(query, 0.7, 3).hits
            assert remote.n_columns == len(columns)
            assert remote.has_column(0) is True


class TestProcessWorkerEnvironment:
    """A process-mode worker runs with BLAS pinned to one thread unless
    the caller chose a count; checked without spawning a process."""

    def test_blas_is_pinned_unless_set(self):
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = worker_env({"PYTHONPATH": "elsewhere"})
        assert env["OPENBLAS_NUM_THREADS"] == "1"
        assert env["PYTHONPATH"] == src_dir + os.pathsep + "elsewhere"
        assert worker_env({"OPENBLAS_NUM_THREADS": "4"})["OPENBLAS_NUM_THREADS"] == "4"

    def test_spawn_passes_it_to_the_child(self, tmp_path, monkeypatch):
        spawned = []
        monkeypatch.setattr(
            local_module.subprocess, "Popen", lambda cmd, env, **kwargs: spawned.append(env)
        )
        monkeypatch.setattr(LocalCluster, "url", "http://127.0.0.1:9")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        LocalCluster(tmp_path, 1, mode="process")._spawn_worker()
        (env,) = spawned
        assert env["OPENBLAS_NUM_THREADS"] == "1"
