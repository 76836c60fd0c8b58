"""Unit tests for the shard map: assignment, lifecycle, routing, persistence."""

import json

import pytest

from repro.cluster.shard_map import ClusterUnavailable, ShardMap


class TestAssignment:
    def test_round_robin_with_replication(self):
        shard_map = ShardMap(parts=[0, 1, 2, 3], n_workers=2, replication=2)
        # rank r lives on slots (r + j) % 2 for j in {0, 1} -> both slots
        assert shard_map.owners == {0: [0, 1], 1: [1, 0], 2: [0, 1], 3: [1, 0]}
        assert shard_map.workers[0].parts == [0, 1, 2, 3]
        assert shard_map.workers[1].parts == [0, 1, 2, 3]

    def test_replication_clamped_to_worker_count(self):
        shard_map = ShardMap(parts=[0, 1], n_workers=2, replication=5)
        assert shard_map.replication == 2

    def test_single_replica_partitions_are_disjoint(self):
        shard_map = ShardMap(parts=[0, 1, 2, 3, 4, 5], n_workers=3, replication=1)
        hosted = [set(w.parts) for w in shard_map.workers]
        assert hosted[0] | hosted[1] | hosted[2] == {0, 1, 2, 3, 4, 5}
        assert not (hosted[0] & hosted[1])
        assert not (hosted[1] & hosted[2])

    def test_non_contiguous_partition_ids(self):
        # empty partitions never reach the map; ids may have gaps
        shard_map = ShardMap(parts=[0, 2, 5], n_workers=2, replication=1)
        assert sorted(shard_map.owners) == [0, 2, 5]

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap(parts=[], n_workers=2)
        with pytest.raises(ValueError):
            ShardMap(parts=[0], n_workers=0)
        with pytest.raises(ValueError):
            ShardMap(parts=[0], n_workers=1, replication=0)


class TestLifecycle:
    def test_registration_claims_slots_in_order(self):
        shard_map = ShardMap(parts=[0, 1], n_workers=2)
        assert shard_map.register().slot == 0
        assert shard_map.register().slot == 1
        with pytest.raises(ClusterUnavailable):
            shard_map.register()

    def test_reregistration_by_url_reclaims_slot(self):
        shard_map = ShardMap(parts=[0, 1], n_workers=2)
        shard_map.register("http://a")
        shard_map.register("http://b")
        shard_map.mark_down(0)
        again = shard_map.register("http://a")
        assert again.slot == 0
        assert again.status == "joining"

    def test_stale_joining_slot_reclaimable_after_grace(self):
        """A registrant that dies between register and ready must not
        wedge its slot forever."""
        shard_map = ShardMap(parts=[0, 1], n_workers=1, join_grace_seconds=0.0)
        shard_map.register()  # claimant never reports ready
        again = shard_map.register()  # grace 0: immediately reclaimable
        assert again.slot == 0
        assert again.status == "joining"

    def test_fresh_joining_slot_not_stolen(self):
        shard_map = ShardMap(parts=[0], n_workers=1, join_grace_seconds=60.0)
        shard_map.register()
        with pytest.raises(ClusterUnavailable):
            shard_map.register()

    def test_serviceable_requires_every_partition_live(self):
        shard_map = ShardMap(parts=[0, 1], n_workers=2, replication=1)
        assert not shard_map.is_serviceable()
        shard_map.register("http://a")
        shard_map.mark_ready(0, "http://a")
        assert not shard_map.is_serviceable()  # partition 1 has no worker
        shard_map.register("http://b")
        shard_map.mark_ready(1, "http://b")
        assert shard_map.is_serviceable()
        shard_map.mark_down(1)
        assert not shard_map.is_serviceable()


class TestRouting:
    def make_live(self, parts, n_workers, replication):
        shard_map = ShardMap(parts, n_workers, replication)
        for slot in range(n_workers):
            shard_map.register(f"http://w{slot}")
            shard_map.mark_ready(slot, f"http://w{slot}")
        return shard_map

    def test_each_partition_routed_exactly_once(self):
        shard_map = self.make_live([0, 1, 2, 3], 2, 2)
        plan = shard_map.route()
        routed = [p for parts in plan.values() for p in parts]
        assert sorted(routed) == [0, 1, 2, 3]

    def test_primary_preferred(self):
        shard_map = self.make_live([0, 1], 2, 2)
        plan = shard_map.route()
        # primaries: partition rank 0 -> slot 0, rank 1 -> slot 1
        assert plan == {0: [0], 1: [1]}

    def test_failover_to_replica(self):
        shard_map = self.make_live([0, 1], 2, 2)
        shard_map.mark_down(0)
        plan = shard_map.route()
        assert plan == {1: [0, 1]}

    def test_unavailable_when_all_replicas_down(self):
        shard_map = self.make_live([0, 1], 2, 1)
        shard_map.mark_down(0)
        with pytest.raises(ClusterUnavailable):
            shard_map.route()
        # the other partition alone still routes
        assert shard_map.route([1]) == {1: [1]}

    def test_route_subset(self):
        shard_map = self.make_live([0, 1, 2, 3], 2, 1)
        plan = shard_map.route([1, 3])
        routed = sorted(p for parts in plan.values() for p in parts)
        assert routed == [1, 3]


class TestPersistence:
    def test_round_trip(self):
        shard_map = ShardMap([0, 1, 2], n_workers=2, replication=2)
        shard_map.register("http://a")
        shard_map.mark_ready(0, "http://a")
        loaded = ShardMap.from_dict(json.loads(json.dumps(shard_map.to_dict())))
        assert loaded.owners == shard_map.owners
        assert loaded.workers[0].url == "http://a"
        # restored liveness is never trusted: claimed workers come back
        # "down" and must re-prove themselves via a health check
        assert loaded.workers[0].status == "down"
        assert loaded.workers[1].status == "empty"

    def test_format_version_checked(self, tmp_path):
        with pytest.raises(ValueError, match="cluster format"):
            ShardMap.from_dict({"format_version": 99})
