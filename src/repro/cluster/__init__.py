"""Distributed cluster subsystem: multi-node scatter-gather search.

One process cannot scale verification-heavy traffic past a single core
of useful CPU (the GIL), and one process is a single point of failure.
This package crosses the process boundary while keeping the repo's
core guarantee — results bit-identical to a single-node
:class:`~repro.core.out_of_core.LakeSearcher`:

* :class:`~repro.cluster.shard_map.ShardMap` — partition -> worker-slot
  assignment with N-way replication, persisted as ``cluster.json``
  next to the lake's ``partitioned.json``;
* :class:`~repro.cluster.coordinator.ClusterCoordinator` — runs
  :class:`~repro.core.out_of_core.PartitionedPexeso` (exact merge,
  one-scatter top-k, placement, IDs) over remote shard
  groups (:class:`~repro.cluster.groups.RemoteGroups`), keeping
  membership, the worker transport (scatter, failover, hedging,
  breakers, deadlines) and ``cluster.json`` itself;
* :func:`~repro.cluster.worker.start_worker` — a serving node over a
  shard-subset lake (:func:`~repro.core.persistence.load_partitioned`
  with ``parts=``), joined through the coordinator's registration
  endpoints;
* :class:`~repro.cluster.local.LocalCluster` — one-machine clusters
  (thread or process workers) for tests, examples and benchmarks;
* :class:`~repro.cluster.remote.RemoteLakeSearcher` — the local
  searcher surface over the cluster API, backing
  :meth:`repro.lake.discovery.JoinableTableSearch.from_cluster`;
* :mod:`repro.cluster.resilience` — per-request deadline budgets
  (propagated coordinator -> worker), hedged replica reads, and
  per-worker circuit breakers with half-open probing, configured via
  :class:`~repro.cluster.resilience.ResilienceConfig`.
"""

from repro.cluster.client import ClusterClient
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.local import LocalCluster
from repro.cluster.remote import RemoteLakeSearcher
from repro.cluster.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    LatencyTracker,
    ResilienceConfig,
)
from repro.cluster.server import ClusterHTTPServer, make_cluster_server
from repro.cluster.shard_map import ClusterUnavailable, ShardMap, WorkerSlot
from repro.cluster.worker import start_worker

__all__ = [
    "CircuitBreaker",
    "ClusterClient",
    "ClusterCoordinator",
    "ClusterHTTPServer",
    "ClusterUnavailable",
    "Deadline",
    "DeadlineExceeded",
    "LatencyTracker",
    "LocalCluster",
    "RemoteLakeSearcher",
    "ResilienceConfig",
    "ShardMap",
    "WorkerSlot",
    "make_cluster_server",
    "start_worker",
]
