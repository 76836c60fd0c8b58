"""The cluster's shard map: partition -> worker assignment with replication.

The map is the coordinator's routing brain and the only piece of
cluster metadata that must survive a restart: the coordinator stores
its :meth:`ShardMap.to_dict` inside ``cluster.json`` next to the lake's
``partitioned.json`` manifest.

Assignment is deterministic round-robin over *worker slots*: partition
``p`` (by rank among the lake's non-empty partitions) lives on slots
``(rank + j) mod n_workers`` for ``j < replication``, with ``j = 0``
the primary. Slots are fixed at plan time; workers claim them in
registration order, and a crashed worker's replacement reclaims a
``down`` (or grace-expired ``joining``) slot, so the assignment never
shuffles under churn — a worker that comes back hosts exactly the
shards its slot always had. (Deployments with stable worker URLs can
also register *with* the URL, which reclaims that URL's old slot
directly.)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

#: bumped when the cluster.json layout changes
CLUSTER_FORMAT_VERSION = 1

CLUSTER_MANIFEST = "cluster.json"

#: worker lifecycle: empty (slot never claimed) -> joining (registered,
#: loading its shards) -> up (serving) <-> down (demoted by a failed
#: health check or scatter call)
WORKER_STATUSES = ("empty", "joining", "up", "down")


class ClusterUnavailable(RuntimeError):
    """No live worker can answer for some partition (HTTP 503 at the edge)."""

    #: read by the front door's exception -> status mapping
    http_status = 503


@dataclass
class WorkerSlot:
    """One slot in the cluster plan and the worker currently filling it."""

    slot: int
    url: Optional[str] = None
    status: str = "empty"
    parts: list[int] = field(default_factory=list)
    #: monotonic time of the last claim (transient — not persisted);
    #: lets register() reclaim a slot whose claimant died mid-load
    claimed_at: float = 0.0

    def to_dict(self) -> dict:
        return {
            "slot": self.slot,
            "url": self.url,
            "status": self.status,
            "parts": list(self.parts),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkerSlot":
        return cls(
            slot=int(data["slot"]),
            url=data.get("url"),
            status=data.get("status", "empty"),
            parts=[int(p) for p in data.get("parts", [])],
        )


class ShardMap:
    """Partition -> worker-slot assignment with N-way replication.

    Thread-safe: routing reads and status writes share one lock (the
    coordinator's handler threads mark workers down concurrently with
    other scatters).

    Args:
        parts: the lake's non-empty partition ids.
        n_workers: number of worker slots.
        replication: replicas per partition (clamped to ``n_workers``).
        join_grace_seconds: how long a ``joining`` claim is honoured.
            A registrant that never reports ready within this window is
            presumed dead mid-load and its slot becomes reclaimable —
            without this, a worker crashing between register and ready
            would wedge its slot (and its partitions) until a
            coordinator restart.
    """

    def __init__(
        self,
        parts: Sequence[int],
        n_workers: int,
        replication: int = 1,
        join_grace_seconds: float = 60.0,
    ):
        if n_workers < 1:
            raise ValueError("need at least one worker slot")
        if replication < 1:
            raise ValueError("replication must be at least 1")
        self.parts = sorted(int(p) for p in parts)
        if not self.parts:
            raise ValueError("need at least one partition to assign")
        self.n_workers = int(n_workers)
        self.replication = min(int(replication), self.n_workers)
        self.join_grace_seconds = float(join_grace_seconds)
        self.workers = [WorkerSlot(slot=s) for s in range(self.n_workers)]
        #: partition -> owner slots, primary first
        self.owners: dict[int, list[int]] = {}
        for rank, part in enumerate(self.parts):
            slots = [(rank + j) % self.n_workers for j in range(self.replication)]
            self.owners[part] = slots
            for s in slots:
                self.workers[s].parts.append(part)
        self._lock = threading.Lock()

    # -- registration and health ---------------------------------------------------

    def register(self, url: Optional[str] = None) -> WorkerSlot:
        """Claim a slot for a (re)joining worker; returns the claimed slot.

        Claim preference: a slot already owned by this URL (same shard
        subset as before), then a never-claimed slot, then a ``down``
        slot — a crashed worker's replacement takes over its shards
        (typical restart flow: the replacement binds a fresh ephemeral
        port, so it cannot present the old URL) — and as a last resort
        a ``joining`` slot whose claimant overran the join grace period
        (presumed dead between register and ready).

        Raises:
            ClusterUnavailable: when every slot is live or freshly
                claimed.
        """
        now = time.monotonic()
        with self._lock:
            if url is not None:
                for worker in self.workers:
                    if worker.url == url:
                        worker.status = "joining"
                        worker.claimed_at = now
                        return worker
            for wanted in ("empty", "down"):
                for worker in self.workers:
                    if worker.status == wanted:
                        worker.url = url
                        worker.status = "joining"
                        worker.claimed_at = now
                        return worker
            for worker in self.workers:
                if (
                    worker.status == "joining"
                    and now - worker.claimed_at >= self.join_grace_seconds
                ):
                    worker.url = url
                    worker.status = "joining"
                    worker.claimed_at = now
                    return worker
            raise ClusterUnavailable(
                f"all {self.n_workers} worker slots are live or joining"
            )

    def mark_ready(self, slot: int, url: str) -> WorkerSlot:
        """Record a worker's serving URL and promote it to ``up``."""
        with self._lock:
            worker = self._slot(slot)
            worker.url = url
            worker.status = "up"
            return worker

    def mark_up(self, slot: int) -> None:
        with self._lock:
            self._slot(slot).status = "up"

    def mark_down(self, slot: int) -> None:
        with self._lock:
            worker = self._slot(slot)
            if worker.status != "empty":
                worker.status = "down"

    def _slot(self, slot: int) -> WorkerSlot:
        if not (0 <= slot < self.n_workers):
            raise KeyError(f"unknown worker slot {slot}")
        return self.workers[slot]

    def worker(self, slot: int) -> WorkerSlot:
        with self._lock:
            return self._slot(slot)

    def statuses(self) -> list[str]:
        with self._lock:
            return [w.status for w in self.workers]

    def is_serviceable(self) -> bool:
        """Whether every partition has at least one live owner."""
        with self._lock:
            up = {w.slot for w in self.workers if w.status == "up"}
            return all(any(s in up for s in slots) for slots in self.owners.values())

    # -- routing -------------------------------------------------------------------

    def route(
        self,
        parts: Optional[Sequence[int]] = None,
        exclude: Sequence[int] = (),
    ) -> dict[int, list[int]]:
        """Plan one scatter: ``{worker slot: partitions it answers}``.

        Each partition is answered by exactly one live owner (the
        primary when it is up, else the first live replica) so the
        per-worker results are disjoint and merge exactly.

        ``exclude`` removes slots from consideration for this plan only
        — the coordinator's per-request failover never sends a group
        back to a slot that failed it, even one still ``up`` because
        its failed call started before the slot's last successful probe.

        Raises:
            ClusterUnavailable: when some partition has no live owner.
        """
        wanted = self.parts if parts is None else [int(p) for p in parts]
        excluded = set(exclude)
        with self._lock:
            up = {
                w.slot
                for w in self.workers
                if w.status == "up" and w.slot not in excluded
            }
            plan: dict[int, list[int]] = {}
            for part in wanted:
                slots = self.owners.get(part)
                if slots is None:
                    raise KeyError(f"unknown partition {part}")
                chosen = next((s for s in slots if s in up), None)
                if chosen is None:
                    raise ClusterUnavailable(
                        f"partition {part} has no live worker "
                        f"(owners {slots} all down or excluded)"
                    )
                plan.setdefault(chosen, []).append(part)
            return plan

    def live_common_owner(
        self, parts: Sequence[int], exclude: Sequence[int] = ()
    ) -> Optional[int]:
        """A live slot (not in ``exclude``) hosting *all* of ``parts``.

        This is the hedged-read candidate: a replica that can answer the
        exact same partition group as the slow primary, so the hedge
        returns a bit-identical payload. ``None`` when no single replica
        covers the whole group (hedging is skipped, never split).
        """
        wanted = [int(p) for p in parts]
        if not wanted:
            return None
        excluded = set(exclude)
        with self._lock:
            up = {
                w.slot
                for w in self.workers
                if w.status == "up" and w.slot not in excluded
            }
            candidates = up
            for part in wanted:
                owners = self.owners.get(part)
                if owners is None:
                    return None
                candidates = candidates & set(owners)
                if not candidates:
                    return None
            return min(candidates)

    # -- persistence ---------------------------------------------------------------

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "format_version": CLUSTER_FORMAT_VERSION,
                "n_workers": self.n_workers,
                "replication": self.replication,
                "parts": list(self.parts),
                "workers": [w.to_dict() for w in self.workers],
            }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardMap":
        if data.get("format_version") != CLUSTER_FORMAT_VERSION:
            raise ValueError(
                f"cluster format {data.get('format_version')} != "
                f"{CLUSTER_FORMAT_VERSION}"
            )
        shard_map = cls(
            parts=data["parts"],
            n_workers=data["n_workers"],
            replication=data["replication"],
        )
        for worker in shard_map.workers:
            saved = WorkerSlot.from_dict(data["workers"][worker.slot])
            worker.url = saved.url
            # A restarted coordinator cannot trust saved liveness — every
            # claimed worker re-proves itself through a health check.
            worker.status = "down" if saved.status != "empty" else "empty"
        return shard_map
