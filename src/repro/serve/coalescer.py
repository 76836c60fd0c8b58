"""Micro-batching request coalescer.

The batch engine answers N queries far cheaper than N single searches
(one shared pivot mapping and one blocking pass per τ group), but online clients arrive one request at a time. The
:class:`MicroBatcher` bridges the two: concurrently arriving requests
queue up, the first arrival becomes the *leader*, waits a small window
for followers to pile in, and then executes fused batches while
followers block on per-request events. A leader serves only until its
own request is answered and then hands leadership to the queue head, so
no client thread is held hostage by other people's traffic.

The executor callback receives the raw :class:`PendingRequest` list and
must either fill every request's ``payload`` or let the batcher
propagate its exception to all of them — a failed fuse never strands a
waiting client.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional, Sequence


class PendingRequest:
    """One queued single-query request awaiting a fused dispatch."""

    __slots__ = ("args", "event", "payload", "error", "promoted", "enqueued_at")

    def __init__(self, args: tuple):
        self.args = args
        self.event = threading.Event()
        self.payload: Any = None
        self.error: Optional[BaseException] = None
        #: set (under the batcher lock) when an exiting leader hands this
        #: queued request the leadership instead of a result
        self.promoted = False
        #: queue-wait clock start — the executor reads it to attribute
        #: time spent waiting for the fused dispatch (``queue_wait``)
        self.enqueued_at = time.perf_counter()


class MicroBatcher:
    """Coalesce concurrent submissions into batched executor calls.

    Args:
        execute: callback taking a list of :class:`PendingRequest` and
            setting each one's ``payload``. Exceptions it raises are
            re-raised in every affected submitter.
        window_seconds: how long the leader waits for followers before
            dispatching. ``0`` still coalesces whatever raced in while a
            previous batch was executing, without sleeping.
        max_batch: cap on requests per fused dispatch; a longer queue is
            drained in successive batches by the same leader.
    """

    def __init__(
        self,
        execute: Callable[[Sequence[PendingRequest]], None],
        window_seconds: float = 0.002,
        max_batch: int = 64,
    ):
        if window_seconds < 0:
            raise ValueError("window_seconds must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self._execute = execute
        self.window_seconds = float(window_seconds)
        self.max_batch = int(max_batch)
        self._lock = threading.Lock()
        self._queue: list[PendingRequest] = []
        self._leader_active = False

    def submit(self, *args) -> Any:
        """Queue one request and block until its batch has run.

        Returns the request's ``payload`` as set by the executor, or
        re-raises the executor's exception. The first arrival becomes
        the leader; a leader only drains batches until its *own* request
        is answered, then hands leadership to the queue head — so under
        sustained load no single client thread serves everyone else
        forever, and per-request latency stays bounded by the requests
        queued ahead of it.
        """
        request = PendingRequest(args)
        with self._lock:
            self._queue.append(request)
            is_leader = not self._leader_active
            if is_leader:
                self._leader_active = True
        if is_leader and self.window_seconds > 0:
            time.sleep(self.window_seconds)
        while True:
            if is_leader:
                self._lead(request)
            request.event.wait()
            if request.promoted and request.payload is None \
                    and request.error is None:
                # an exiting leader woke us to take over, not to return
                request.promoted = False
                request.event.clear()
                is_leader = True
                continue
            break
        if request.error is not None:
            raise request.error
        return request.payload

    def _lead(self, own: PendingRequest) -> None:
        """Run fused batches until ``own`` is answered, then hand off.

        Leadership transfer happens inside the queue lock: the exiting
        leader either clears the flag (empty queue) or promotes the
        queue head, so a request arriving at any point finds exactly one
        of — a live leader, a promoted successor, or the flag cleared.
        """
        while True:
            with self._lock:
                if not self._queue:
                    self._leader_active = False
                    return
                batch = self._queue[: self.max_batch]
                del self._queue[: self.max_batch]
            try:
                self._execute(batch)
            except BaseException as exc:  # propagate to every submitter
                for request in batch:
                    if request.payload is None and request.error is None:
                        request.error = exc
            finally:
                for request in batch:
                    request.event.set()
            if own.payload is not None or own.error is not None:
                with self._lock:
                    if self._queue:
                        head = self._queue[0]
                        head.promoted = True
                        head.event.set()
                    else:
                        self._leader_active = False
                return

    @property
    def pending(self) -> int:
        """Requests currently queued (diagnostics only)."""
        with self._lock:
            return len(self._queue)
