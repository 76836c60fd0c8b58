"""Resilience primitives for the serving path: deadlines, hedging, breakers.

Everything here is correctness-free by construction: the engine is
exact and deterministic, so a hedged duplicate of a shard call can only
return the *same* answer faster, a deadline can only turn a late answer
into an explicit 504, and a circuit breaker only changes *which* live
replica answers. That is what makes tail-latency engineering cheap in
this repo — every mechanism below is oracle-checked by the chaos lane
of the differential oracle without any approximation budget.

* :class:`Deadline` — a per-request latency budget. The coordinator
  propagates the *remaining* budget (milliseconds) to workers in the
  ``X-Repro-Deadline-Ms`` header; a worker rejects already-expired work
  with a 504 before touching the index, and the coordinator checks the
  budget before every scatter round. Remaining time (not an absolute
  wall-clock instant) crosses the wire, so clock skew between processes
  cannot corrupt the budget.
* :class:`LatencyTracker` — a bounded window of recent call latencies.
  The coordinator keeps one window shared by all workers; its p95
  (:data:`HEDGE_QUANTILE`), clamped to [:data:`HEDGE_DELAY_MIN`,
  ``hedge_delay_max``], sets the hedge delay — the classic "defer the
  duplicate until the primary is slower than expected" rule.
* :class:`CircuitBreaker` — per-worker ``closed -> open -> half-open``
  with exponential probe backoff. The first failure opens it. It
  replaces one-way demotion: a worker that failed is probed again after
  a cooldown (replayed any missed mutations, then re-promoted), and a
  worker that keeps failing backs its probes off instead of being
  hammered.
* :class:`ResilienceConfig` — the knobs callers set, in one place.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import BoundedHistogram


class DeadlineExceeded(RuntimeError):
    """The request's latency budget ran out (HTTP 504 at the edge)."""

    #: read by the front door's exception -> status mapping
    http_status = 504


class Deadline:
    """A monotonic-clock latency budget for one request."""

    __slots__ = ("expires_at",)

    def __init__(self, budget_seconds: float):
        self.expires_at = time.monotonic() + float(budget_seconds)

    @classmethod
    def from_ms(cls, budget_ms: float) -> "Deadline":
        return cls(float(budget_ms) / 1000.0)

    def remaining(self) -> float:
        """Seconds left (negative when expired)."""
        return self.expires_at - time.monotonic()

    def remaining_ms(self) -> float:
        return self.remaining() * 1000.0

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is gone."""
        if self.expired():
            raise DeadlineExceeded(
                f"deadline exceeded before {what} "
                f"({-self.remaining_ms():.1f}ms over budget)"
            )


class LatencyTracker:
    """A bounded sliding window of call latencies with quantile reads.

    Thread-safe: a lock around an
    :class:`~repro.obs.metrics.BoundedHistogram`, which owns the window,
    the exact lifetime ``count`` / ``total`` and the nearest-rank
    quantile rule. ``default`` is returned until the first sample lands,
    so hedging has a sane delay during warmup.
    """

    def __init__(self, window: int = 512, default: float = 0.05):
        self._histogram = BoundedHistogram(maxlen=int(window))
        self._lock = threading.Lock()
        self.default = float(default)

    def record(self, seconds: float) -> None:
        with self._lock:
            self._histogram.add(float(seconds))

    def quantile(self, q: float = 0.95) -> float:
        """The nearest-rank q-quantile of the current window."""
        with self._lock:
            return self._histogram.quantile(q, default=self.default)

    @property
    def count(self) -> int:
        """Lifetime number of recorded calls."""
        return self._histogram.count

    @property
    def total(self) -> float:
        """Exact lifetime sum of recorded seconds (the ``_sum`` series of
        a metrics summary — the window alone under-reports it)."""
        return self._histogram.total


#: circuit-breaker states
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-worker failure gate with half-open probing and probe backoff.

    State machine (all transitions counted in :attr:`transitions`):

    * ``closed`` — healthy. The first :meth:`record_failure` opens it.
    * ``open`` — the worker is demoted. After the cooldown (doubling on
      every consecutive open, capped) :meth:`should_probe` grants
      exactly one probe and moves to ``half-open``.
    * ``half-open`` — one probe is out. Success closes the breaker
      (backoff reset); failure re-opens it with a longer cooldown. A
      probe that never reports back stops blocking after one cooldown
      (the grant times out and can be re-issued).

    Only the probe reports success: a call already in flight when the
    breaker opened (a hedge loser, say) must not close it, because the
    probe is what replays the writes the worker missed.

    ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        cooldown: float = 1.0,
        max_cooldown: float = 30.0,
        clock=time.monotonic,
    ):
        self.cooldown = float(cooldown)
        self.max_cooldown = float(max_cooldown)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_opens = 0
        self._state_since = self._clock()
        self.transitions = {"opened": 0, "half_open": 0, "closed": 0}

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def current_cooldown(self) -> float:
        with self._lock:
            return self._current_cooldown()

    def _current_cooldown(self) -> float:
        backoff = self.cooldown * (2 ** max(0, self._consecutive_opens - 1))
        return min(backoff, self.max_cooldown)

    def _open(self) -> None:
        self._state = BREAKER_OPEN
        self._consecutive_opens += 1
        self._state_since = self._clock()
        self.transitions["opened"] += 1

    def record_failure(self) -> None:
        """One failed call, probe or write: open the breaker (a failed
        half-open probe re-opens it with a doubled cooldown)."""
        with self._lock:
            if self._state != BREAKER_OPEN:
                self._open()

    def record_success(self) -> None:
        """One successful probe: close and reset the backoff."""
        with self._lock:
            if self._state != BREAKER_CLOSED:
                self.transitions["closed"] += 1
            self._state = BREAKER_CLOSED
            self._consecutive_opens = 0
            self._state_since = self._clock()

    def should_probe(self) -> bool:
        """Whether a half-open probe may be issued right now.

        Grants at most one probe per cooldown window (the grant itself
        transitions ``open -> half-open``); the prober must report back
        through :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return False
            elapsed = self._clock() - self._state_since
            if elapsed < self._current_cooldown():
                return False
            if self._state == BREAKER_OPEN:
                self.transitions["half_open"] += 1
            # half-open past its cooldown: the previous grant is
            # presumed lost; re-arm the window and grant again
            self._state = BREAKER_HALF_OPEN
            self._state_since = self._clock()
            return True


#: the latency quantile of the shared window that sets the hedge delay
#: (the classic "hedge after p95")
HEDGE_QUANTILE = 0.95
#: floor of the hedge delay, in seconds
HEDGE_DELAY_MIN = 0.01


@dataclass
class ResilienceConfig:
    """Knobs for the coordinator's resilience layer.

    Attributes:
        hedge: fan a slow shard call out to a live replica hosting the
            same partitions after the hedge delay; first exact answer
            wins. Needs ``replication >= 2`` to ever fire.
        hedge_delay_max: ceiling of the hedge delay, in seconds.
        hedge_default_delay: the window's quantile before its first
            sample, in seconds.
        breaker_cooldown / breaker_max_cooldown: half-open probe
            backoff window (doubles per consecutive open, capped).
        default_deadline_ms: budget applied to requests that do not
            carry one (``None`` = unlimited).
    """

    hedge: bool = True
    hedge_delay_max: float = 5.0
    hedge_default_delay: float = 0.05
    breaker_cooldown: float = 1.0
    breaker_max_cooldown: float = 30.0
    default_deadline_ms: Optional[float] = None
