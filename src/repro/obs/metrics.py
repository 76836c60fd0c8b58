"""Typed metrics registry with conformant Prometheus text exposition.

One registry replaces the three ad-hoc ``metrics_text`` string builders
(serve server, cluster server, coordinator). Design points:

* **Stateless render** — the servers build a fresh
  :class:`MetricsRegistry` per scrape from their live snapshots, so the
  registry never duplicates state the service already tracks. Metric
  *values* keep their Python type: ints render bare (``cluster_workers_up
  2``), floats render with their repr (``admission_capacity 1.0``) —
  both are valid Prometheus floats and existing dashboards/tests parse
  them literally.
* **Conformance** — every family gets ``# HELP`` / ``# TYPE`` lines and
  label values are escaped (``\\``, ``"``, newline), fixing the raw
  ``slot="..."`` interpolation the old f-strings did.
* **Summaries** — quantile series (``{quantile="0.95"}``) plus
  ``_sum`` / ``_count``, fed from nearest-rank quantile sources
  (:class:`BoundedHistogram` here,
  :class:`~repro.cluster.resilience.LatencyTracker` in the cluster).

:class:`BoundedHistogram` is the storage half: a bounded window of
recent samples with *exact* lifetime count/sum, nearest-rank quantiles
(``LatencyTracker`` stores one and delegates), and enough list compatibility
(``iter``/``len``/``==``/``append``/``+``) that it drops into
``SearchStats`` field-wise merge unchanged.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Iterable, Mapping, Optional, Sequence, Union

Number = Union[int, float]

#: quantiles exported for every summary unless the caller overrides them
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


def escape_label_value(value: object) -> str:
    """Escape a label value per the Prometheus text format.

    Backslash, double-quote and line-feed must be escaped inside the
    quoted label value; everything else passes through.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """``# HELP`` lines escape backslash and line-feed only."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: Optional[Mapping[str, object]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{escape_label_value(value)}"' for name, value in labels.items()
    )
    return "{" + inner + "}"


def _format_quantile(q: float) -> str:
    # 0.5 -> "0.5", 0.99 -> "0.99": repr of the float, trimmed like str()
    return str(float(q))


class BoundedHistogram:
    """A bounded window of numeric samples with exact lifetime totals.

    Unlike a plain list (which the serving stats used to grow one entry
    per fused dispatch, forever), the retained window is capped at
    ``maxlen`` samples while ``count`` / ``total`` / ``max_value`` stay
    exact over the full lifetime. Quantiles are nearest-rank over the
    retained window; :class:`~repro.cluster.resilience.LatencyTracker`
    is a lock around one of these.

    List compatibility (iteration, ``len``, equality against a list,
    ``append`` and ``+``-merge) keeps the
    ``SearchStats.coalesced_batch_sizes`` call sites working: ``merge``
    still sums field-wise via ``+``, ``sum(...)`` / ``max(...)`` still
    read the retained samples.
    """

    __slots__ = ("maxlen", "count", "total", "max_value", "_samples")

    def __init__(
        self,
        samples: Optional[Iterable[Number]] = None,
        maxlen: int = 4096,
    ):
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.maxlen = int(maxlen)
        self.count = 0
        self.total: float = 0.0
        self.max_value: float = 0.0
        self._samples: deque = deque(maxlen=self.maxlen)
        if samples is not None:
            self.extend(samples)

    # -- recording -----------------------------------------------------------------

    def add(self, value: Number) -> None:
        self._samples.append(value)
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    #: list-compatible alias — existing call sites ``.append()`` samples
    append = add

    def extend(self, values: Iterable[Number]) -> None:
        for value in values:
            self.add(value)

    def set_maxlen(self, maxlen: int) -> None:
        """Shrink/grow the retained window (lifetime totals unaffected)."""
        maxlen = int(maxlen)
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        if maxlen != self.maxlen:
            self.maxlen = maxlen
            self._samples = deque(self._samples, maxlen=maxlen)

    # -- reading -------------------------------------------------------------------

    @property
    def samples(self) -> list:
        """The retained (most recent) samples, oldest first."""
        return list(self._samples)

    def quantile(self, q: float, default: float = 0.0) -> float:
        """Nearest-rank q-quantile of the retained window.

        The ``ceil(q * n)``-th smallest sample (1-based), clamped to the
        window; ``int(q * n)`` would be off by one whenever ``q * n``
        lands on an integer — p95 of 20 samples is the 19th smallest,
        not the max. The one quantile rule behind every exported
        percentile (``LatencyTracker`` delegates here).
        """
        if not self._samples:
            return default
        ranked = sorted(self._samples)
        rank = min(len(ranked) - 1, max(0, math.ceil(q * len(ranked)) - 1))
        return ranked[rank]

    def mean(self) -> float:
        """Lifetime mean (exact — uses the unbounded totals)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """JSON-safe snapshot (window stats + exact lifetime totals)."""
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max_value,
            "retained": len(self._samples),
        }

    # -- container / merge protocol ------------------------------------------------

    def __iter__(self):
        return iter(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def __bool__(self) -> bool:
        return len(self._samples) > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BoundedHistogram):
            return (
                self.count == other.count
                and self.total == other.total
                and list(self._samples) == list(other._samples)
            )
        if isinstance(other, (list, tuple)):
            return list(self._samples) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"BoundedHistogram(count={self.count}, total={self.total}, "
            f"retained={len(self._samples)}, maxlen={self.maxlen})"
        )

    def __add__(self, other) -> "BoundedHistogram":
        """Merged copy: exact totals add, windows concatenate (bounded).

        Accepts another histogram or a plain list of samples, so the
        generic ``SearchStats.merge`` (field-wise ``+``) keeps working.
        """
        if isinstance(other, BoundedHistogram):
            merged = BoundedHistogram(maxlen=max(self.maxlen, other.maxlen))
            merged._samples.extend(self._samples)
            merged._samples.extend(other._samples)
            merged.count = self.count + other.count
            merged.total = self.total + other.total
            merged.max_value = max(self.max_value, other.max_value)
            return merged
        if isinstance(other, (list, tuple)):
            return self + BoundedHistogram(other, maxlen=self.maxlen)
        return NotImplemented

    def __radd__(self, other) -> "BoundedHistogram":
        if isinstance(other, (list, tuple)):
            return BoundedHistogram(other, maxlen=self.maxlen) + self
        return NotImplemented


class _Family:
    """One metric family: name, type, help and its samples."""

    __slots__ = ("name", "kind", "help", "_samples")

    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help = help_text
        # list of (suffix, labels, value) preserving insertion order
        self._samples: list[tuple[str, Optional[dict], Number]] = []

    def sample(
        self,
        value: Number,
        labels: Optional[Mapping[str, object]] = None,
        suffix: str = "",
    ) -> None:
        self._samples.append((suffix, dict(labels) if labels else None, value))

    def render(self, out: list) -> None:
        out.append(f"# HELP {self.name} {_escape_help(self.help)}")
        out.append(f"# TYPE {self.name} {self.kind}")
        for suffix, labels, value in self._samples:
            out.append(f"{self.name}{suffix}{_format_labels(labels)} {value}")


class MetricsRegistry:
    """A thread-safe, ordered collection of metric families.

    Typical scrape-time use::

        reg = MetricsRegistry(prefix="pexeso_serve_")
        reg.counter("cache_hits", "Result-cache hits.", stats.cache_hits)
        reg.gauge("generation", "Index generation.", service.generation)
        reg.summary("stage_seconds", "Stage wall time.",
                    source=hist, labels={"stage": "verify"})
        text = reg.render()

    ``prefix`` is prepended to every family name. Counters and gauges
    may be called repeatedly with different ``labels`` — samples join
    the same family (one ``# TYPE`` header).
    """

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _family(self, name: str, kind: str, help_text: str) -> _Family:
        full = self.prefix + name
        with self._lock:
            family = self._families.get(full)
            if family is None:
                family = _Family(full, kind, help_text or full)
                self._families[full] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {full} already registered as {family.kind}, "
                    f"not {kind}"
                )
            return family

    def counter(
        self,
        name: str,
        help_text: str,
        value: Number,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        """A monotonically increasing total (current value given)."""
        self._family(name, "counter", help_text).sample(value, labels)

    def gauge(
        self,
        name: str,
        help_text: str,
        value: Number,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        """A point-in-time value."""
        self._family(name, "gauge", help_text).sample(value, labels)

    def summary(
        self,
        name: str,
        help_text: str,
        quantile_values: Optional[Mapping[float, float]] = None,
        count: int = 0,
        total: float = 0.0,
        labels: Optional[Mapping[str, object]] = None,
        source=None,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> None:
        """Quantile series plus ``_sum`` / ``_count``.

        Either pass explicit ``quantile_values`` / ``count`` / ``total``
        or a ``source`` exposing ``quantile(q)``, ``count`` and ``total``
        (:class:`BoundedHistogram`,
        :class:`~repro.cluster.resilience.LatencyTracker`).
        """
        if source is not None:
            quantile_values = {q: source.quantile(q) for q in quantiles}
            count = source.count
            total = getattr(source, "total", 0.0)
        family = self._family(name, "summary", help_text)
        for q, value in (quantile_values or {}).items():
            q_labels = dict(labels) if labels else {}
            q_labels["quantile"] = _format_quantile(q)
            family.sample(value, q_labels)
        family.sample(float(total), labels, suffix="_sum")
        family.sample(int(count), labels, suffix="_count")

    def render(self) -> str:
        """The Prometheus text exposition (trailing newline included)."""
        out: list = []
        with self._lock:
            for family in self._families.values():
                family.render(out)
        return "\n".join(out) + "\n"
