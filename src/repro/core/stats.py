"""Instrumentation counters for index construction and search.

The paper's Figure 6a and Figure 9 report the *number of distance
computations* and the effect of removing individual lemmata. Rather than
inferring those quantities from wall-clock noise, every search records them
in a :class:`SearchStats` instance that the benchmarks read directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import BoundedHistogram


class StageTimings(dict):
    """Per-stage wall-time breakdown of one search (``stage -> seconds``).

    A plain ``dict[str, float]`` (JSON-safe as-is for the ``timings``
    field of ``/search`` responses) that additionally supports ``+`` so
    the generic field-wise :meth:`SearchStats.merge` accumulates it:
    merging sums per stage.

    Canonical stage names, chosen disjoint so a sequential request's
    stages sum to at most its wall time: ``pivot_map`` (query pivot
    mapping + HG_Q build), ``blocking`` (grid descent), ``verify``
    (verification), ``merge`` (cross-shard /
    cross-worker result merge), ``shard_load`` (spilled-partition
    loads), ``queue_wait`` (micro-batcher latency before dispatch),
    ``scatter`` (coordinator-side worker fan-out). Parallel fan-outs
    (shards, τ-groups, workers) accumulate CPU-style — like
    ``verification_seconds`` always has — so only sequential layers
    compare stage sums against wall clocks.
    """

    def add(self, stage: str, seconds: float) -> None:
        self[stage] = self.get(stage, 0.0) + float(seconds)

    def total(self) -> float:
        return float(sum(self.values()))

    def copy(self) -> "StageTimings":
        return StageTimings(self)

    def __add__(self, other) -> "StageTimings":
        if not isinstance(other, dict):
            return NotImplemented
        merged = StageTimings(self)
        for stage, seconds in other.items():
            merged.add(stage, seconds)
        return merged

    def __radd__(self, other) -> "StageTimings":
        if not isinstance(other, dict):
            return NotImplemented
        return StageTimings(other) + self


@dataclass
class SearchStats:
    """Counters collected during one joinable-column search.

    Attributes:
        distance_computations: (query vector, lake vector) pairs decided
            during verification — one GEMM (or ``pairwise``) entry each
            (the quantity plotted in Fig. 6a).
        exact_rechecks: Euclidean pairs whose Gram-form distance fell in
            the rounding band around τ and were re-decided through
            ``Metric.distances_to``.
        pivot_mapping_distances: distances computed to map the query column
            into the pivot space (|Q| x |P|); reported separately because the
            paper's cost analysis only counts verification distances.
        candidate_pairs: number of (query vector, leaf cell) candidate pairs
            produced by blocking.
        matching_pairs: number of (query vector, leaf cell) pairs proven to
            match by Lemma 5/6 during blocking.
        lemma1_filtered / lemma2_matched / lemma7_skips / early_accepts:
            always 0. Verification no longer runs Lemmas 1/2, Lemma 7 or
            early accept; the perf ledger still reads the fields until its
            next re-baseline.
        lemma3_filtered: (query vector, leaf cell) pairs pruned by
            vector-cell filtering (Lemma 3).
        lemma4_filtered: cell-cell pairs pruned during the grid descent
            (Lemma 4).
        lemma5_matched: (query vector, leaf cell) pairs matched by
            vector-cell matching (Lemma 5).
        lemma6_matched: cell-cell pairs matched during the grid descent
            (Lemma 6).
        cells_visited: grid cell pairs examined by Algorithm 1.
        quick_browse_cells: leaf cells handled by quick browsing.
        columns_verified: distinct (query, column) pairs whose candidate
            rows verification scanned.
        blocking_seconds: wall-clock time spent in Algorithm 1.
        verification_seconds: wall-clock time spent in verification.
        shard_load_seconds: wall-clock time spent loading spilled
            partitions from disk (the paper's protocol includes this in
            the reported out-of-core search time).
        cache_hits: requests answered from the serving layer's
            generation-stamped result cache.
        cache_misses: requests that had to run a real search (a stale
            cache entry from an earlier index generation also counts as
            a miss).
        coalesced_batch_sizes: a
            :class:`~repro.obs.metrics.BoundedHistogram` recording one
            sample per fused engine dispatch — the number of requests
            the serving layer's micro-batcher merged into that
            :meth:`~repro.core.engine.BatchSearch.search_many` call.
            The retained sample window is bounded (a resident server
            used to grow a plain list forever) while lifetime
            count/total stay exact; merging two stats objects merges
            the histograms. A plain list still coerces on construction.
        stage_seconds: per-stage wall-time breakdown (see
            :class:`StageTimings`); merging sums per stage.
    """

    distance_computations: int = 0
    exact_rechecks: int = 0
    pivot_mapping_distances: int = 0
    candidate_pairs: int = 0
    matching_pairs: int = 0
    lemma1_filtered: int = 0
    lemma2_matched: int = 0
    lemma3_filtered: int = 0
    lemma4_filtered: int = 0
    lemma5_matched: int = 0
    lemma6_matched: int = 0
    lemma7_skips: int = 0
    early_accepts: int = 0
    cells_visited: int = 0
    quick_browse_cells: int = 0
    columns_verified: int = 0
    blocking_seconds: float = 0.0
    verification_seconds: float = 0.0
    shard_load_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    coalesced_batch_sizes: BoundedHistogram = field(
        default_factory=BoundedHistogram
    )
    stage_seconds: StageTimings = field(default_factory=StageTimings)

    def __post_init__(self) -> None:
        # accept plain containers at the call sites that construct stats
        # with literals (tests, callers predating the histogram swap)
        if not isinstance(self.coalesced_batch_sizes, BoundedHistogram):
            self.coalesced_batch_sizes = BoundedHistogram(
                self.coalesced_batch_sizes
            )
        if not isinstance(self.stage_seconds, StageTimings):
            self.stage_seconds = StageTimings(self.stage_seconds)

    def merge(self, other: "SearchStats") -> None:
        """Accumulate counters from ``other`` (used by partitioned search).

        Numeric fields add; ``coalesced_batch_sizes`` merges histograms;
        ``stage_seconds`` sums per stage.
        """
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def coalesced_requests(self) -> int:
        """Total requests answered through fused micro-batches (exact
        lifetime total, unaffected by the bounded sample window)."""
        return int(self.coalesced_batch_sizes.total)

    @property
    def total_seconds(self) -> float:
        """Combined blocking + verification + shard-loading time."""
        return self.blocking_seconds + self.verification_seconds + self.shard_load_seconds


@dataclass
class IndexStats:
    """Counters collected while building a :class:`~repro.core.index.PexesoIndex`."""

    pivot_selection_seconds: float = 0.0
    pivot_mapping_seconds: float = 0.0
    grid_build_seconds: float = 0.0
    inverted_index_seconds: float = 0.0
    n_vectors: int = 0
    n_columns: int = 0
    n_leaf_cells: int = 0
    n_postings: int = 0

    @property
    def total_seconds(self) -> float:
        """Total index construction time."""
        return (
            self.pivot_selection_seconds
            + self.pivot_mapping_seconds
            + self.grid_build_seconds
            + self.inverted_index_seconds
        )


@dataclass
class CounterBox:
    """A mutable integer shared between a metric and its instrumentation."""

    count: int = 0

    def add(self, n: int) -> None:
        self.count += int(n)

    def reset(self) -> None:
        self.count = 0
