"""Joinable-column search — Algorithm 3 (paper §III-E).

The result types and the :class:`AblationFlags` switches (the paper's
Fig. 9 ablation: each lemma group can be disabled without affecting
exactness — only performance) live here. The pipeline itself — map the
query column into the pivot space, quick-browse aligned leaf cells,
run Algorithm 1 (blocking, :mod:`repro.core.blocker`) and verification (one GEMM over
the candidate rows, :mod:`repro.core.verifier`) —
is :class:`~repro.core.engine.BatchSearch`; :func:`pexeso_search` is a
batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.core.index import PexesoIndex
from repro.core.stats import SearchStats


@dataclass(frozen=True)
class AblationFlags:
    """Feature switches for the Fig. 9 ablation study.

    All default to on (full PEXESO). Disabling a lemma never changes the
    result set — only how much work is needed to compute it. Only the
    blocking lemmas remain switchable: verification is one exact GEMM
    without Lemmas 1/2, Lemma 7 or early accept (measured at ~1x).
    """

    lemma34: bool = True  #: vector-cell and cell-cell filtering in blocking
    lemma56: bool = True  #: vector-cell and cell-cell matching in blocking
    quick_browsing: bool = True

    @classmethod
    def none(cls) -> "AblationFlags":
        """Everything off — degenerates to a near-exhaustive scan."""
        return cls(False, False, False)


#: named ablation configurations matching Fig. 9's blocking-lemma series
ABLATIONS = {
    "ALL": AblationFlags(),
    "No-Lem3&4": AblationFlags(lemma34=False),
    "No-Lem5&6": AblationFlags(lemma56=False),
}


@dataclass
class JoinableColumn:
    """One search hit.

    ``match_count`` is the joinability numerator. PEXESO's counts are
    always exact (``exact_count`` is true); baselines that stop a column
    early report a lower bound and say so with ``exact_count=False``.
    """

    column_id: int
    match_count: int
    joinability: float
    exact_count: bool

    def __lt__(self, other: "JoinableColumn") -> bool:
        return self.column_id < other.column_id


@dataclass
class SearchResult:
    """Joinable columns plus the instrumentation of the run."""

    joinable: list[JoinableColumn]
    stats: SearchStats
    tau: float
    t_count: int
    query_size: int

    @property
    def column_ids(self) -> list[int]:
        return [hit.column_id for hit in self.joinable]

    def __len__(self) -> int:
        return len(self.joinable)


def pexeso_search(
    index: PexesoIndex,
    query_vectors: np.ndarray,
    tau: float,
    joinability: float | int,
    flags: Optional[AblationFlags] = None,
    stats: Optional[SearchStats] = None,
    allowed_columns: Optional[Iterable[int]] = None,
) -> SearchResult:
    """Find every indexed column joinable to the query column (Alg. 3).

    Args:
        index: a built :class:`~repro.core.index.PexesoIndex`.
        query_vectors: ``(|Q|, dim)`` query column embeddings (unit
            normalised, same embedder as the repository).
        tau: distance threshold in original-space units (use
            :func:`repro.core.thresholds.distance_threshold` to convert a
            ratio).
        joinability: T as a fraction of |Q| in ``(0, 1]`` or an absolute
            match count.
        flags: ablation switches; defaults to full PEXESO.
        stats: optional counter object to accumulate into (it becomes the
            result's ``stats``).
        allowed_columns: optional ANN candidate restriction (see
            :mod:`repro.core.ann`) — only these columns are verified and
            eligible as hits; their results are bit-identical to the
            unrestricted search.

    Returns:
        A :class:`SearchResult` with hits sorted by column ID.
    """
    # engine imports this module's result types, so the import is deferred
    from repro.core.engine import BatchSearch

    engine = BatchSearch(index, flags=flags)
    batch = engine.search_many(
        [query_vectors],
        [tau],
        [joinability],
        allowed_columns=(
            [np.fromiter(allowed_columns, dtype=np.int64)]
            if allowed_columns is not None
            else None
        ),
    )
    result = batch.results[0]
    if stats is not None:
        stats.merge(result.stats)
        result.stats = stats
    return result
