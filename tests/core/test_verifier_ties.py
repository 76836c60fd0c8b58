"""Ties: lake vectors exactly at τ, one ulp inside and one ulp outside.

Query and tie vectors have dyadic coordinates with few significant bits,
so every distance below — the Gram form of the verifier's GEMM, the
exhaustive scan's ``pairwise`` and ``distances_to`` alike — is computed
without rounding: the tie distance ``D`` is exact, and ``τ`` is set to
``D``, to the next float above ``D`` (the vector sits one ulp inside τ)
and to the next float below it (one ulp outside). Background columns of
random unit vectors give the pivots and the grid a realistic lake.
"""

import numpy as np
import pytest

from repro.baselines.exact_naive import naive_search
from repro.core.index import PexesoIndex
from repro.core.metric import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    normalize_rows,
)
from repro.core.search import pexeso_search

DIM = 8
#: offset of each tie vector from its query row: (3/8, 1/2) on two axes
OFFSET = (0.375, 0.5)
#: the exact tie distance per metric
TIE_DISTANCE = {
    EuclideanMetric: 0.625,  # sqrt(9/64 + 16/64)
    ManhattanMetric: 0.875,
    ChebyshevMetric: 0.5,
}


def _lake():
    """Four dyadic query rows; each has one tie column (the tie vector
    plus a far vector), among random background columns."""
    queries = np.zeros((4, DIM))
    columns = []
    for k in range(4):
        queries[k, k] = 0.5
        queries[k, k + 1] = 0.25
        tie = queries[k].copy()
        tie[(k + 4) % DIM] += OFFSET[0]
        tie[(k + 5) % DIM] += OFFSET[1]
        far = -queries[k]
        far[(k + 2) % DIM] = 2.0
        columns.append(np.vstack([tie, far]))
    rng = np.random.default_rng(41)
    columns += [
        normalize_rows(rng.normal(size=(int(rng.integers(3, 12)), DIM)))
        for _ in range(24)
    ]
    return columns, queries


@pytest.mark.parametrize("metric_cls", sorted(TIE_DISTANCE, key=lambda c: c.name))
@pytest.mark.parametrize("side", ["at", "one_ulp_inside", "one_ulp_outside"])
def test_ties_equal_naive(metric_cls, side):
    columns, queries = _lake()
    distance = TIE_DISTANCE[metric_cls]
    # sanity: the tie distance really is exact for this metric
    got = metric_cls().pairwise(queries[:1], columns[0][:1])[0, 0]
    assert got == distance
    tau = {
        "at": distance,
        "one_ulp_inside": np.nextafter(distance, np.inf),
        "one_ulp_outside": np.nextafter(distance, -np.inf),
    }[side]
    index = PexesoIndex.build(columns, metric=metric_cls(), n_pivots=3, levels=3)

    result = pexeso_search(index, queries, tau, 1)
    want = naive_search(columns, queries, tau, 1, metric=metric_cls())
    assert [(h.column_id, h.match_count) for h in result.joinable] == [
        (h.column_id, h.match_count) for h in want.joinable
    ]
    tie_hits = set(result.column_ids) & {0, 1, 2, 3}
    assert tie_hits == (set() if side == "one_ulp_outside" else {0, 1, 2, 3})
    if metric_cls is EuclideanMetric:
        # the Gram form's d² sits on τ², inside the rounding band
        assert result.stats.exact_rechecks > 0
    else:
        assert result.stats.exact_rechecks == 0
