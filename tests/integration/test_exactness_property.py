"""Property-based exactness: PEXESO == naive oracle on random instances.

This is the single most important invariant in the repository: the paper's
algorithm is exact, so for *any* data, query, thresholds, pivot count and
grid depth, the result set must equal the exhaustive scan's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact_naive import naive_search
from repro.baselines.pexeso_h import pexeso_h_search
from repro.core.index import PexesoIndex
from repro.core.metric import ManhattanMetric, normalize_rows
from repro.core.search import AblationFlags, pexeso_search


@st.composite
def instances(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n_columns = draw(st.integers(2, 12))
    dim = draw(st.integers(2, 10))
    n_query = draw(st.integers(1, 10))
    tau = draw(st.floats(0.01, 2.0))
    joinability = draw(st.floats(0.05, 1.0))
    n_pivots = draw(st.integers(1, min(6, dim)))
    levels = draw(st.integers(1, 5))
    rng = np.random.default_rng(seed)
    columns = [
        normalize_rows(rng.normal(size=(int(rng.integers(1, 15)), dim)))
        for _ in range(n_columns)
    ]
    query = normalize_rows(rng.normal(size=(n_query, dim)))
    return columns, query, tau, joinability, n_pivots, levels


@settings(max_examples=40, deadline=None)
@given(instance=instances())
def test_pexeso_equals_naive(instance):
    columns, query, tau, joinability, n_pivots, levels = instance
    index = PexesoIndex.build(columns, n_pivots=n_pivots, levels=levels)
    got = pexeso_search(index, query, tau, joinability).column_ids
    want = naive_search(columns, query, tau, joinability).column_ids
    assert got == want


@settings(max_examples=20, deadline=None)
@given(instance=instances(), flag_bits=st.integers(0, 7))
def test_any_ablation_combination_is_exact(instance, flag_bits):
    columns, query, tau, joinability, n_pivots, levels = instance
    flags = AblationFlags(
        lemma34=bool(flag_bits & 1),
        lemma56=bool(flag_bits & 2),
        quick_browsing=bool(flag_bits & 4),
    )
    index = PexesoIndex.build(columns, n_pivots=n_pivots, levels=levels)
    got = pexeso_search(index, query, tau, joinability, flags=flags).column_ids
    want = naive_search(columns, query, tau, joinability).column_ids
    assert got == want


@settings(max_examples=20, deadline=None)
@given(instance=instances())
def test_pexeso_h_equals_naive(instance):
    columns, query, tau, joinability, n_pivots, levels = instance
    index = PexesoIndex.build(columns, n_pivots=n_pivots, levels=levels)
    got = pexeso_h_search(index, query, tau, joinability).column_ids
    want = naive_search(columns, query, tau, joinability).column_ids
    assert got == want


@settings(max_examples=15, deadline=None)
@given(instance=instances())
def test_exact_counts_equal_naive_counts(instance):
    columns, query, tau, joinability, n_pivots, levels = instance
    index = PexesoIndex.build(columns, n_pivots=n_pivots, levels=levels)
    got = pexeso_search(index, query, tau, joinability)
    want = naive_search(columns, query, tau, joinability)
    assert {h.column_id: h.match_count for h in got.joinable} == {
        h.column_id: h.match_count for h in want.joinable
    }


@settings(max_examples=15, deadline=None)
@given(instance=instances())
def test_manhattan_metric_is_exact_too(instance):
    """Pivot filtering must be sound for any true metric, not just L2."""
    columns, query, tau, joinability, n_pivots, levels = instance
    metric = ManhattanMetric()
    index = PexesoIndex.build(
        columns, metric=metric, n_pivots=n_pivots, levels=levels
    )
    got = pexeso_search(index, query, tau, joinability).column_ids
    want = naive_search(columns, query, tau, joinability, metric=metric).column_ids
    assert got == want


@settings(max_examples=15, deadline=None)
@given(instance=instances(), n_append=st.integers(1, 4))
def test_exactness_survives_append_delete(instance, n_append):
    columns, query, tau, joinability, n_pivots, levels = instance
    split = max(1, len(columns) - n_append)
    index = PexesoIndex.build(columns[:split], n_pivots=n_pivots, levels=levels)
    for col in columns[split:]:
        index.add_column(col)
    index.delete_column(0)
    got = pexeso_search(index, query, tau, joinability).column_ids
    want = [
        cid
        for cid in naive_search(columns, query, tau, joinability).column_ids
        if cid != 0
    ]
    assert got == want
