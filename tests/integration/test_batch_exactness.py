"""Randomised exactness property: BatchSearch == exhaustive naive scan.

The batch engine inherits PEXESO's exactness guarantee: on *any* data the
joinable sets must equal the naive oracle's (``baselines/exact_naive``),
for every query of the batch. These tests exercise seeded synthetic data
lakes from :mod:`repro.lake.datagen` — realistic surface-form noise,
confusable siblings, clustered embeddings — plus raw random instances,
with randomised index shapes, thresholds and batch compositions.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact_naive import naive_search
from repro.core import verifier
from repro.core.engine import BatchSearch
from repro.core.index import PexesoIndex
from repro.core.metric import normalize_rows
from repro.core.thresholds import distance_threshold
from repro.lake.datagen import DataLakeGenerator


def assert_oracle_rule(got, want):
    """The perf ledger's ``wrong_hits`` rule: column IDs equal the
    exhaustive scan's; a match count equals the scan's when marked exact
    and otherwise lies between T and the scan's count."""
    assert got.column_ids == want.column_ids
    truth = {h.column_id: h.match_count for h in want.joinable}
    for hit in got.joinable:
        if hit.exact_count:
            assert hit.match_count == truth[hit.column_id]
        else:
            assert want.t_count <= hit.match_count <= truth[hit.column_id]


def _lake_setup(seed: int):
    """A generated lake, its index and a mixed batch of query columns."""
    rng = np.random.default_rng(seed)
    gen = DataLakeGenerator(
        seed=seed, dim=int(rng.integers(8, 24)), n_entities=int(rng.integers(30, 70))
    )
    lake = gen.generate_lake(
        n_tables=int(rng.integers(8, 18)), rows_range=(5, 16)
    )
    vector_columns = lake.vector_columns()
    index = PexesoIndex.build(
        vector_columns,
        n_pivots=int(rng.integers(2, 5)),
        levels=int(rng.integers(2, 4)),
    )
    queries = []
    for i in range(int(rng.integers(3, 7))):
        table, _ = gen.generate_query_table(
            n_rows=int(rng.integers(4, 15)), domain=i % 3, name=f"q{i}"
        )
        queries.append(gen.embedder.embed_column(table.column("key").values))
    tau = distance_threshold(float(rng.uniform(0.03, 0.15)), index.metric, gen.dim)
    joinability = float(rng.uniform(0.1, 0.8))
    return vector_columns, index, queries, tau, joinability


@pytest.mark.parametrize("seed", range(8))
def test_batch_equals_naive_on_generated_lakes(seed):
    vector_columns, index, queries, tau, joinability = _lake_setup(seed)
    batch = BatchSearch(index).search_many(queries, tau, joinability)
    for query, got in zip(queries, batch.results):
        want = naive_search(vector_columns, query, tau, joinability)
        assert_oracle_rule(got, want)


@pytest.mark.parametrize("seed", range(4))
def test_batch_exact_counts_equal_naive_counts(seed):
    vector_columns, index, queries, tau, joinability = _lake_setup(seed + 100)
    batch = BatchSearch(index).search_many(queries, tau, joinability)
    for query, got in zip(queries, batch.results):
        want = naive_search(vector_columns, query, tau, joinability)
        assert {h.column_id: h.match_count for h in got.joinable} == {
            h.column_id: h.match_count for h in want.joinable
        }


@pytest.mark.parametrize("seed", range(4))
def test_batch_with_per_query_thresholds_equals_naive(seed):
    vector_columns, index, queries, tau, _ = _lake_setup(seed + 200)
    rng = np.random.default_rng(seed)
    taus = [
        distance_threshold(float(rng.uniform(0.03, 0.2)), index.metric, index.dim)
        for _ in queries
    ]
    joins = [float(rng.uniform(0.1, 0.9)) for _ in queries]
    batch = BatchSearch(index, max_workers=4).search_many(queries, taus, joins)
    for query, t, j, got in zip(queries, taus, joins, batch.results):
        want = naive_search(vector_columns, query, t, j)
        assert_oracle_rule(got, want)


@st.composite
def raw_instances(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n_columns = draw(st.integers(2, 10))
    dim = draw(st.integers(2, 8))
    n_queries = draw(st.integers(1, 5))
    tau = draw(st.floats(0.01, 1.8))
    joinability = draw(st.floats(0.05, 1.0))
    n_pivots = draw(st.integers(1, min(5, dim)))
    levels = draw(st.integers(1, 4))
    chunk_elements = draw(st.integers(1, 40))
    rng = np.random.default_rng(seed)
    columns = [
        normalize_rows(rng.normal(size=(int(rng.integers(1, 12)), dim)))
        for _ in range(n_columns)
    ]
    queries = [
        normalize_rows(rng.normal(size=(int(rng.integers(1, 9)), dim)))
        for _ in range(n_queries)
    ]
    return columns, queries, tau, joinability, n_pivots, levels, chunk_elements


@settings(max_examples=25, deadline=None)
@given(instance=raw_instances())
def test_batch_equals_naive_on_random_instances(instance):
    columns, queries, tau, joinability, n_pivots, levels, chunk_elements = instance
    index = PexesoIndex.build(columns, n_pivots=n_pivots, levels=levels)
    # tiny verifier chunks split columns' candidate rows across chunks
    with mock.patch.object(verifier, "CHUNK_ELEMENTS", chunk_elements):
        batch = BatchSearch(index).search_many(queries, tau, joinability)
    for query, got in zip(queries, batch.results):
        want = naive_search(columns, query, tau, joinability)
        assert_oracle_rule(got, want)
