"""Deleted rows are reclaimed: net-zero add/delete churn keeps the vector
stores within 9/8 of the live rows, and answers stay exact.

Every cycle adds a column and deletes the oldest live one. After each
cycle the stored rows of every index (resident, or the spilled shards'
saved epochs) stay at most 9/8 of its live rows plus one column — the
slack for the add that has not yet been balanced by its delete — and at
checkpoints the answers equal a fresh build over the live columns.
"""

import numpy as np
import pytest

from repro.core.index import COMPACT_DEAD_SHARE, PexesoIndex
from repro.core.metric import normalize_rows
from repro.core.out_of_core import PartitionedPexeso
from repro.core.persistence import load_index, save_index

CYCLES = 50
DIM = 6
TAU, JOINABILITY = 0.7, 0.25


def _column(rng):
    return normalize_rows(rng.normal(size=(int(rng.integers(6, 14)), DIM)))


def _hits(result, ids=None):
    """``(column id, match count)`` pairs, optionally mapping positions to ids."""
    return sorted(
        (ids[h.column_id] if ids is not None else h.column_id, h.match_count)
        for h in result.joinable
    )


def _fresh_hits(live, query):
    ordered = sorted(live)
    fresh = PexesoIndex.build([live[c] for c in ordered], n_pivots=3, levels=3)
    return _hits(fresh.search(query, TAU, JOINABILITY), ordered)


def _stored_and_live(index):
    live = sum(rows.size for rows in index.column_rows.values())
    return index.n_vectors, live


def _assert_bounded(index, widest):
    stored, live = _stored_and_live(index)
    assert stored <= (1 + COMPACT_DEAD_SHARE) * live + widest
    assert index.vectors.shape[0] == index.mapped.shape[0] == stored


def _churn(rng, live, add, delete, check):
    """Net-zero cycles: add one column, delete the oldest live one."""
    for cycle in range(CYCLES):
        column = _column(rng)
        live[add(column)] = column
        oldest = min(live)
        delete(oldest)
        del live[oldest]
        check(cycle)


@pytest.fixture()
def start():
    rng = np.random.default_rng(7)
    return rng, [_column(rng) for _ in range(16)]


@pytest.mark.parametrize("spilled", [False, True])
def test_single_index_churn(start, spilled, tmp_path):
    rng, columns = start
    index = PexesoIndex.build(columns, n_pivots=3, levels=3)
    live = dict(enumerate(columns))
    widest = max(c.shape[0] for c in columns) + 14
    holder = {"index": index}

    def add(column):
        return holder["index"].add_column(column)

    def delete(column_id):
        holder["index"].delete_column(column_id)
        if spilled:  # every write spills: save, then serve the mmapped copy
            save_index(holder["index"], tmp_path / "index")
            holder["index"] = load_index(tmp_path / "index")

    def check(cycle):
        _assert_bounded(holder["index"], widest)
        if cycle % 10 == 9:
            query = live[max(live)][:5]
            got = _hits(holder["index"].search(query, TAU, JOINABILITY))
            assert got == _fresh_hits(live, query)

    _churn(rng, live, add, delete, check)
    final = holder["index"]
    assert final.n_vectors < sum(c.shape[0] for c in columns) + CYCLES * 6
    # a save after compaction persists live rows only and round-trips
    save_index(final, tmp_path / "after")
    loaded = load_index(tmp_path / "after")
    assert loaded.n_vectors == _stored_and_live(final)[1]
    query = live[min(live)][:4]
    assert _hits(loaded.search(query, TAU, JOINABILITY)) == _hits(
        final.search(query, TAU, JOINABILITY)
    ) == _fresh_hits(live, query)


@pytest.mark.parametrize("spilled", [False, True])
def test_partitioned_churn(start, spilled, tmp_path):
    rng, columns = start
    lake = PartitionedPexeso(
        n_pivots=3, levels=3, n_partitions=3,
        spill_dir=tmp_path / "lake" if spilled else None,
    ).fit(columns)
    live = dict(enumerate(columns))
    widest = max(c.shape[0] for c in columns) + 14

    def check(cycle):
        for part in range(lake.n_partitions):
            if part in lake._spilled:
                # the saved epoch holds live rows only
                entry = lake._spilled[part]
                assert entry["n_vectors"] == sum(
                    rows.size for rows in lake._get_index(part)[0].column_rows.values()
                )
            if part in lake._resident or part in lake._spilled:
                _assert_bounded(lake._get_index(part)[0], widest)
        if cycle % 10 == 9:
            query = live[max(live)][:5]
            assert _hits(lake.search(query, TAU, JOINABILITY)) == _fresh_hits(
                live, query
            )

    _churn(rng, live, lake.add_column, lake.delete_column, check)
