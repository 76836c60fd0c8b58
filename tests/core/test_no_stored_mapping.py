"""The index keeps no pivot-mapped copy of its vectors.

Only ``fit`` maps the whole lake into pivot space (to place rows in
grid cells). After it, every operation — search, batch search, top-k,
append, a compacting delete, save, load and a worker's shard-subset
load — maps at most the rows it was handed: the query columns or the
added column. A stored mapping, or one rebuilt on the side, would show
up here as a call mapping a whole index's rows. The same holds for
:class:`PexesoIndex` and :class:`PartitionedPexeso`, in memory and
spilled, and no attribute or saved epoch holds such a table.
"""

import numpy as np
import pytest

from repro.core.engine import batch_search
from repro.core.index import PexesoIndex
from repro.core.metric import normalize_rows
from repro.core.out_of_core import PartitionedPexeso
from repro.core.persistence import (
    load_index,
    load_partitioned,
    save_index,
    save_partitioned,
)
from repro.core.pivot import PivotSpace
from repro.core.topk import pexeso_topk

DIM = 6
N_PIVOTS = 3
TAU, JOINABILITY = 0.7, 0.25
N_QUERY, N_ADDED = 9, 11


def _column(rng, rows):
    return normalize_rows(rng.normal(size=(rows, DIM)))


@pytest.fixture()
def data():
    rng = np.random.default_rng(5)
    columns = [_column(rng, int(rng.integers(6, 14))) for _ in range(40)]
    queries = [_column(rng, N_QUERY) for _ in range(2)]
    return columns, queries, _column(rng, N_ADDED)


@pytest.fixture()
def mapped_rows(monkeypatch):
    """Row count of every ``PivotSpace.map_vectors`` call, in order."""
    calls = []
    original = PivotSpace.map_vectors

    def recording(self, vectors):
        mapped = original(self, vectors)
        calls.append(mapped.shape[0])
        return mapped

    monkeypatch.setattr(PivotSpace, "map_vectors", recording)
    return calls


def _maps_at_most(calls, limit, operation):
    """Run ``operation`` and assert none of its mapping calls exceeds
    ``limit`` rows; returns what the operation returned."""
    calls.clear()
    result = operation()
    assert max(calls, default=0) <= limit, (operation, calls)
    return result


def _pivot_tables(obj, n_rows, seen=None):
    """Every 2-D array of ``n_rows`` x |P| reachable from ``obj``."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj] if obj.shape == (n_rows, N_PIVOTS) else []
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif type(obj).__module__.startswith("repro."):
        children = list(vars(obj).values())
    else:
        return []
    return [t for child in children for t in _pivot_tables(child, n_rows, seen)]


def _assert_no_pivot_table(index):
    assert not _pivot_tables(index, index.n_vectors)


def _hits(result):
    return sorted((h.column_id, h.match_count) for h in result.joinable)


def _compacting_delete(calls, column_ids, delete, stored):
    """Delete ``column_ids`` in order until ``stored()`` rows shrink (a
    compaction); every delete maps nothing."""
    before = stored()
    for column_id in column_ids:
        _maps_at_most(calls, 0, lambda: delete(column_id))
        if stored() < before:
            return
    raise AssertionError("no delete compacted the stores")


@pytest.mark.parametrize("spilled", [False, True])
def test_single_index_maps_only_its_inputs(data, mapped_rows, spilled, tmp_path):
    columns, queries, added = data
    index = PexesoIndex.build(columns, n_pivots=N_PIVOTS, levels=3)
    assert index.n_vectors > 20 * N_ADDED
    if spilled:
        save_index(index, tmp_path / "idx")
        index = _maps_at_most(mapped_rows, 0, lambda: load_index(tmp_path / "idx"))
    _assert_no_pivot_table(index)

    _maps_at_most(mapped_rows, N_QUERY, lambda: index.search(queries[0], TAU, JOINABILITY))
    _maps_at_most(
        mapped_rows, 2 * N_QUERY,
        lambda: batch_search(index, queries, TAU, JOINABILITY, max_workers=1),
    )
    _maps_at_most(mapped_rows, N_QUERY, lambda: pexeso_topk(index, queries[0], TAU, 3))
    _maps_at_most(mapped_rows, N_ADDED, lambda: index.add_column(added))
    _compacting_delete(
        mapped_rows, sorted(index.column_rows), index.delete_column,
        lambda: index.n_vectors,
    )
    _assert_no_pivot_table(index)

    _maps_at_most(mapped_rows, 0, lambda: save_index(index, tmp_path / "again"))
    assert not list((tmp_path / "again").rglob("mapped.npy"))
    for mmap in (True, False):
        loaded = _maps_at_most(
            mapped_rows, 0, lambda: load_index(tmp_path / "again", mmap=mmap)
        )
        assert _hits(
            _maps_at_most(
                mapped_rows, N_QUERY, lambda: loaded.search(queries[0], TAU, JOINABILITY)
            )
        ) == _hits(index.search(queries[0], TAU, JOINABILITY))


@pytest.mark.parametrize("spilled", [False, True])
def test_partitioned_lake_maps_only_its_inputs(data, mapped_rows, spilled, tmp_path):
    columns, queries, added = data
    lake = PartitionedPexeso(
        n_pivots=N_PIVOTS,
        levels=3,
        n_partitions=3,
        spill_dir=tmp_path / "lake" if spilled else None,
        max_workers=1,
    ).fit(columns)
    if spilled:
        lake = _maps_at_most(mapped_rows, 0, lambda: load_partitioned(tmp_path / "lake"))

    _maps_at_most(mapped_rows, N_QUERY, lambda: lake.search(queries[0], TAU, JOINABILITY))
    _maps_at_most(mapped_rows, 2 * N_QUERY, lambda: lake.search_many(queries, TAU, JOINABILITY))
    _maps_at_most(mapped_rows, N_QUERY, lambda: lake.topk(queries[0], TAU, 3))
    gid = _maps_at_most(mapped_rows, N_ADDED, lambda: lake.add_column(added))
    part = lake.column_partition(gid)
    _compacting_delete(
        mapped_rows,
        [c for c in range(gid) if lake.column_partition(c) == part],
        lake.delete_column,
        lambda: lake._get_index(part)[0].n_vectors,  # reloads a spilled shard
    )
    for p, globals_ in enumerate(lake.partition_columns):
        if globals_:
            _assert_no_pivot_table(lake._get_index(p)[0])

    _maps_at_most(mapped_rows, 0, lambda: save_partitioned(lake, tmp_path / "saved"))
    assert not list((tmp_path / "saved").rglob("mapped.npy"))
    expected = _hits(lake.search(queries[1], TAU, JOINABILITY))
    for mmap in (True, False):
        loaded = _maps_at_most(
            mapped_rows, 0, lambda: load_partitioned(tmp_path / "saved", mmap=mmap)
        )
        assert _hits(
            _maps_at_most(
                mapped_rows, N_QUERY, lambda: loaded.search(queries[1], TAU, JOINABILITY)
            )
        ) == expected
    worker = _maps_at_most(
        mapped_rows, 0, lambda: load_partitioned(tmp_path / "saved", parts=[part])
    )
    _maps_at_most(mapped_rows, N_QUERY, lambda: worker.search(queries[1], TAU, JOINABILITY))
