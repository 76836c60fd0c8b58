"""The vector store is one allocation, written in place.

``fit`` allocates room for 9/8 of the lake's rows; an add writes into
that headroom and a compaction slides live columns down inside it, so
net-zero add/delete churn never moves the store, and an add plus a
search allocate a bounded amount whatever the lake size. A read-only
store (a mmapped epoch) is copied on its first write and never written
through. Every check is deterministic: no timing.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core import verifier
from repro.core.index import PexesoIndex
from repro.core.metric import normalize_rows
from repro.core.persistence import load_index, save_index

DIM = 8
ROWS = 10  #: every column's rows: a net-zero cycle keeps the live rows fixed
CYCLES = 50
TAU, JOINABILITY = 0.7, 0.25


def _column(rng, rows=ROWS, dim=DIM):
    return normalize_rows(rng.normal(size=(rows, dim)))


def _hits(result, ids=None):
    return sorted(
        (ids[h.column_id] if ids is not None else h.column_id, h.match_count)
        for h in result.joinable
    )


def _fresh_hits(live, query):
    ordered = sorted(live)
    fresh = PexesoIndex.build([live[c] for c in ordered], n_pivots=3, levels=3)
    return _hits(fresh.search(query, TAU, JOINABILITY), ordered)


def _address(index):
    return index.vectors.__array_interface__["data"][0]


def _churn(index, live, rng, check):
    """Net-zero cycles: add one column, delete the oldest live one."""
    for cycle in range(CYCLES):
        column = _column(rng)
        live[index.add_column(column)] = column
        oldest = min(live)
        index.delete_column(oldest)
        del live[oldest]
        check(cycle)


@pytest.fixture()
def start():
    rng = np.random.default_rng(11)
    return rng, [_column(rng) for _ in range(16)]


def test_churn_never_reallocates(start):
    rng, columns = start
    index = PexesoIndex.build(columns, n_pivots=3, levels=3)
    live = dict(enumerate(columns))
    address = _address(index)
    stored = [index.n_vectors]

    def check(cycle):
        assert _address(index) == address
        stored.append(index.n_vectors)
        np.testing.assert_array_equal(
            index.vectors[index.column_rows[max(live)]], live[max(live)]
        )
        if cycle % 10 == 9:
            query = live[max(live)][:5]
            assert _hits(index.search(query, TAU, JOINABILITY)) == _fresh_hits(
                live, query
            )

    _churn(index, live, rng, check)
    # dead rows were reclaimed inside the store
    assert any(after < before for before, after in zip(stored, stored[1:]))


def test_add_that_does_not_fit_compacts_before_growing(start):
    rng, columns = start
    index = PexesoIndex.build(columns, n_pivots=3, levels=3)
    address = _address(index)
    index.delete_column(0)  # below the compaction share: a dead column stays
    assert index.n_vectors == len(columns) * ROWS
    # the headroom holds two columns: the third add only fits once a
    # compaction has reclaimed the dead one
    for _ in range(3):
        index.add_column(_column(rng))
    assert _address(index) == address
    assert index.n_vectors == (len(columns) + 2) * ROWS
    # an add that still does not fit grows the store to 9/8 of its rows
    index.add_column(_column(rng, rows=4 * ROWS))
    assert _address(index) != address
    live = {cid: index.vectors[rows] for cid, rows in index.column_rows.items()}
    query = live[max(live)][:5]
    assert _hits(index.search(query, TAU, JOINABILITY)) == _fresh_hits(live, query)


def test_add_of_a_view_into_the_store(start):
    """A column handed in as a view of the store survives the compaction
    its own add triggers."""
    rng, columns = start
    index = PexesoIndex.build(columns, n_pivots=3, levels=3)
    address = _address(index)
    index.delete_column(0)
    for _ in range(2):  # fill the headroom
        index.add_column(_column(rng))
    view = index.vectors[ROWS : 2 * ROWS]
    expected = view.copy()
    column_5 = index.vectors[index.column_rows[5]]  # a copy: fancy indexing
    new_id = index.add_column(view)
    assert _address(index) == address
    assert index.n_vectors == (len(columns) + 2) * ROWS  # compacted
    np.testing.assert_array_equal(index.vectors[index.column_rows[new_id]], expected)
    # compaction keeps a fitted column's rows in their leaf order
    np.testing.assert_array_equal(index.vectors[index.column_rows[5]], column_5)


@pytest.mark.parametrize("n_columns", [400, 1600])
def test_add_and_search_allocate_independently_of_lake_size(n_columns, monkeypatch):
    """An add into the headroom plus one search stay below one constant
    at both lake sizes, though one copy of the smaller lake's store alone
    exceeds it. What they still allocate per lake row is integer
    metadata (posting rows, the candidate union), not vectors."""
    monkeypatch.setattr(verifier, "CHUNK_ELEMENTS", 1 << 14)
    bound = 3 << 19  # 1.5 MiB
    rng = np.random.default_rng(n_columns)
    dim = 64
    columns = [_column(rng, rows=ROWS, dim=dim) for _ in range(n_columns)]
    index = PexesoIndex.build(columns, n_pivots=3, levels=3)
    assert index.vectors.nbytes > bound
    query = columns[0][:6]
    tracemalloc.start()
    try:
        index.add_column(_column(rng, rows=ROWS, dim=dim))
        result = index.search(query, 0.8, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 in {h.column_id for h in result.joinable}
    assert peak < bound


def test_mmapped_epoch_is_never_written_through(start, tmp_path):
    rng, columns = start
    save_index(PexesoIndex.build(columns, n_pivots=3, levels=3), tmp_path / "index")
    (epoch,) = tmp_path.joinpath("index").glob("arrays_v3_*")
    stored = epoch / "vectors.npy"
    digest = hashlib.sha256(stored.read_bytes()).hexdigest()
    index = load_index(tmp_path / "index", mmap=True)
    assert not index.vectors.flags.writeable
    live = dict(enumerate(columns))
    # a dead row before the first add: that add compacts the read-only
    # store into an owned allocation rather than in place
    index.delete_column(0)
    del live[0]
    assert not index.vectors.flags.writeable

    def check(cycle):
        assert index.vectors.flags.writeable  # the first add copied the epoch
        if cycle % 10 == 9:
            query = live[max(live)][:5]
            assert _hits(index.search(query, TAU, JOINABILITY)) == _fresh_hits(
                live, query
            )

    _churn(index, live, rng, check)
    assert hashlib.sha256(stored.read_bytes()).hexdigest() == digest
