"""One width rule for every integer array the index holds.

Each array is held in ``narrowest`` of the largest value it must hold:
cell codes in the geometry's type (``code_dtype(|P|, m)``), the per-leaf
row and posting offsets in the sorted part's row and posting counts',
``post_cols`` in the directory size's, the column IDs and sizes in their
largest value's (an add widens them only when it must, a compaction
narrows them again). The tests cross each boundary (code bits 15/16 and
31/32, 32,767 rows and postings, column IDs past 127 and 32,767, a
column size past 127), delete columns (the first one among them) and
compact, and at each step check the hits against ``naive_search``, that
the grid's leaves, the inverted index's leaves and its tail codes share
one type, and, after a fit or a compaction, that every held array is
exactly the narrowest type of its values. The loader takes any signed
type wide enough for its manifest, so an epoch written with the wider
types of an older layout loads as it is and narrows at its next
compaction.
"""

import json

import numpy as np
import pytest

from repro.baselines.exact_naive import naive_search
from repro.core.cellcodes import code_dtype, encode_cells
from repro.core.index import PexesoIndex
from repro.core.inverted_index import ROW, narrowest, posting_dtype
from repro.core.metric import normalize_rows
from repro.core.persistence import load_index, save_index

#: one matching row makes a hit, so a query hits the columns it is drawn from
TAU, T = 0.4, 1


def assert_one_code_type(index):
    """The grid's leaves, the shared leaf array and the tail codes have
    the geometry's code type, so no lookup casts a code array."""
    grid, inverted = index.grid, index.inverted
    assert inverted.leaves is grid.leaf_codes
    want = code_dtype(index.n_pivots, index.levels)
    assert grid.leaf_codes.dtype == inverted.tail_codes.dtype == want


def assert_narrowest(index):
    """Every array of a freshly built or compacted index is held in the
    narrowest type of its values; the tail is empty."""
    inverted = index.inverted
    assert inverted.leaf_starts.dtype == narrowest(inverted.leaf_starts[-1])
    assert inverted.leaf_posts.dtype == narrowest(inverted.post_cols.size)
    assert inverted.leaf_posts[-1] == inverted.post_cols.size
    assert inverted.post_cols.dtype == posting_dtype(index.n_columns)
    assert inverted.column_ids.dtype == narrowest(inverted.column_ids.max())
    assert inverted.column_sizes.dtype == narrowest(inverted.column_sizes.max())
    assert inverted.tail_firsts.size == inverted.tail_codes.size == 0


class Lake:
    """An index over the first ``n_columns`` of ``columns``, the rest to
    add in order, and the exhaustive scan's hits over all of them."""

    def __init__(self, columns, n_columns: int, n_pivots: int = 3, levels: int = 3):
        self.columns = columns
        self.index = PexesoIndex.build(
            columns[:n_columns], n_pivots=n_pivots, levels=levels, seed=1
        )
        self.live = set(range(n_columns))
        self.next_id = n_columns
        last = len(columns) - 1
        self.queries = [
            np.concatenate([columns[c] for c in pick])[:40]
            for pick in ([0, last], [last // 2, last - 1, last])
        ]
        # whether a column is a hit does not depend on the others, so one
        # scan over every column serves each live set
        self.exact = [
            {h.column_id: h.match_count for h in naive_search(columns, q, TAU, T).joinable}
            for q in self.queries
        ]
        self.check(fresh=True)

    def add(self, n: int) -> None:
        for cid in range(self.next_id, self.next_id + n):
            assert self.index.add_column(self.columns[cid]) == cid
            self.live.add(cid)
        self.next_id += n
        self.check()

    def delete(self, cids) -> None:
        for cid in cids:
            self.index.delete_column(cid)
            self.live.remove(cid)
        self.check()

    def compact(self) -> None:
        self.index._compact()
        self.check(fresh=True)

    def check(self, fresh: bool = False) -> None:
        """Hits equal the exhaustive scan's, the codes have one type and,
        when ``fresh``, every array is at its narrowest."""
        for query, exact in zip(self.queries, self.exact):
            got = self.index.search(query, TAU, T).joinable
            want = sorted((cid, count) for cid, count in exact.items() if cid in self.live)
            assert sorted((h.column_id, h.match_count) for h in got) == want
        assert_one_code_type(self.index)
        if fresh:
            assert_narrowest(self.index)

    def roundtrip(self, directory) -> None:
        """Save, then load eager and mmap: each answers the same with the
        types it was saved in; the mmap load carries on."""
        save_index(self.index, directory)
        for mmap in (False, True):
            self.index = load_index(directory, mmap=mmap)
            assert isinstance(self.index.inverted.leaf_starts, np.memmap) == mmap
            self.check()


def random_columns(sizes, seed: int = 0, dim: int = 5):
    """Columns of unit vectors with the given row counts."""
    rng = np.random.default_rng(seed)
    rows = normalize_rows(rng.normal(size=(int(np.sum(sizes)), dim)))
    return np.split(rows, np.cumsum(sizes)[:-1])


@pytest.mark.parametrize(
    "value, dtype",
    [(-1, np.int8), (0, np.int8), (127, np.int8), (128, np.int16),
     (32_767, np.int16), (32_768, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)],
)
def test_narrowest(value, dtype):
    assert narrowest(value) == dtype
    info = np.iinfo(narrowest(value))
    assert info.min <= -1 and info.max >= value
    # post_cols holds -1 through the directory's last position
    assert posting_dtype(value + 1) == narrowest(value)


@pytest.mark.parametrize(
    "n_pivots, levels, dim, dtype",
    [(5, 3, 5, np.int16),  # 15 bits
     (4, 4, 5, np.int32),  # 16 bits
     (5, 4, 5, np.int32),  # the default geometry: 20 bits
     (31, 1, 32, np.int32),  # 31 bits
     (4, 8, 5, np.int64)],  # 32 bits
)
def test_code_bits_set_the_code_type(n_pivots, levels, dim, dtype, tmp_path):
    """Codes take the geometry's type through encoding, a fit, adds,
    deletes, a compaction and a save/load."""
    assert code_dtype(n_pivots, levels) == dtype
    top = (1 << levels) - 1
    codes = encode_cells(np.full((2, n_pivots), top), n_pivots, levels)
    assert codes.dtype == dtype and int(codes[0]) == (1 << (n_pivots * levels)) - 1
    sizes = np.random.default_rng(n_pivots).integers(1, 6, size=40)
    lake = Lake(random_columns(sizes, seed=levels, dim=dim), 30, n_pivots, levels)
    lake.add(6)
    lake.delete([0, 31])
    lake.roundtrip(tmp_path / "idx")
    lake.add(4)
    lake.compact()


def test_leaf_offsets_cross_32767_rows(tmp_path):
    """Columns of repeated rows: few postings, many rows. The sorted
    part's row offsets widen to int32 at the compaction that takes it
    past 32,767 rows and narrow again once deletes and a compaction take
    it back; the posting offsets stay int8 throughout."""
    rng = np.random.default_rng(3)
    points = normalize_rows(rng.normal(size=(110, 5)))
    columns = [np.repeat(points[c : c + 1], 300, axis=0) for c in range(110)]
    lake = Lake(columns, 109)
    assert lake.index.inverted.leaf_starts.dtype == np.int16  # 32,700 rows
    lake.add(1)
    assert lake.index.inverted.leaf_starts.dtype == np.int16  # the add is in the tail
    lake.compact()
    inverted = lake.index.inverted
    assert inverted.n_sorted == 33_000 and inverted.leaf_starts.dtype == np.int32
    assert inverted.leaf_posts.dtype == np.int8
    lake.roundtrip(tmp_path / "wide")
    lake.delete([0, 55])
    assert lake.index.inverted.leaf_starts.dtype == np.int32  # a delete keeps the type
    lake.compact()
    assert lake.index.inverted.leaf_starts.dtype == np.int16


def test_leaf_offsets_cross_32767_postings(tmp_path):
    """Columns of 12 distinct rows, each twice: about one posting per two
    rows. Adds take the postings past 32,767 and the compaction widens
    the posting offsets; deletes and a compaction narrow them again."""
    rng = np.random.default_rng(4)
    points = normalize_rows(rng.normal(size=(2800 * 12, 5)))
    columns = [np.repeat(part, 2, axis=0) for part in np.split(points, 2800)]
    lake = Lake(columns, 2700, n_pivots=3, levels=6)
    before = lake.index.inverted.post_cols.size
    assert before <= 32_767 and lake.index.inverted.leaf_posts.dtype == np.int16
    lake.add(100)
    lake.compact()
    inverted = lake.index.inverted
    assert inverted.post_cols.size > 32_767 and inverted.leaf_posts.dtype == np.int32
    lake.roundtrip(tmp_path / "wide")
    lake.delete([0, *range(1, 2800, 7)])
    lake.compact()
    inverted = lake.index.inverted
    assert inverted.post_cols.size <= 32_767 and inverted.leaf_posts.dtype == np.int16


@pytest.mark.parametrize("boundary, narrow, wide", [(127, np.int8, np.int16),
                                                    (32_767, np.int16, np.int32)])
def test_column_ids_widen_on_the_add_that_needs_it(boundary, narrow, wide, tmp_path):
    """The add of ID ``boundary + 1`` widens the IDs (and only that add);
    deleting it and the first column keeps the type, and a compaction
    narrows it again."""
    sizes = np.random.default_rng(boundary).integers(1, 4, size=boundary + 3)
    lake = Lake(random_columns(sizes, seed=boundary), boundary)
    lake.add(1)  # ID `boundary` still fits
    assert lake.index.inverted.column_ids.dtype == narrow
    lake.add(2)
    assert lake.index.inverted.column_ids.dtype == wide
    assert lake.index.inverted.column_ids.dtype == narrowest(boundary + 2)
    lake.roundtrip(tmp_path / "wide")
    lake.delete([0, boundary + 1, boundary + 2])
    assert lake.index.inverted.column_ids.dtype == wide
    lake.compact()
    assert lake.index.inverted.column_ids.dtype == narrow


def test_a_column_size_past_127_widens_the_sizes(tmp_path):
    """An add of a 130-row column widens the sizes to int16; deleting it
    and a compaction narrow them back to int8."""
    sizes = [*np.random.default_rng(9).integers(1, 128, size=20), 127, 130, 3]
    lake = Lake(random_columns(sizes, seed=9), 20)
    assert lake.index.inverted.column_sizes.dtype == np.int8
    lake.add(2)
    assert lake.index.inverted.column_sizes.dtype == np.int16
    lake.roundtrip(tmp_path / "wide")
    lake.delete([0, 21])
    lake.add(1)  # compacts the loaded store first: the sizes narrow
    assert lake.index.inverted.column_sizes.dtype == np.int8
    lake.compact()


def test_values_leave_the_index_as_int64():
    """IDs, sizes and rows read out of narrow arrays are int64 / intp."""
    lake = Lake(random_columns([3] * 10, seed=2), 10)
    inverted = lake.index.inverted
    assert inverted.column_ids.dtype == np.int8
    cells = inverted.leaves
    assert inverted.cell_postings(cells)[1].dtype == np.int64
    assert inverted.columns_in_cells_arrays(cells)[0].dtype == np.int64
    cand = inverted.candidate_rows(cells, 1)
    assert cand.views.dtype == np.intp
    assert isinstance(lake.index.column_size(3), int)
    assert all(type(c) is int for c in lake.index.column_rows)


# -- the loader ------------------------------------------------------------------


def _epoch(directory):
    manifest = json.loads((directory / "manifest.json").read_text())
    return directory / manifest["arrays_dir"]


@pytest.fixture(scope="module")
def lake_200():
    """200 columns of 1-3 rows: int16 codes, IDs and offsets."""
    sizes = np.random.default_rng(200).integers(1, 4, size=200)
    return Lake(random_columns(sizes, seed=200), 200)


@pytest.mark.parametrize("mmap", [False, True])
@pytest.mark.parametrize(
    "name, dtype",
    [("grid_leaf_codes", np.uint64), ("grid_leaf_codes", np.float64),
     ("grid_leaf_codes", np.int8),  # 9 code bits: int16
     ("inv_leaf_offsets", np.uint16), ("inv_leaf_offsets", np.float32),
     ("inv_leaf_offsets", np.int8),  # past 127 rows
     ("columns", np.uint32), ("columns", np.float64),
     ("columns", np.int8)],  # 200 columns
)
def test_the_loader_refuses_a_wrong_type(lake_200, tmp_path, name, dtype, mmap):
    save_index(lake_200.index, tmp_path / "idx")
    path = _epoch(tmp_path / "idx") / f"{name}.npy"
    np.save(path, np.load(path).astype(dtype))
    with pytest.raises(ValueError, match=name):
        load_index(tmp_path / "idx", mmap=mmap)


def test_a_wide_epoch_loads_as_stored_and_narrows_at_its_next_compaction(tmp_path):
    """An epoch in the older layout (int64 codes and IDs, int32 offsets
    and sizes, written by hand) loads eager and mmap with its offsets
    and directory as stored and its codes in the geometry's type,
    answers the same, and narrows at its next compaction; the narrow
    files are the smaller."""
    sizes = np.random.default_rng(201).integers(1, 4, size=201)
    lake = Lake(random_columns(sizes, seed=201), 200)
    save_index(lake.index, tmp_path / "idx")
    epoch = _epoch(tmp_path / "idx")
    narrow_bytes = sum(path.stat().st_size for path in epoch.iterdir())
    inverted = lake.index.inverted
    np.save(epoch / "grid_leaf_codes.npy", lake.index.grid.leaf_codes.astype(np.int64))
    np.save(epoch / "inv_leaf_offsets.npy",
            np.stack([inverted.leaf_starts, inverted.leaf_posts]).astype(np.int32))
    sizes = inverted.column_sizes.astype(np.int32)
    np.save(epoch / "columns.npy", np.stack([inverted.column_ids.astype(np.int64), sizes]))
    assert np.load(epoch / "columns.npy").dtype == np.int64
    assert sum(path.stat().st_size for path in epoch.iterdir()) > narrow_bytes

    for mmap in (False, True):
        lake.index = load_index(tmp_path / "idx", mmap=mmap)
        loaded = lake.index.inverted
        assert loaded.leaf_starts.dtype == loaded.leaf_posts.dtype == np.int32
        assert loaded.column_ids.dtype == loaded.column_sizes.dtype == np.int64
        lake.check()  # the codes were cast: one code type
    lake.add(1)
    lake.delete([0])
    lake.compact()
    assert lake.index.inverted.column_ids.dtype == np.int16
    assert lake.index.inverted.column_sizes.dtype == np.int8


def test_tail_row_arrays_stay_int32():
    lake = Lake(random_columns([2] * 12, seed=12), 10)
    lake.add(2)
    inverted = lake.index.inverted
    assert inverted.tail_codes.size
    for array in (inverted.tail_firsts, inverted.tail_starts, inverted.tail_rows):
        assert array.dtype == ROW
