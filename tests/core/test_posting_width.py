"""``post_cols`` at the column directory's width.

The inverted index holds each posting's directory position in the
narrowest signed type that holds -1 (a dead posting) through the
directory's last position: int8 up to 128 columns, int16 up to 32,768,
int32 beyond. At 127, 128, 32,767 and 32,768 columns, the tests cross
each boundary by adds and a compaction (the type widens) and go back
by deletes and a compaction (it narrows), save and load at each width,
and compare hits with ``naive_search`` throughout. The loader refuses
files of the wrong type, and an int32 file, as written before the
narrowing, still loads and answers the same.
"""

import json

import numpy as np
import pytest

from repro.baselines.exact_naive import naive_search
from repro.core.index import PexesoIndex
from repro.core.inverted_index import posting_dtype
from repro.core.metric import normalize_rows
from repro.core.persistence import load_index, save_index

DIM = 5
#: one matching row makes a hit, so a query hits the columns it is drawn from
TAU, T = 0.4, 1

#: the type the directory's positions take, by column count
WIDTHS = [(1, np.int8), (128, np.int8), (129, np.int16),
          (32_768, np.int16), (32_769, np.int32), (2**31 - 1, np.int32)]


class Lake:
    """An index over ``n_columns`` columns of 1-3 rows, ``n_pending``
    more to add, and the exhaustive scan's hits over all of them."""

    def __init__(self, n_columns: int, n_pending: int = 0):
        rng = np.random.default_rng(n_columns)
        sizes = rng.integers(1, 4, size=n_columns + n_pending)
        rows = normalize_rows(rng.normal(size=(int(sizes.sum()), DIM)))
        #: every column by ID; the pending ones get the next IDs in order
        self.columns = np.split(rows, np.cumsum(sizes)[:-1])
        self.index = PexesoIndex.build(self.columns[:n_columns], n_pivots=3, levels=3, seed=1)
        self.live = set(range(n_columns))
        self.next_id = n_columns
        last = len(self.columns) - 1
        self.queries = [
            np.concatenate([self.columns[c] for c in pick])
            for pick in ([0, last], [last // 2, last - 1, last])
        ]
        # whether a column is a hit does not depend on the others, so one
        # scan over every column serves each live set
        self.exact = [
            {h.column_id: h.match_count for h in naive_search(self.columns, q, TAU, T).joinable}
            for q in self.queries
        ]
        assert {0, last} <= set(self.exact[0])

    def add(self, n: int) -> None:
        for cid in range(self.next_id, self.next_id + n):
            assert self.index.add_column(self.columns[cid]) == cid
            self.live.add(cid)
        self.next_id += n

    def delete(self, cids) -> None:
        for cid in cids:
            self.index.delete_column(cid)
            self.live.remove(cid)

    def check(self, dtype) -> None:
        """``post_cols`` has ``dtype`` and hits equal the exhaustive scan's."""
        assert self.index.inverted.post_cols.dtype == dtype
        for query, exact in zip(self.queries, self.exact):
            got = self.index.search(query, TAU, T).joinable
            want = sorted((cid, count) for cid, count in exact.items() if cid in self.live)
            assert sorted((h.column_id, h.match_count) for h in got) == want

    def roundtrip(self, directory, dtype) -> None:
        """Save, then load eager and mmap: each holds ``dtype`` and
        answers the same; the mmap load carries on."""
        save_index(self.index, directory)
        for mmap in (False, True):
            self.index = load_index(directory, mmap=mmap)
            assert isinstance(self.index.inverted.post_cols, np.memmap) == mmap
            self.check(dtype)


@pytest.mark.parametrize("n, dtype", WIDTHS)
def test_the_width_rule(n, dtype):
    assert posting_dtype(n) == dtype
    info = np.iinfo(posting_dtype(n))
    assert info.min <= -1 and info.max >= n - 1


@pytest.mark.parametrize("boundary", [127, 128, 32_767, 32_768])
def test_widen_by_adds_then_narrow_by_deletes(boundary, tmp_path):
    """Adds cross the boundary, and a compaction widens ``post_cols``;
    deletes go back below it, and a compaction narrows it."""
    narrow = posting_dtype(boundary)
    wide = np.int16 if narrow == np.int8 else np.int32
    # one column past the most the narrow type holds
    past = 129 if narrow == np.int8 else 32_769
    lake = Lake(boundary, n_pending=past - boundary)
    lake.check(narrow)
    lake.roundtrip(tmp_path / "narrow", narrow)
    lake.add(past - boundary)
    lake.check(narrow)  # tail adds never touch post_cols
    lake.index._compact()
    lake.check(wide)
    lake.roundtrip(tmp_path / "wide", wide)
    lake.delete([0, past - 1])  # deleting the first shifts every position
    lake.check(wide)  # a delete keeps the type
    lake.index._compact()
    assert lake.index.n_columns == past - 2
    lake.check(narrow)
    lake.roundtrip(tmp_path / "narrow_again", narrow)


def _post_cols_file(directory):
    manifest = json.loads((directory / "manifest.json").read_text())
    return directory / manifest["arrays_dir"] / "inv_post_cols.npy"


@pytest.fixture(scope="module")
def index_200():
    """A 200-column index: int16 ``post_cols``."""
    return Lake(200).index


@pytest.mark.parametrize("mmap", [False, True])
@pytest.mark.parametrize("dtype", [np.uint16, np.float64, np.int8, np.int64])
def test_the_loader_refuses_a_wrong_type(index_200, tmp_path, dtype, mmap):
    save_index(index_200, tmp_path / "idx")
    path = _post_cols_file(tmp_path / "idx")
    assert np.load(path).dtype == np.int16
    np.save(path, np.load(path).astype(dtype))
    with pytest.raises(ValueError, match="inv_post_cols"):
        load_index(tmp_path / "idx", mmap=mmap)


@pytest.mark.parametrize("n_columns", [100, 200])
def test_an_int32_epoch_loads_and_narrows_at_its_next_compaction(n_columns, tmp_path):
    """An epoch whose ``inv_post_cols`` is int32, the layout written
    before the narrowing, loads as it is, answers the same and narrows at
    its next compaction; the narrow file is the smaller."""
    lake = Lake(n_columns, n_pending=3)
    save_index(lake.index, tmp_path / "idx")
    path = _post_cols_file(tmp_path / "idx")
    narrow_size = path.stat().st_size
    np.save(path, np.load(path).astype(np.int32))
    assert path.stat().st_size > narrow_size
    for mmap in (False, True):
        lake.index = load_index(tmp_path / "idx", mmap=mmap)
        lake.check(np.int32)
    lake.add(3)  # the first add to a loaded store compacts it
    lake.check(posting_dtype(n_columns))
