"""The build path's shortcuts must reproduce the structures they replace.

Each shortcut in ``PexesoIndex.fit`` and the JSD partitioner has a
slower form it must equal bit for bit:

* PCA pivots from the SVD of the sample's R factor equal those from the
  SVD of the whole sample;
* the spread-table :func:`~repro.core.cellcodes.encode_cells` equals the
  seed's bit loop (``reference.reference_encode_cells``), and
  :func:`~repro.core.cellcodes.stable_code_order` equals the stable
  argsort;
* batched column histograms equal per-column ones, so the partition
  labels are unchanged;
* ``fit``'s blocked map-and-encode pass, single sort and leaf-order
  scatter equal appending the columns one at a time and compacting the
  tail (the array-level check of ``test_reference_equivalence.py``,
  here through ``fit`` on the default PCA path, store included).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cellcodes import (
    MAX_CODE_BITS,
    decode_cells,
    encode_cells,
    stable_code_order,
)
from repro.core.grid import HierarchicalGrid
from repro.core import index as index_module
from repro.core.index import PexesoIndex
from repro.core.inverted_index import InvertedIndex
from repro.core.metric import normalize_rows
from repro.core.partition import HistogramSpace, jsd_kmeans_partition
from repro.core.pivot import select_pivots_pca
from reference import reference_encode_cells, reference_histogram


def full_svd_pivots(monkeypatch, vectors, n_pivots):
    """Pivots as selected before the R-factor shortcut: QR is skipped, so
    the SVD runs over the whole centred sample."""
    svd = np.linalg.svd
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "qr", lambda a, mode: a)
        patch.setattr(
            np.linalg, "svd", lambda a, full_matrices=True: svd(a, full_matrices=False)
        )
        return select_pivots_pca(vectors, n_pivots, rng=np.random.default_rng(3))


class TestRFactorPivots:
    @pytest.mark.parametrize("dim", [16, 64])
    @pytest.mark.parametrize("rows", [2, 3, 40])
    def test_directions_equal_full_svd(self, dim, rows):
        rng = np.random.default_rng(dim + rows)
        sample = rng.standard_normal((rows * dim, dim)) * rng.uniform(0.2, 3.0, dim)
        centred = sample - sample.mean(axis=0, keepdims=True)
        full = np.linalg.svd(centred, full_matrices=False)[2]
        reduced = np.linalg.svd(np.linalg.qr(centred, mode="r"))[2]
        np.testing.assert_array_equal(reduced, full)

    @pytest.mark.parametrize("dim", [16, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pivots_equal_full_svd(self, monkeypatch, dim, seed):
        rng = np.random.default_rng(seed)
        # more rows than the PCA sample, so the sampled path is covered too
        vectors = normalize_rows(rng.standard_normal((5000, dim)))
        want = full_svd_pivots(monkeypatch, vectors, 5)
        qr, reduced = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda a, mode: reduced.append(a) or qr(a, mode))
        got = select_pivots_pca(vectors, 5, rng=np.random.default_rng(3))
        assert len(reduced) == 1  # the tall sample took the R-factor path
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dim", [16, 64])
    def test_short_sample_skips_the_r_factor(self, monkeypatch, dim):
        rng = np.random.default_rng(dim)
        vectors = normalize_rows(rng.standard_normal((2 * dim - 1, dim)))
        want = full_svd_pivots(monkeypatch, vectors, 5)

        def no_qr(a, mode):
            raise AssertionError("a sample under 2 * dim rows must not be reduced")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        got = select_pivots_pca(vectors, 5, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(got, want)


@st.composite
def cell_coordinates(draw):
    n_dims = draw(st.integers(1, MAX_CODE_BITS))
    levels = draw(st.integers(1, MAX_CODE_BITS // n_dims))
    n = draw(st.integers(1, 12))
    flat = draw(
        st.lists(st.integers(0, (1 << levels) - 1), min_size=n * n_dims, max_size=n * n_dims)
    )
    return n_dims, levels, np.asarray(flat, dtype=np.int64).reshape(n, n_dims)


def _extremes(n_dims, levels):
    """All-zero, all-top and alternating coordinates at one code width."""
    top = (1 << levels) - 1
    alternating = [top, 0] * (n_dims // 2) + [1] * (n_dims % 2)
    coords = np.asarray([[0] * n_dims, [top] * n_dims, alternating], dtype=np.int64)
    return n_dims, levels, coords


class TestSpreadTableEncode:
    @settings(max_examples=200, deadline=None)
    @given(cell_coordinates())
    @example(_extremes(1, 62))
    @example(_extremes(5, 12))
    @example(_extremes(62, 1))
    def test_equals_bit_loop(self, drawn):
        n_dims, levels, coords = drawn
        codes = encode_cells(coords, n_dims, levels)
        np.testing.assert_array_equal(codes, reference_encode_cells(coords, n_dims, levels))
        np.testing.assert_array_equal(decode_cells(codes, n_dims, levels), coords)

    def test_every_width_equals_bit_loop(self):
        rng = np.random.default_rng(0)
        for n_dims in range(1, MAX_CODE_BITS + 1):
            for levels in range(1, MAX_CODE_BITS // n_dims + 1):
                coords = rng.integers(0, 1 << levels, size=(16, n_dims), dtype=np.int64)
                coords[0] = (1 << levels) - 1
                np.testing.assert_array_equal(
                    encode_cells(coords, n_dims, levels),
                    reference_encode_cells(coords, n_dims, levels),
                )


class TestStableCodeOrder:
    @pytest.mark.parametrize("code_bits", [1, 20, 50, MAX_CODE_BITS])
    @pytest.mark.parametrize("n", [0, 1, 17, 5000])
    def test_equals_stable_argsort(self, code_bits, n):
        # few distinct codes, so most rows tie; at 62 code bits most sizes
        # leave no room for the row index and take the argsort fallback
        rng = np.random.default_rng(n + code_bits)
        distinct = rng.integers(0, 1 << code_bits, size=7, dtype=np.int64)
        codes = distinct[rng.integers(0, 7, size=n)]
        np.testing.assert_array_equal(
            stable_code_order(codes, code_bits), np.argsort(codes, kind="stable")
        )


def _lake(seed, n_columns=40, dim=16, rows=(1, 30)):
    rng = np.random.default_rng(seed)
    centres = normalize_rows(rng.standard_normal((4, dim)))
    return [
        normalize_rows(
            centres[i % 4] + 0.3 * rng.standard_normal((int(rng.integers(*rows)), dim))
        )
        for i in range(n_columns)
    ]


def _per_column_histograms(space, projected, sizes):
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return np.vstack(
        [reference_histogram(space, projected[a:b]) for a, b in zip(bounds, bounds[1:])]
    )


class TestBatchedHistograms:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_batch_equals_per_column(self, seed):
        columns = _lake(seed)
        space = HistogramSpace(np.concatenate(columns))
        sizes = [c.shape[0] for c in columns]
        batch = space.histograms(space.sample_projected, sizes)
        np.testing.assert_array_equal(
            batch, _per_column_histograms(space, space.sample_projected, sizes)
        )
        for row, column in zip(batch, columns):
            np.testing.assert_array_equal(space.histogram(column), row)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("given_space", [False, True])
    def test_partition_labels_unchanged(self, monkeypatch, seed, k, given_space):
        columns = _lake(seed)
        space = HistogramSpace(np.concatenate(columns[::2])) if given_space else None
        with monkeypatch.context() as patch:
            patch.setattr(HistogramSpace, "histograms", _per_column_histograms)
            want = jsd_kmeans_partition(columns, k, rng=np.random.default_rng(seed), space=space)
        got = jsd_kmeans_partition(columns, k, rng=np.random.default_rng(seed), space=space)
        np.testing.assert_array_equal(got, want)


#: the inverted index's arrays that describe a packed (tail-free) layout
LAYOUT = (
    "leaves", "leaf_starts", "leaf_posts", "post_bits", "post_cols", "column_ids", "column_sizes"
)


def assert_fit_equals_appends(columns):
    fitted = PexesoIndex.build(columns)
    space = fitted.pivot_space

    grid = HierarchicalGrid(space.n_pivots, fitted.levels, space.extent, store_members=False)
    inverted = InvertedIndex()
    first_row = 0
    for column_id, column in enumerate(columns):
        cells = grid.insert(space.map_vectors(column))
        inverted.add_column(column_id, cells, first_row, grid.leaf_codes)
        first_row += column.shape[0]

    assert fitted.grid.n_vectors == grid.n_vectors
    for level in range(fitted.levels + 1):
        np.testing.assert_array_equal(fitted.grid.level_codes(level), grid.level_codes(level))
    # the appends sit in the tail in column order; compacting them
    # into their leaves gives fit's leaf-ordered store and runs
    packed, blocks, tail_from, tail_to = inverted.compaction()
    store = np.concatenate(columns)
    index_module._move_rows(store, store, blocks, tail_from, tail_to)
    assert fitted.inverted.tail_firsts.size == 0
    for name in LAYOUT:
        np.testing.assert_array_equal(getattr(fitted.inverted, name), getattr(packed, name))
    np.testing.assert_array_equal(fitted.vectors, store)


class TestFitEqualsAppends:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("block_rows", [97, index_module.FIT_BLOCK_ROWS])
    def test_default_pca_fit_equals_appends(self, monkeypatch, seed, block_rows):
        columns = _lake(seed, n_columns=150, rows=(10, 50))
        # several blocks, the last one partial
        monkeypatch.setattr(index_module, "FIT_BLOCK_ROWS", block_rows)
        assert_fit_equals_appends(columns)

    @pytest.mark.parametrize(
        "sizes",
        [
            [100, 1000],
            [600, 10, 2000],
            [511, 1, 512, 300, 300, 3],
            [5] * 200 + [513] + [7] * 80,
        ],
    )
    def test_short_columns_before_long_ones(self, sizes):
        """The scatter stacks runs of short columns and writes long ones
        straight from their arrays, whatever their order."""
        rng = np.random.default_rng(len(sizes))
        columns = [normalize_rows(rng.normal(size=(n, 16))) for n in sizes]
        assert_fit_equals_appends(columns)
