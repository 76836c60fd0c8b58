"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
import random
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.metric import EuclideanMetric, normalize_rows
from repro.core.persistence import (
    V2_FORMAT_VERSION,
    V3_FORMAT_VERSION,
    V4_FORMAT_VERSION,
    _index_payload,
    save_index,
)
from repro.core.verifier import verify_row_blocks


def pytest_collection_modifyitems(config, items):
    """Shuffle the test order when ``REPRO_TEST_SHUFFLE_SEED`` is set, so a
    test that leans on another's side effects fails reproducibly."""
    seed = os.environ.get("REPRO_TEST_SHUFFLE_SEED")
    if seed is not None:
        random.Random(int(seed)).shuffle(items)
        config.get_terminal_writer().line(f"test order shuffled with seed {seed}")


def make_columns(rng: np.random.Generator, n_columns: int, dim: int,
                 rows: tuple[int, int] = (3, 25)) -> list[np.ndarray]:
    """Random unit-vector columns of varying length."""
    return [
        normalize_rows(rng.normal(size=(int(rng.integers(*rows)), dim)))
        for _ in range(n_columns)
    ]


@pytest.fixture(scope="session")
def verify_one():
    """``verify_row_blocks`` for one query column over one index: returns
    the query's :class:`~repro.core.verifier.VerifyResult`."""

    def run(pairs, index, queries, q_mapped, tau, t_count, **kwargs):
        n = queries.shape[0]
        return verify_row_blocks(
            pairs, index.inverted, queries, q_mapped,
            index.vectors, None, index.metric,
            tau, [t_count], [n], np.zeros(n, dtype=np.intp), **kwargs,
        )[0]

    return run


def format4_arrays(arrays: dict) -> dict:
    """A format-5 payload as the format-4 writer saved it: the store in
    column order (a column's vectors in their leaf order), ``inv_rows``,
    the int32 rows of each leaf in that numbering, and each column's
    first row ``column_first_rows``, in place of the run arrays."""
    arrays = dict(arrays)
    vectors = np.asarray(arrays["vectors"])
    n_rows = vectors.shape[0]
    arrays["inv_leaf_starts"] = np.asarray(arrays.pop("inv_leaf_offsets"))[0]
    arrays["column_ids"], arrays["column_counts"] = np.asarray(arrays.pop("columns"))
    starts = np.flatnonzero(np.unpackbits(arrays.pop("inv_post_bits"), count=n_rows))
    column_of_row = np.repeat(arrays.pop("inv_post_cols"), np.diff(np.append(starts, n_rows)))
    by_column = np.argsort(column_of_row, kind="stable")
    rows = np.empty(n_rows, dtype=np.int32)
    rows[by_column] = np.arange(n_rows)
    sizes = np.asarray(arrays["column_counts"], dtype=np.int64)
    arrays.update(
        vectors=vectors[by_column], inv_rows=rows, column_first_rows=np.cumsum(sizes) - sizes
    )
    return arrays


def legacy_inverted(arrays: dict) -> dict:
    """A format-4 payload's inverted index as a format-2/3 writer saved
    it: int64 (cell, column) posting entries (``inv_codes`` /
    ``inv_cols``, lexsorted), their CSR offsets ``inv_starts`` and the
    int64 rows ``inv_rows``, in place of ``inv_leaf_starts``."""
    arrays = dict(arrays)
    rows = np.asarray(arrays.pop("inv_rows"), dtype=np.int64)
    starts = np.asarray(arrays.pop("inv_leaf_starts"), dtype=np.int64)
    codes = np.repeat(np.asarray(arrays["grid_leaf_codes"]), np.diff(starts))
    firsts = np.asarray(arrays["column_first_rows"])
    cols = np.asarray(arrays["column_ids"])[np.searchsorted(firsts, rows, side="right") - 1]
    new = np.ones(rows.size, dtype=bool)
    new[1:] = (codes[1:] != codes[:-1]) | (cols[1:] != cols[:-1])
    entries = np.flatnonzero(new)
    arrays.update(
        inv_codes=codes[entries].astype(np.int64),
        inv_cols=cols[entries].astype(np.int64),
        inv_starts=np.append(entries, rows.size).astype(np.int64),
        inv_rows=rows,
    )
    for name in ("column_ids", "column_first_rows", "column_counts"):
        if name in arrays:  # int64, as those writers saved them
            arrays[name] = np.asarray(arrays[name], dtype=np.int64)
    return arrays


#: the files only a format-5 epoch holds, and only a format-4 one
FORMAT5_ONLY = ("inv_leaf_offsets", "inv_post_bits", "inv_post_cols", "columns")
FORMAT4_ONLY = ("inv_leaf_starts", "inv_rows", "column_ids", "column_first_rows", "column_counts")


def rewrite_epoch_as_v4(epoch: Path) -> None:
    """Turn a format-5 epoch directory into the format-4 layout in place."""
    names = ("vectors",) + FORMAT5_ONLY
    arrays = format4_arrays({name: np.load(epoch / f"{name}.npy") for name in names})
    for name in FORMAT5_ONLY:
        (epoch / f"{name}.npy").unlink()
    for name in ("vectors",) + FORMAT4_ONLY:
        np.save(epoch / f"{name}.npy", arrays[name])


def rewrite_epoch_as_v3(epoch: Path) -> None:
    """Turn a format-5 (or 4) epoch directory into the format-3 layout in place."""
    if (epoch / "inv_post_bits.npy").exists():
        rewrite_epoch_as_v4(epoch)
    names = ("grid_leaf_codes", "inv_leaf_starts", "inv_rows", "column_ids", "column_first_rows")
    arrays = legacy_inverted({name: np.load(epoch / f"{name}.npy") for name in names})
    (epoch / "inv_leaf_starts.npy").unlink()
    for name in ("inv_codes", "inv_cols", "inv_starts", "inv_rows"):
        np.save(epoch / f"{name}.npy", arrays[name])


@pytest.fixture(scope="session")
def epoch_to_v3():
    """:func:`rewrite_epoch_as_v3`, for tests that age a lake's shards."""
    return rewrite_epoch_as_v3


@pytest.fixture(scope="session")
def epoch_to_v4():
    """:func:`rewrite_epoch_as_v4`, for tests that age a lake's shards."""
    return rewrite_epoch_as_v4


def _write_aged(index, directory, version: int, rewrite) -> Path:
    directory = Path(directory)
    shutil.rmtree(directory, ignore_errors=True)
    save_index(index, directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    rewrite(directory / manifest["arrays_dir"])
    manifest["format_version"] = version
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return directory


@pytest.fixture(scope="session")
def write_v3():
    """Write ``index`` as a format-3 directory: a manifest naming one
    epoch whose inverted index is int64 posting entries.

    The library only *reads* format 3 any more; this is the layout its
    retired writer produced, kept here so the read path stays tested.
    """
    return lambda index, directory: _write_aged(
        index, directory, V3_FORMAT_VERSION, rewrite_epoch_as_v3
    )


@pytest.fixture(scope="session")
def write_v4():
    """Write ``index`` as a format-4 directory: a manifest naming one
    epoch with the store in column order and an int32 leaf → row CSR.

    The library only *reads* format 4 any more; this is the layout its
    retired writer produced, kept here so the read path stays tested.
    """
    return lambda index, directory: _write_aged(
        index, directory, V4_FORMAT_VERSION, rewrite_epoch_as_v4
    )


@pytest.fixture(scope="session")
def write_v2():
    """Write ``index`` as a format-v2 directory (one compressed
    ``index.npz`` + manifest), replacing whatever ``directory`` held.

    The library only *reads* v2 any more; this is the layout the retired
    writer produced, kept here so the read path stays tested.
    """

    def write(index, directory) -> Path:
        directory = Path(directory)
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        arrays, manifest = _index_payload(index)
        arrays = legacy_inverted(format4_arrays(arrays))
        np.savez_compressed(
            directory / "index.npz",
            extent=np.float64(index.pivot_space.extent),
            mapped=index.mapped,  # v2 also stored the pivot-mapped rows
            **arrays,
        )
        manifest = {"format_version": V2_FORMAT_VERSION, **manifest}
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
        return directory

    return write


@pytest.fixture(scope="session")
def write_format1_lake(write_v2):
    """Write a fitted lake in lake format 1, replacing ``directory``.

    In format 1 every non-empty partition is a complete single-index
    directory with its own ``manifest.json`` (v3, or v2 with
    ``v2=True``) and ``partitioned.json`` names only those directories.
    The library only *reads* format 1; this is the layout its retired
    writer produced, kept here so the read path stays tested.
    """

    def write(lake, directory, v2: bool = False) -> Path:
        directory = Path(directory)
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        partitions = {}
        for part, globals_ in enumerate(lake.partition_columns):
            if globals_:
                index = lake._get_index(part)[0]
                subdir = f"partition_{part}"
                (write_v2 if v2 else save_index)(index, directory / subdir)
                partitions[str(part)] = subdir
        manifest = {
            "format_version": 1,
            "metric": index.metric.name,
            "n_pivots": lake.n_pivots,
            "levels": lake.levels,
            "pivot_method": lake.pivot_method,
            "seed": lake.seed,
            "n_partitions": lake.n_partitions,
            "partitioner": lake.partitioner,
            "kmeans_iters": lake.kmeans_iters,
            "labels": np.asarray(lake.labels).astype(int).tolist(),
            "partition_columns": [list(map(int, g)) for g in lake.partition_columns],
            "deleted_column_ids": sorted(int(c) for c in lake._deleted_ids),
            "partitions": partitions,
        }
        (directory / "partitioned.json").write_text(json.dumps(manifest, indent=2))
        return directory

    return write


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20210329)  # the paper's arXiv v4 date


@pytest.fixture(scope="session")
def metric() -> EuclideanMetric:
    return EuclideanMetric()


@pytest.fixture(scope="session")
def small_columns(rng) -> list[np.ndarray]:
    """A small repository: 40 columns of 8-dim unit vectors."""
    return make_columns(np.random.default_rng(11), 40, 8)


@pytest.fixture(scope="session")
def small_query(rng) -> np.ndarray:
    return normalize_rows(np.random.default_rng(12).normal(size=(15, 8)))


@pytest.fixture(scope="session")
def clustered_columns() -> list[np.ndarray]:
    """Columns with cluster structure (closer to real embedding data)."""
    rng = np.random.default_rng(13)
    centers = normalize_rows(rng.normal(size=(12, 8)))
    columns = []
    for _ in range(30):
        picks = rng.choice(12, size=int(rng.integers(4, 20)))
        vectors = centers[picks] + rng.normal(scale=0.05, size=(len(picks), 8))
        columns.append(normalize_rows(vectors))
    return columns
