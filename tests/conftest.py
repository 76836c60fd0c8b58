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
from repro.core.persistence import V2_FORMAT_VERSION, _index_payload, save_index
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
            index.vectors, index.mapped, index.metric,
            tau, [t_count], [n], np.zeros(n, dtype=np.intp), **kwargs,
        )[0]

    return run


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
        np.savez_compressed(
            directory / "index.npz",
            extent=np.float64(index.pivot_space.extent),
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
