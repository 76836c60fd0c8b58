"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.core.metric import EuclideanMetric, normalize_rows
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
