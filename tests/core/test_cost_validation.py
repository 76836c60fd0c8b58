"""Validation of the cost model against measured work.

Eq. 1-2 exist to *rank* grid depths, not to predict absolute counts; the
test asserts rank correlation between the estimated cost and the work
Eq. 1 prices, measured exactly across m values. Eq. 1 prices Algorithm
2's Lemma 1 survivors, a pass the GEMM verifier no longer makes, so the
measured side evaluates Eq. 1 on the real blocking output with the exact
``N(SQR(q', τ))`` in place of Eq. 2's bound.
"""

import numpy as np
import pytest

from repro.core.blocker import block
from repro.core.cost import MappedDensityModel, estimate_workload_cost
from repro.core.grid import HierarchicalGrid
from repro.core.index import PexesoIndex
from repro.core.metric import normalize_rows


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(5)
    centers = normalize_rows(rng.normal(size=(15, 10)))
    columns = []
    for _ in range(40):
        picks = rng.choice(15, size=int(rng.integers(5, 20)))
        columns.append(
            normalize_rows(centers[picks] + rng.normal(scale=0.05, size=(len(picks), 10)))
        )
    queries = [
        normalize_rows(centers[rng.choice(15, size=10)] + rng.normal(scale=0.05, size=(10, 10)))
        for _ in range(3)
    ]
    return columns, queries


def _measured_eq1(index, query, tau):
    """Eq. 1 with the exact vector count inside SQR(q', τ) per occurrence."""
    mapped = index.pivot_space.map_vectors(query)
    hg_q = HierarchicalGrid.build(mapped, index.levels, index.pivot_space.extent)
    candidates = block(hg_q, index.grid, mapped, tau).candidate
    lake_mapped = index.mapped  # computed per access, so once here
    total = 0
    for q, n_cells in zip(candidates.rows.tolist(), candidates.lengths.tolist()):
        inside = (np.abs(lake_mapped - mapped[q]) <= tau).all(axis=1)
        total += n_cells * int(inside.sum())
    return total


def _spearman(a, b):
    ranks_a = np.argsort(np.argsort(a))
    ranks_b = np.argsort(np.argsort(b))
    return float(np.corrcoef(ranks_a, ranks_b)[0, 1])


class TestCostModelValidation:
    def test_estimated_cost_tracks_measured_work(self, setup):
        columns, queries = setup
        tau = 0.15
        probe = PexesoIndex.build(columns, n_pivots=3, levels=3)
        mapped_queries = [probe.pivot_space.map_vectors(q) for q in queries]
        workload = [(mq, tau) for mq in mapped_queries]
        density = MappedDensityModel(probe.mapped, probe.pivot_space.extent)

        estimates = []
        measured = []
        for m in (1, 2, 3, 4, 5):
            estimates.append(
                estimate_workload_cost(
                    probe.mapped, probe.pivot_space.extent, workload, m, density
                )
            )
            index = PexesoIndex.build(columns, n_pivots=3, levels=m)
            measured.append(sum(_measured_eq1(index, q, tau) for q in queries))
        # The model need not be calibrated, but its ranking of m values
        # should broadly agree with reality (positive rank correlation).
        assert _spearman(np.asarray(estimates), np.asarray(measured)) > 0.0

    def test_estimates_positive_under_load(self, setup):
        columns, queries = setup
        probe = PexesoIndex.build(columns, n_pivots=3, levels=3)
        workload = [(probe.pivot_space.map_vectors(queries[0]), 0.4)]
        cost = estimate_workload_cost(
            probe.mapped, probe.pivot_space.extent, workload, 3
        )
        assert cost > 0.0
