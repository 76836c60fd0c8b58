"""Fig. 6 — distance computations (6a) and index sizes (6b).

Paper result (OPEN/SWDC at default thresholds): PEXESO performs by far
the fewest exact distance computations, PEXESO-H fewer than CTREE/EPT;
PEXESO's index is the largest but within ~2x of CTREE/EPT — a modest
space price for the speedup. This index stores no pivot-mapped copy of
the vectors (only pivots, grid leaf codes and postings), so here it is
smaller than both.
"""

from __future__ import annotations

import pytest

from common import ResultTable

from repro.baselines.cover_tree import build_ctree_index, ctree_search
from repro.baselines.ept import build_ept_index, ept_search
from repro.baselines.pexeso_h import pexeso_h_search
from repro.core.index import PexesoIndex
from repro.core.search import pexeso_search
from repro.core.stats import SearchStats
from repro.core.thresholds import distance_threshold

TAU_FRACTION = 0.06
T = 0.6


def _measure(dataset, n_pivots, levels):
    tau = distance_threshold(TAU_FRACTION, PexesoIndex().metric, dataset.dim)

    index = PexesoIndex.build(dataset.vector_columns, n_pivots=n_pivots, levels=levels)
    tree, ct_cols = build_ctree_index(dataset.vector_columns)
    ept_table, ept_cols = build_ept_index(dataset.vector_columns, n_pivots=n_pivots)

    distances = {}
    for name, fn in {
        "CTREE": lambda q: ctree_search(
            dataset.vector_columns, q, tau, T, tree=tree, column_of_row=ct_cols,
            stats=SearchStats(),
        ),
        "EPT": lambda q: ept_search(
            dataset.vector_columns, q, tau, T, table=ept_table,
            column_of_row=ept_cols, stats=SearchStats(),
        ),
        "PEXESO-H": lambda q: pexeso_h_search(index, q, tau, T),
        "PEXESO": lambda q: pexeso_search(index, q, tau, T),
    }.items():
        distances[name] = sum(
            fn(query).stats.distance_computations for query in dataset.queries
        )
    sizes = {
        "CTREE": tree.memory_bytes(),
        "EPT": ept_table.memory_bytes(),
        "PEXESO-H": index.memory_bytes(),
        "PEXESO": index.memory_bytes(),
    }
    return distances, sizes


@pytest.mark.parametrize("profile", ["OPEN-like", "SWDC-like"])
def test_fig6_distance_computation_and_index_size(
    profile, open_dataset, swdc_dataset, benchmark
):
    dataset = open_dataset if profile == "OPEN-like" else swdc_dataset
    n_pivots, levels = (5, 4) if profile == "OPEN-like" else (3, 3)
    distances, sizes = benchmark.pedantic(
        lambda: _measure(dataset, n_pivots, levels), rounds=1, iterations=1
    )

    table = ResultTable(
        f"Fig. 6 ({profile}): distance computations and index size",
        ["Method", "Distance computations", "Index bytes"],
    )
    for name in ("CTREE", "EPT", "PEXESO-H", "PEXESO"):
        table.add(name, distances[name], sizes[name])
    table.print_and_save(f"fig6_{profile.lower().replace('-', '_')}.md")

    # Fig. 6a orderings: PEXESO does the least distance work of all
    # methods, and blocking alone (PEXESO-H) already beats the exhaustive
    # bound |Q| * N by a wide margin.
    assert distances["PEXESO"] <= distances["PEXESO-H"], "blocking+L1/L2 helps"
    assert distances["PEXESO"] < distances["EPT"]
    assert distances["PEXESO"] < distances["CTREE"]
    naive_bound = sum(q.shape[0] for q in dataset.queries) * dataset.n_vectors
    assert distances["PEXESO-H"] < 0.5 * naive_bound
    # Fig. 6b: without a stored pivot-mapped table PEXESO's index is
    # the smallest of the three.
    assert sizes["PEXESO"] < min(sizes["CTREE"], sizes["EPT"])
