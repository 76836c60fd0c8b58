"""Ablations for design choices beyond the paper's Fig. 9.

Implementation-level decisions that the paper motivates but does not
ablate:

* **quick browsing** (§III-C) — processing identically-aligned leaf cells
  before Algorithm 1;
* **PCA pivots vs farthest-first traversal** — the third pivot selector.

Early accept and Lemma 7 were ablated here too, at ~1x of full search;
they went with Algorithm 2's verifier, and every count is now exact.
"""

from __future__ import annotations

import pytest

from common import ResultTable, timed

from repro.core.index import PexesoIndex
from repro.core.search import AblationFlags, pexeso_search
from repro.core.thresholds import distance_threshold

TAU_FRACTION = 0.06
T = 0.6

CONFIGS = {
    "full": AblationFlags(),
    "no quick browsing": AblationFlags(quick_browsing=False),
}


def test_design_choice_ablation(swdc_dataset, benchmark):
    dataset = swdc_dataset
    index = PexesoIndex.build(dataset.vector_columns, n_pivots=3, levels=3)
    tau = distance_threshold(TAU_FRACTION, index.metric, dataset.dim)

    table = ResultTable(
        "Design-choice ablation (SWDC-like): seconds / distance computations",
        ["Config", "Search (s)", "Distance computations", "Columns verified"],
    )

    def run():
        out = {}
        reference_ids = None
        for name, flags in CONFIGS.items():
            def one_pass():
                return [
                    pexeso_search(index, q, tau, T, flags=flags)
                    for q in dataset.queries
                ]
            seconds, results = timed(one_pass, repeats=2)
            distances = sum(r.stats.distance_computations for r in results)
            verified = sum(r.stats.columns_verified for r in results)
            ids = [r.column_ids for r in results]
            if reference_ids is None:
                reference_ids = ids
            assert ids == reference_ids, f"{name} changed the result set"
            out[name] = (seconds, distances, verified)
            table.add(name, seconds, distances, verified)
        return out

    benchmark.pedantic(run, rounds=1, iterations=1)
    table.print_and_save("ablation_design_choices.md")


def test_pivot_selector_comparison(swdc_dataset, benchmark):
    dataset = swdc_dataset
    tau = distance_threshold(TAU_FRACTION, PexesoIndex().metric, dataset.dim)
    table = ResultTable(
        "Pivot selector comparison (SWDC-like): distance computations",
        ["Selector", "Distance computations"],
    )

    def run():
        out = {}
        for method in ("pca", "fft", "random"):
            index = PexesoIndex.build(
                dataset.vector_columns, n_pivots=5, levels=3,
                pivot_method=method, seed=5,
            )
            out[method] = sum(
                pexeso_search(index, q, tau, T).stats.distance_computations
                for q in dataset.queries
            )
            table.add(method, out[method])
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    table.print_and_save("ablation_pivot_selectors.md")
    # The informed selectors must not lose badly to random.
    assert out["pca"] <= out["random"] * 1.5
    assert out["fft"] <= out["random"] * 2.5
