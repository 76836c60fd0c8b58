"""Shared machinery for the paper-reproduction benchmarks.

Each benchmark module regenerates one table or figure of the paper's §VI.
Datasets are downsized analogues of the paper's corpora (same comparative
structure, laptop-scale sizes):

* **OPEN-like** — few columns, many rows per column, higher-dimensional
  embeddings (the paper: 21.6K columns x 796 rows, fastText-300).
* **SWDC-like** — many columns, short columns, lower-dimensional
  embeddings (the paper: 516K columns x 16.7 rows, GloVe-50).
* **LWDC-like** — the larger out-of-core variant, searched through
  disk-spilled partitions.

Results are printed in the paper's row format and also written as
markdown under ``benchmarks/results/`` so EXPERIMENTS.md can reference
stable artefacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from repro.lake.datagen import DataLakeGenerator, GeneratedLake

RESULTS_DIR = Path(__file__).parent / "results"


@dataclass
class BenchDataset:
    """One benchmark repository plus its query workload."""

    name: str
    gen: DataLakeGenerator
    lake: GeneratedLake
    vector_columns: list[np.ndarray]
    #: query vector columns (embedded) with their ground-truth entities
    queries: list[np.ndarray]
    query_entities: list[list]

    @property
    def n_vectors(self) -> int:
        return sum(c.shape[0] for c in self.vector_columns)

    @property
    def dim(self) -> int:
        return self.vector_columns[0].shape[1]


def make_dataset(
    name: str,
    n_tables: int,
    rows_range: tuple[int, int],
    dim: int,
    n_entities: int,
    n_queries: int = 3,
    query_rows: int = 20,
    seed: int = 0,
) -> BenchDataset:
    """Generate a dataset with the given shape profile."""
    gen = DataLakeGenerator(seed=seed, dim=dim, n_entities=n_entities)
    lake = gen.generate_lake(n_tables=n_tables, rows_range=rows_range)
    vector_columns = lake.vector_columns()
    queries = []
    query_entities = []
    for i in range(n_queries):
        table, entities = gen.generate_query_table(
            n_rows=query_rows, domain=i, name=f"query_{i}"
        )
        queries.append(gen.embedder.embed_column(table.column("key").values))
        query_entities.append(entities)
    return BenchDataset(
        name=name,
        gen=gen,
        lake=lake,
        vector_columns=vector_columns,
        queries=queries,
        query_entities=query_entities,
    )


def open_like(seed: int = 0, scale: float = 1.0) -> BenchDataset:
    """OPEN profile: long columns, 32-dim embeddings."""
    return make_dataset(
        "OPEN-like",
        n_tables=max(4, int(40 * scale)),
        rows_range=(60, 140),
        dim=32,
        n_entities=220,
        query_rows=25,
        seed=seed,
    )


def swdc_like(seed: int = 1, scale: float = 1.0) -> BenchDataset:
    """SWDC profile: many short columns, 16-dim embeddings."""
    return make_dataset(
        "SWDC-like",
        n_tables=max(8, int(240 * scale)),
        rows_range=(8, 25),
        dim=16,
        n_entities=160,
        query_rows=20,
        seed=seed,
    )


def lwdc_like(seed: int = 2, scale: float = 1.0) -> BenchDataset:
    """LWDC profile: the biggest repository, used for out-of-core runs."""
    return make_dataset(
        "LWDC-like",
        n_tables=max(16, int(480 * scale)),
        rows_range=(8, 22),
        dim=16,
        n_entities=300,
        query_rows=20,
        seed=seed,
    )


def make_query_batch(dataset, n_queries: int, query_rows: int = 20):
    """Embed ``n_queries`` generated query tables over the dataset's domains."""
    queries = []
    for i in range(n_queries):
        table, _ = dataset.gen.generate_query_table(
            n_rows=query_rows, domain=i % 5, name=f"batch_query_{i}"
        )
        queries.append(dataset.gen.embedder.embed_column(table.column("key").values))
    return queries


def timed(fn: Callable[[], object], repeats: int = 1) -> tuple[float, object]:
    """Run ``fn`` ``repeats`` times; return (mean seconds, last result)."""
    took = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        took.append(time.perf_counter() - started)
    return float(np.mean(took)), result


class ResultTable:
    """Collects rows, prints a paper-style table and saves markdown."""

    def __init__(self, title: str, headers: Sequence[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: list[list[str]] = []

    def add(self, *cells) -> None:
        self.rows.append([self._fmt(c) for c in cells])

    @staticmethod
    def _fmt(cell) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 100:
                return f"{cell:.0f}"
            if abs(cell) >= 1:
                return f"{cell:.2f}"
            return f"{cell:.4f}"
        return str(cell)

    def render(self) -> str:
        widths = [
            max(len(self.headers[i]), *(len(r[i]) for r in self.rows)) if self.rows
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = [f"## {self.title}", ""]
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("-|-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def print_and_save(self, filename: str) -> None:
        text = self.render()
        print("\n" + text + "\n")
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        out = RESULTS_DIR / filename
        header = "| " + " | ".join(self.headers) + " |"
        sep = "|" + "|".join("---" for _ in self.headers) + "|"
        body = "\n".join("| " + " | ".join(r) + " |" for r in self.rows)
        out.write_text(f"# {self.title}\n\n{header}\n{sep}\n{body}\n")


def precision_recall(
    retrieved: set[int], truth: set[int], pool: Optional[set[int]] = None
) -> tuple[float, float]:
    """Precision/recall of one query's retrieved table set.

    With ``pool`` given, recall follows the paper's pooled protocol
    (denominator = relevant tables inside the union of all competitors'
    results); otherwise the generator's exact ground truth is used.
    """
    if retrieved:
        precision = len(retrieved & truth) / len(retrieved)
    else:
        # no retrievals -> no false positives; precision is vacuously 1
        precision = 1.0
    denominator = truth & pool if pool is not None else truth
    if denominator:
        recall = len(retrieved & denominator) / len(denominator)
    else:
        recall = 1.0
    return precision, recall


def write_bench_json(name: str, metrics: dict) -> Path:
    """Write one benchmark's machine-readable trajectory artifact.

    Emits ``benchmarks/results/BENCH_<name>.json`` holding the given
    metrics plus environment provenance (python / numpy versions), so CI
    runs accumulate a comparable time series next to the
    human-readable markdown tables. Returns the path written.
    """
    import json
    import platform

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": 1,
        "bench": name,
        "unix_time": time.time(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "metrics": metrics,
    }
    out = RESULTS_DIR / f"BENCH_{name}.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return out
