"""Seeded lake and query generator of the perf ledger (NumPy only).

Self-contained on purpose: it imports neither ``repro.lake.datagen`` nor
``benchmarks/common.py``, so a change to either cannot silently change
what the ledger's workloads run.

The model is the paper's setting reduced to vectors: a lake is a set of
*domains* (clusters of unit-norm entity embeddings); a column samples
entities of one domain and perturbs each with a small jitter (the
"misspelling" of a value); a query column is drawn the same way. Two
draws of one entity lie about ``jitter * sqrt(2)`` apart (well inside
tau), two entities of one domain about ``spread * sqrt(2)`` apart (well
outside it), so a column is joinable to a query exactly when they share
enough entities.

The lake is a frozen dataset: it is drawn from ``LAKE_SEED``, not from the
run's seed. The run's seed draws the traffic — queries, hot set, write
columns. Measured on this box, redrawing the lake moves single-search
latency by about +-10% (pivots and grid occupancy change), more than a
regression gate can absorb; redrawing the traffic moves it far less.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class LakeSpec:
    """Shape and search thresholds of one benchmark lake (frozen constants)."""

    name: str
    n_columns: int
    rows_min: int
    rows_max: int
    dim: int
    n_domains: int
    entities_per_domain: int
    spread: float  #: entity distance from its domain centre
    jitter: float  #: perturbation of an entity each time it is sampled
    tau_fraction: float  #: tau as a share of the maximum distance (2.0)
    joinability: float  #: T as a share of the query column's rows
    query_rows: int
    n_pivots: int = 5  #: PexesoIndex default
    levels: int = 4  #: PexesoIndex default

    @property
    def tau(self) -> float:
        """Absolute distance threshold (unit vectors: max distance 2)."""
        return self.tau_fraction * 2.0


#: short columns: many small columns, low dimension — the blocker's lake
SHORT = LakeSpec(
    name="short",
    n_columns=480,
    rows_min=8,
    rows_max=25,
    dim=16,
    n_domains=16,
    entities_per_domain=60,
    spread=0.45,
    jitter=0.02,
    tau_fraction=0.06,
    joinability=0.3,
    query_rows=20,
)

#: long columns: few big columns, high dimension — the verifier's lake
LONG = LakeSpec(
    name="long",
    n_columns=72,
    rows_min=500,
    rows_max=900,
    dim=64,
    n_domains=6,
    entities_per_domain=2000,
    spread=0.45,
    jitter=0.02,
    tau_fraction=0.10,
    joinability=0.3,
    query_rows=12,
)


#: the dataset seed every committed number was measured on
LAKE_SEED = 0


def smoke_spec(spec: LakeSpec) -> LakeSpec:
    """A tiny lake of the same kind, for the smoke test only."""
    return replace(
        spec,
        n_columns=24,
        rows_min=min(spec.rows_min, 6),
        rows_max=min(spec.rows_max, 12),
        n_domains=3,
        entities_per_domain=16,
        query_rows=8,
    )


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class LakeGenerator:
    """All inputs of one run: the lake from ``LAKE_SEED``, the traffic from ``seed``.

    ``columns`` is the base lake; :meth:`queries` and :meth:`extra_columns`
    draw further columns from the same domains (each call with its own
    stream, so asking for more queries never changes anything else).
    """

    def __init__(self, spec: LakeSpec, seed: int):
        self.spec = spec
        self.seed = int(seed)
        rng = np.random.default_rng([LAKE_SEED, 0])
        centres = _unit(rng.standard_normal((spec.n_domains, spec.dim)))
        noise = rng.standard_normal(
            (spec.n_domains, spec.entities_per_domain, spec.dim)
        ) / np.sqrt(spec.dim)
        #: (n_domains, entities_per_domain, dim) unit-norm entity vectors
        self.entities = np.stack(
            [_unit(centres[d] + spec.spread * noise[d]) for d in range(spec.n_domains)]
        )
        span = spec.rows_max - spec.rows_min + 1
        sizes = spec.rows_min + (np.arange(spec.n_columns) * 7) % span
        sizes = rng.permutation(sizes)
        domains = rng.permutation(np.arange(spec.n_columns) % spec.n_domains)
        self.columns = [
            self._draw(rng, int(d), int(n)) for d, n in zip(domains, sizes)
        ]

    def _draw(self, rng: np.random.Generator, domain: int, rows: int) -> np.ndarray:
        pool = self.spec.entities_per_domain
        picks = rng.choice(pool, size=rows, replace=rows > pool)
        vectors = self.entities[domain, picks]
        vectors = vectors + self.spec.jitter * rng.standard_normal(
            vectors.shape
        ) / np.sqrt(self.spec.dim)
        return _unit(vectors)

    def query_stream(self, stream: int):
        """An endless stream of distinct query columns.

        The domains are visited round-robin from a seeded start. What a
        search costs is set mostly by the query's domain (where it falls
        among the pivots: 25 to 80 ms on the short lake) and little by the
        entities drawn within it, so an even walk keeps the query mix of
        any stretch of a run the same.
        """
        rng = np.random.default_rng([self.seed, stream])
        domain = int(rng.integers(self.spec.n_domains))
        while True:
            yield self._draw(rng, domain, self.spec.query_rows)
            domain = (domain + 1) % self.spec.n_domains

    def queries(self, n: int, stream: int) -> list[np.ndarray]:
        """The first ``n`` query columns of one stream."""
        return list(itertools.islice(self.query_stream(stream), n))

    def reference_query(self) -> np.ndarray:
        """One query that is the same for every seed (set-up's first answer)."""
        rng = np.random.default_rng([LAKE_SEED, 1])
        return self._draw(rng, 0, self.spec.query_rows)

    def extra_columns(self, n: int, stream: int) -> list[np.ndarray]:
        """``n`` further repository columns of one (middle) size, for the write schedule."""
        rng = np.random.default_rng([self.seed, stream])
        rows = (self.spec.rows_min + self.spec.rows_max) // 2
        return [self._draw(rng, d % self.spec.n_domains, rows) for d in range(n)]
