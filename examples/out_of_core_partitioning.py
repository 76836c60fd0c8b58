"""Out-of-core search over a partitioned data lake (paper §IV).

The repository is clustered by column distribution (JSD k-means), one
PEXESO index is built per partition, and every partition is spilled to
disk in the array-native format; a search answers the whole query batch
per shard and fans shards out over a worker pool, with an LRU bounding
how many partitions are resident at once. Threshold results and the
sharded top-k are identical to a single in-memory index.

    python examples/out_of_core_partitioning.py
"""

import tempfile

from repro.core.index import PexesoIndex
from repro.core.out_of_core import PartitionedPexeso
from repro.core.persistence import load_partitioned
from repro.core.search import pexeso_search
from repro.core.thresholds import distance_threshold
from repro.core.topk import pexeso_topk
from repro.lake.datagen import DataLakeGenerator


def main() -> None:
    gen = DataLakeGenerator(seed=9, n_entities=200, dim=16)
    lake = gen.generate_lake(n_tables=200, rows_range=(8, 22))
    columns = lake.vector_columns()
    query_table, _ = gen.generate_query_table(n_rows=20, domain=1)
    query = gen.embedder.embed_column(query_table.column("key").values)
    tau = distance_threshold(0.06, PexesoIndex().metric, gen.dim)

    with tempfile.TemporaryDirectory() as spill_dir:
        lake_index = PartitionedPexeso(
            n_pivots=3, levels=3, n_partitions=8,
            partitioner="jsd", spill_dir=spill_dir,
            max_workers=4, lru_shards=2,
        ).fit(columns)
        # the spill directory is a complete lake as soon as fit returns
        spilled = load_partitioned(spill_dir).lru_info()["spilled"]
        print(f"{spilled} partitions spilled to disk, "
              f"resident memory: {lake_index.memory_bytes()} bytes")

        result = lake_index.search(query, tau, joinability=0.25)
        print(f"out-of-core search found {len(result)} joinable columns "
              f"({result.stats.distance_computations} distance computations, "
              f"{result.stats.shard_load_seconds:.3f}s loading shards)")

        # Cross-check against a single in-memory index.
        reference = PexesoIndex.build(columns, n_pivots=3, levels=3)
        in_memory = pexeso_search(reference, query, tau, 0.25)
        assert result.column_ids == in_memory.column_ids
        print("matches the single in-memory index exactly")

        # Ranked discovery across shards: each shard returns its own
        # top-5 and the lake merges them once by count, then column ID.
        ranked = lake_index.topk(query, tau, k=5)
        assert ranked.hits == pexeso_topk(reference, query, tau, 5).hits
        print("top-5 across shards:",
              [(cid, f"{jn:.2f}") for cid, _, jn in ranked.hits])


if __name__ == "__main__":
    main()
