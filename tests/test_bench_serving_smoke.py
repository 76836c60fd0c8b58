"""CI-size smoke test for the serving benchmark.

Runs ``benchmarks/bench_serving.py``'s comparison harness on a tiny lake
(seconds, not minutes) so the benchmark stays importable and its parity
checks — coalesced == serial hit for hit, cached replay == original,
every replay a cache hit — run in every test pass. The ≥2x speedup claim
is asserted at full benchmark scale (`pytest benchmarks/`) and in the CI
serving job (`python benchmarks/bench_serving.py`), where timings are
meaningful.
"""

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench_module():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import bench_serving

        yield bench_serving
    finally:
        sys.path.remove(str(BENCHMARKS))


def test_serving_comparison_runs_at_ci_size(bench_module):
    from common import make_dataset

    dataset = make_dataset(
        "smoke",
        n_tables=16,
        rows_range=(6, 14),
        dim=12,
        n_entities=40,
        n_queries=1,
        query_rows=8,
        seed=6,
    )
    out = bench_module.run_serving_comparison(
        dataset,
        n_clients=4,
        requests_per_client=3,
        n_pivots=2,
        levels=2,
        window_ms=2.0,
    )
    # run_serving_comparison asserts coalesced == serial (hit for hit)
    # and the cache-replay invariants internally; here we check the
    # report shape the benchmark table consumes.
    assert out["n_requests"] == 12
    assert out["serial_seconds"] > 0 and out["coalesced_seconds"] > 0
    assert out["mean_batch"] >= 1
    assert out["speedup"] > 0 and out["cache_speedup"] > 0
    # the per-stage breakdown rides into the BENCH json artifact
    assert "verify" in out["stage_seconds"]
    assert all(v >= 0 for v in out["stage_seconds"].values())


def test_sampled_out_tracing_records_nothing_and_keeps_hits(bench_module):
    """Sampled-out tracing is checked deterministically here: no span is
    recorded and every hit equals the untraced call's. Its wall-time
    share is only reported (a bound on sub-second work failed on a busy
    box); ``python benchmarks/bench_serving.py`` asserts it at bench size."""
    from common import make_dataset

    dataset = make_dataset(
        "trace-overhead",
        n_tables=16,
        rows_range=(6, 14),
        dim=12,
        n_entities=40,
        n_queries=1,
        query_rows=8,
        seed=7,
    )
    out = bench_module.run_tracing_overhead(
        dataset, n_requests=24, n_pivots=2, levels=2, repeats=5
    )
    assert out["spans_recorded"] == 0
    assert out["same_hits"]
    assert out["plain_seconds"] > 0 and out["traced_out_seconds"] > 0
    assert isinstance(out["overhead_pct"], float)


def test_bench_json_artifact_schema(bench_module, tmp_path, monkeypatch):
    """``write_bench_json`` — the artifact writer the serving, cluster and
    tail-latency benchmarks share."""
    import common

    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    path = common.write_bench_json("smoke_check", {"speedup": 2.0, "ok": True})
    assert path == tmp_path / "BENCH_smoke_check.json"
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["bench"] == "smoke_check"
    assert payload["metrics"] == {"speedup": 2.0, "ok": True}
    for key in ("unix_time", "python", "numpy"):
        assert key in payload
