"""CI-size smoke test for the ANN recall/latency benchmark.

Runs ``benchmarks/bench_ann.py``'s sweep harness on a tiny lake to keep
the benchmark importable and its invariants — zero false positives at
every beam width, recall measured against the exact engine — exercised
in every test run. The headline claims (verified-columns ratio <= 50%
and mean recall at the default beam) are asserted at full benchmark
scale (`pytest benchmarks/`) and in the CI ann-smoke job (`python
benchmarks/bench_ann.py`), where the lake is big enough for the default
beam to be a real cut.
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
        import bench_ann

        yield bench_ann
    finally:
        sys.path.remove(str(BENCHMARKS))


def test_ann_curve_runs_at_ci_size(bench_module):
    from common import make_dataset

    dataset = make_dataset(
        "smoke",
        n_tables=24,
        rows_range=(6, 14),
        dim=12,
        n_entities=40,
        n_queries=1,
        query_rows=8,
        seed=7,
    )
    out = bench_module.run_ann_curve(
        dataset,
        n_queries=4,
        query_rows=8,
        ef_values=(2, 8, len(dataset.vector_columns)),
        n_pivots=2,
        levels=2,
    )
    # run_ann_curve asserts zero false positives internally; here we
    # check the curve shape the report and JSON artifact consume.
    assert out["n_queries"] == 4
    assert len(out["curve"]) == 3
    for row in out["curve"]:
        assert 0.0 <= row["min_recall"] <= row["recall"] <= 1.0
        assert row["latency_s"] > 0
        assert 0.0 <= row["verified_ratio"]
    # the beam covering the whole lake degenerates to exact
    full = out["curve"][-1]
    assert full["recall"] == 1.0
    assert full["columns_verified"] == out["exact_columns_verified"]


def test_bench_json_artifact_schema(bench_module, tmp_path, monkeypatch):
    """``write_bench_json`` — the artifact writer ``bench_ann`` and the
    serving / cluster / tail-latency benchmarks share."""
    import common

    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    path = common.write_bench_json("smoke_check", {"speedup": 2.0, "ok": True})
    assert path == tmp_path / "BENCH_smoke_check.json"
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["bench"] == "smoke_check"
    assert payload["metrics"] == {"speedup": 2.0, "ok": True}
    for key in ("unix_time", "python", "numpy", "kernel_backend"):
        assert key in payload
