"""Smoke test of the perf ledger: ``run.py --smoke`` on tiny lakes.

Every workload runs untraced, then ``cluster_2w`` (the stack with every
rung) runs traced, in one process with short windows and a thread-mode
cluster. The test asserts that every workload and metric named in
``BENCHMARK.json`` is reported with its unit and that every answer was
correct; it asserts no timing value.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_ledger_smoke(tmp_path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "ledger" / "run.py"),
         "--smoke", "--seed", "3", "--results-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    names = [w["name"] for w in benchmark["workloads"]]
    assert len(results) == len(names) + 1
    for name in names:
        assert any(line.startswith(f"== {name} ") for line in lines)
    assert (tmp_path / "trace_cluster_2w.json").exists()
    for result, declared in zip(
        results, [benchmark["end_to_end"]] * len(names) + [benchmark["per_layer"]]
    ):
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {
            metric: value["unit"] for metric, value in result["metrics"].items()
        } == {m["name"]: m["unit"] for m in declared}
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert any(
            line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"])
            for line in lines
        ), metric["name"]
