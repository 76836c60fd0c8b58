"""The perf ledger's one command.

    python3 benchmarks/ledger/run.py --seed S [--workload W] [--trace 0|1]
                                     [--seconds N] [--results-dir DIR]
                                     [--check-repeat] [--smoke]

One workload per process (peak RSS is per process): without
``--workload`` every workload runs in a subprocess of its own. Each run
prints every metric by name with its unit, checks answers against the
exhaustive oracle, ends with one JSON line
(``correct``/``attempted``/``failed``/``metrics``) and exits non-zero on
a wrong answer. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# OpenBLAS's default thread pool stalls the first SVDs of a process by
# ~0.2 s on small boxes, which makes set-up times bimodal; pin it (worker
# processes inherit the setting). An explicit setting is respected.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ladder  # noqa: E402
from lakes import LakeGenerator, smoke_spec  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from window import (  # noqa: E402
    ORACLE_STREAM, ClientDriver, Verdict, median_ms, oracle_check, pooled, run_window,
)
from workloads import WORKLOADS, Workload, dir_bytes  # noqa: E402

WORK = ROOT / ".bench_work"
ALL = tuple(WORKLOADS)

#: The end-to-end metrics: unit, direction, bound (the relative worsening that
#: counts as a regression; absolute for ``failed_share``) and the workloads on
#: which ``--check-repeat`` holds single runs to it. Off its list a metric's
#: spread over ten seeds (interquartile range / median) went past the bound in
#: at least one of three sets on this box, and a noisy gate is worse than a
#: missing one; if ``BENCHMARK.json`` does not gate it either, it is printed as
#: ``tail.<name>``. ``BENCHMARK.json`` can only name metrics that every run of
#: every workload reports and that are never 0; the driver holds them to their
#: median over ten runs, which is far steadier than a single run.
_INPROC = ("short_cols_inproc", "long_cols_inproc")
END_TO_END = {
    # allocation-heavy, so a slow spell of the box costs it 50%: single runs
    # scatter by 0.1-0.5 on every workload, ten-run medians by at most 0.12
    "setup_s": ("s", "lower", 0.25, ()),
    "search_p50_ms": ("ms", "lower", 0.25,
                      _INPROC + ("spill_inproc_mixed", "serve_http_mixed")),
    # printed only from >= 100 samples
    "search_p90_ms": ("ms", "lower", 0.25, _INPROC),
    "search_qps": ("1/s", "higher", 0.25,
                   _INPROC + ("spill_inproc_mixed", "serve_http_mixed")),
    "batch_qps": ("1/s", "higher", 0.25, _INPROC + ("spill_inproc_mixed",)),
    "write_p50_ms": ("ms", "lower", 0.25, _INPROC + ("cluster_2w",)),
    "peak_rss_mb": ("MB", "lower", 0.10, ALL),
    "index_bytes_per_vector": ("B", "lower", 0.0, ALL),
    "stored_bytes_ratio": ("ratio", "lower", 0.0,
                           ("spill_inproc_mixed", "serve_http_mixed", "cluster_2w")),
    "failed_share": ("ratio", "lower", 0.0, ALL),
}

#: timed set-ups per run: at least MIN, then more while the budget (set-up and
#: tear-down time) lasts. The box stalls for half a second at a time, so a cheap
#: set-up is repeated over seconds, not a fixed number of times.
MIN_SETUPS, SETUP_BUDGET_SECONDS = 3, 3.0
WARMUP_SECONDS = 1.0
N_ORACLE = 16
N_REVERIFY = 32
#: a p90 needs ten samples beyond it
MIN_P90_SAMPLES = 100


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """What one run is given: the traffic seed, the window, where result files go."""

    benchmark: dict  #: BENCHMARK.json
    seed: int
    seconds: float
    smoke: bool
    results_dir: Path


def peak_rss_mb() -> float:
    """Peak RSS (``VmHWM``) of this process plus its live descendants."""
    parents: dict[int, int] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we were looking
        parents[int(stat.parent.name)] = int(fields[1])
    family = {os.getpid()}
    grew = True
    while grew:
        grew = False
        for pid, parent in parents.items():
            if parent in family and pid not in family:
                family.add(pid)
                grew = True
    total_kb = 0
    for pid in family:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def set_up_repeatedly(workload: Workload, spec, columns, reference, workdir: Path,
                      smoke: bool, verdict: Verdict):
    """Timed set-ups (raw columns in memory to first answer); the last one stays up."""
    seconds: list[float] = []
    live = None
    began = time.perf_counter()
    while len(seconds) < (1 if smoke else MIN_SETUPS) or (
        not smoke and time.perf_counter() - began < SETUP_BUDGET_SECONDS
    ):
        if live is not None:
            live.close()
            live = None  # freed before the next is built: one index at a time
        started = time.perf_counter()
        live = workload.system(spec, columns, workdir / f"setup{len(seconds)}", smoke=smoke)
        try:
            first = live.client().search(reference)
        except BaseException:
            live.close()
            raise
        seconds.append(time.perf_counter() - started)
        verdict.check(first, reference, columns, spec)
    return live, seconds


def run_untraced(workload: Workload, cfg: RunConfig, workdir: Path) -> dict:
    """Set up (repeatedly), warm up, measure one window, verify; tracing off."""
    spec = smoke_spec(workload.lake) if cfg.smoke else workload.lake
    gen = LakeGenerator(spec, cfg.seed)
    columns = gen.columns
    oracle_queries = gen.queries(N_ORACLE, stream=ORACLE_STREAM)
    verdict = Verdict()
    recorder = SpanRecorder(enabled=False)
    system = None
    try:
        system, setup_seconds = set_up_repeatedly(
            workload, spec, columns, gen.reference_query(), workdir, cfg.smoke, verdict
        )
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "index_bytes_per_vector": system.index_bytes / system.n_vectors,
        }
        if system.stored_dir is not None:
            metrics["stored_bytes_ratio"] = (
                dir_bytes(system.stored_dir) / sum(c.nbytes for c in columns)
            )
        drivers = [
            ClientDriver(system.client(), workload, gen, number, recorder)
            for number in range(workload.n_clients)
        ]
        oracle_check(drivers[0].client, oracle_queries, columns, spec, verdict)
        run_window(drivers, 0.1 if cfg.smoke else WARMUP_SECONDS)
        for driver in drivers:
            driver.reset()
        window_seconds = run_window(drivers, cfg.seconds)
        for driver in drivers:
            driver.drain()
        oracle_check(drivers[0].client, oracle_queries, columns, spec, verdict)

        # a seeded sample of in-window replies, re-verified on the base columns
        replies = [r for d in drivers for r in d.replies]
        rng = np.random.default_rng([cfg.seed, 9])
        for i in rng.permutation(len(replies))[:N_REVERIFY]:
            query, hits = replies[i]
            verdict.check(hits, query, columns, spec)

        metrics["peak_rss_mb"] = peak_rss_mb()
    finally:
        if system is not None:
            system.close()
        shutil.rmtree(workdir, ignore_errors=True)

    verdict.attempted += sum(d.attempted for d in drivers)
    verdict.failed += sum(d.errors for d in drivers)
    singles = pooled(drivers, "search", "hot")
    batches = pooled(drivers, "batch")
    writes = pooled(drivers, "add", "delete")
    metrics["search_p50_ms"] = median_ms(singles)
    if len(singles) >= MIN_P90_SAMPLES:
        metrics["search_p90_ms"] = float(np.percentile(singles, 90)) * 1000.0
    # a client that also runs batches searches for part of the window only: the
    # seconds inside its single searches; otherwise the window
    metrics["search_qps"] = len(singles) / (sum(singles) if batches else window_seconds)
    if batches:
        metrics["batch_qps"] = sum(d.batch_columns for d in drivers) / sum(batches)
    metrics["write_p50_ms"] = median_ms(writes)
    metrics["failed_share"] = verdict.failed / verdict.attempted
    notes = {
        "samples": {
            "search": len(pooled(drivers, "search")), "hot": len(pooled(drivers, "hot")),
            "batch": len(batches), "add": len(pooled(drivers, "add")),
            "delete": len(pooled(drivers, "delete")), "setup": len(setup_seconds),
        },
        "window_seconds": window_seconds,
    }
    return {"verdict": verdict, "metrics": metrics, "notes": notes}


def check_declared(benchmark: dict) -> None:
    """``BENCHMARK.json`` must agree with this file and with the workloads."""
    if [w["name"] for w in benchmark["workloads"]] != list(WORKLOADS):
        raise RuntimeError("workloads do not match BENCHMARK.json")
    for m in benchmark["end_to_end"]:
        if END_TO_END.get(m["name"], ())[:3] != (m["unit"], m["better"], m["bound"]):
            raise RuntimeError(f"{m['name']} does not match BENCHMARK.json")


def run_workload(name: str, traced: bool, cfg: RunConfig) -> bool:
    """One workload, one mode: prints the report and the result line; true when correct."""
    workload = WORKLOADS[name]
    workdir = WORK / f"{name}-{os.getpid()}"
    if traced:
        out = ladder.run_traced(workload, cfg, workdir)
    else:
        out = run_untraced(workload, cfg, workdir)
    metrics, verdict = out["metrics"], out["verdict"]
    declared = cfg.benchmark["per_layer" if traced else "end_to_end"]
    missing = {m["name"] for m in declared} - set(metrics)
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json are missing: {sorted(missing)}")
    if traced:
        report = {m["name"]: (metrics[m["name"]], m["unit"]) for m in declared}
    else:
        gated = {m["name"] for m in declared}
        report = {
            (metric if name in on or metric in gated else "tail." + metric):
                (metrics[metric], unit)
            for metric, (unit, _, _, on) in END_TO_END.items() if metric in metrics
        }
    print(f"== {name} seed={cfg.seed} seconds={cfg.seconds:g} "
          f"{'traced' if traced else 'untraced'}")
    for metric, (value, unit) in report.items():
        print(f"{metric:<44} {value:>16.6g} {unit}")
    print(f"# attempted={verdict.attempted} failed={verdict.failed} "
          f"correct={verdict.failed == 0}")
    notes = {**out["notes"], "report": {metric: value for metric, (value, _) in report.items()}}
    print(f"# notes: {json.dumps(notes)}")
    # the contract's result line: exactly these four keys
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }), flush=True)
    return verdict.failed == 0


def run_in_subprocess(name: str, traced: bool, cfg: RunConfig) -> dict:
    """One workload in a process of its own; relays its report, returns its result."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(cfg.seed), "--seconds", str(cfg.seconds),
        "--trace", str(int(traced)), "--results-dir", str(cfg.results_dir),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        print(done.stdout)
        raise RuntimeError(f"{name} exited with code {done.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    result["notes"] = json.loads(lines[-2].removeprefix("# notes: "))
    return result


def run_all(traced: bool, cfg: RunConfig) -> dict:
    """Every workload, each in its own process; writes the combined results file."""
    combined = {
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "traced": traced,
        "workloads": {
            name: run_in_subprocess(name, traced, cfg) for name in WORKLOADS
        },
    }
    cfg.results_dir.mkdir(parents=True, exist_ok=True)
    target = cfg.results_dir / ("layers.json" if traced else "latest.json")
    target.write_text(json.dumps(combined, indent=1) + "\n")
    print(f"wrote {target}")
    return combined["workloads"]


def check_repeat(cfg: RunConfig) -> bool:
    """Two untraced sets, workloads interleaved; each metric's difference beside its bound."""
    first, second = (run_all(False, cfg) for _ in range(2))
    report: dict[str, dict] = {}
    within_bounds = True
    print(f"{'workload':<20} {'metric':<24} {'first':>12} {'second':>12} "
          f"{'diff':>8} {'bound':>6}")
    for name in WORKLOADS:
        for metric, (_, _, bound, on) in END_TO_END.items():
            a, b = (s[name]["notes"]["report"].get(metric) for s in (first, second))
            if name not in on or a is None or b is None:
                continue
            difference = abs(a - b) / a if a else abs(b)
            within = difference <= bound
            within_bounds = within_bounds and within
            report.setdefault(name, {})[metric] = {
                "first": a, "second": b, "relative_difference": difference,
                "bound": bound, "within": within,
            }
            print(f"{name:<20} {metric:<24} {a:>12.5g} {b:>12.5g} "
                  f"{difference:>8.3f} {bound:>6.2f}{'' if within else '  OUTSIDE'}")
    correct = all(s[name]["correct"] for s in (first, second) for name in WORKLOADS)
    target = cfg.results_dir / "repeat.json"
    target.write_text(json.dumps({
        "seed": cfg.seed, "seconds": cfg.seconds,
        "correct": correct, "within_bounds": within_bounds, "workloads": report,
    }, indent=1) + "\n")
    print(f"wrote {target}")
    return within_bounds and correct


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declared(benchmark)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the traffic (the lake is a frozen dataset)")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (layer ladder) instead of the window")
    parser.add_argument("--results-dir", type=Path, default=WORK / "results")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny lakes, in this process: every workload untraced, "
                             "then the ladder on cluster_2w")
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    cfg = RunConfig(
        benchmark=benchmark, seed=args.seed, seconds=0.3 if args.smoke else args.seconds,
        smoke=args.smoke, results_dir=args.results_dir,
    )
    if args.smoke:
        correct = [run_workload(name, False, cfg) for name in WORKLOADS]
        correct.append(run_workload("cluster_2w", True, cfg))
        return 0 if all(correct) else 1
    if args.check_repeat:
        return 0 if check_repeat(cfg) else 1
    if args.workload is None:
        return 0 if all(r["correct"] for r in run_all(traced, cfg).values()) else 1
    return 0 if run_workload(args.workload, traced, cfg) else 1


if __name__ == "__main__":
    sys.exit(main())
