"""Crash-durability of the persisted layouts.

A writer process is SIGKILLed at controlled points in the middle of live
maintenance (add / delete + re-spill). Whatever instant the kill lands
at, reloading the on-disk lake must yield a *complete, loadable* index
state — either pre- or post-mutation, never a torn one. This is the
behavioural contract behind the v3 epoch-directory + atomic-manifest
design, exercised end to end with real processes rather than mocks.

The kill instant of those tests is random; :class:`TestEnumeratedCrashPoints`
makes it exhaustive instead: a shim counts every write boundary
:mod:`repro.core.persistence` crosses (``atomic_write_text``,
``atomic_write_array``, the epoch sweep) and crashes just before or
just after the n-th, for every n of add, delete, ``fit(spill_dir=)`` and
``save_partitioned`` over an existing lake.

Also covered: recovery from truncated / temp-file debris that a crashed
writer can leave next to the manifests.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import persistence
from repro.core.index import PexesoIndex
from repro.core.out_of_core import PartitionedPexeso
from repro.core.persistence import (
    load_index,
    load_partitioned,
    save_index,
    save_partitioned,
)

SRC = Path(__file__).resolve().parents[2] / "src"

# The writer loops save-mutate-save forever; the test kills it at a
# random instant. Stdout lines mark completed saves so the test knows a
# mutation epoch definitely hit the disk before the kill.
WRITER = """
import sys
import numpy as np
from repro.core.out_of_core import PartitionedPexeso
from repro.core.persistence import load_partitioned

lake_dir = sys.argv[1]
lake = load_partitioned(lake_dir)
rng = np.random.default_rng(1234)
added = []
i = 0
while True:
    gid = lake.add_column(rng.normal(size=(4, 6)))
    added.append(gid)
    print(f"added {gid}", flush=True)
    if i % 3 == 2 and added:
        victim = added.pop(0)
        lake.delete_column(victim)
        print(f"deleted {victim}", flush=True)
    i += 1
"""


@pytest.fixture()
def columns():
    rng = np.random.default_rng(42)
    return [rng.normal(size=(rng.integers(4, 9), 6)) for _ in range(9)]


@pytest.fixture()
def saved_lake(columns, tmp_path):
    lake_dir = tmp_path / "lake"
    lake = PartitionedPexeso(
        n_pivots=3, levels=3, n_partitions=3, seed=3, spill_dir=lake_dir
    ).fit(columns)
    save_partitioned(lake, lake_dir)
    return lake_dir


def _run_writer_and_kill(lake_dir: Path, kill_after_lines: int) -> list[str]:
    """Start the mutating writer, SIGKILL it mid-flight, return its log."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.Popen(
        [sys.executable, "-c", WRITER, str(lake_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    lines: list[str] = []
    try:
        deadline = time.monotonic() + 60
        while len(lines) < kill_after_lines:
            line = proc.stdout.readline()
            if line:
                lines.append(line.strip())
            elif proc.poll() is not None or time.monotonic() > deadline:
                break
        # Kill without warning — mid-write with high likelihood, since
        # the writer spends most of its time inside save paths.
        proc.kill()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait()
    assert lines, f"writer produced no output: {proc.stderr.read()}"
    return lines


class TestSigkillDuringMaintenance:
    @pytest.mark.parametrize("kill_after_lines", [1, 3, 6])
    def test_lake_reloads_consistently_after_kill(
        self, saved_lake, kill_after_lines
    ):
        log = _run_writer_and_kill(saved_lake, kill_after_lines)
        lake = load_partitioned(saved_lake)  # must not raise

        # Every acknowledged add whose manifest refresh completed is
        # either fully present (searchable, vectors intact) or — if the
        # kill landed between spill and manifest refresh — absent as a
        # unit. Torn states (manifest knows the column but the shard
        # does not, or vice versa) must be impossible.
        live = {
            int(g)
            for part_cols in lake.partition_columns
            for g in part_cols
            if g >= 0 and g not in lake._deleted_ids
        }
        for gid in sorted(live):
            vectors = lake.column_vectors(gid)  # raises on a torn shard
            assert vectors.ndim == 2
        deleted = {
            int(line.split()[1]) for line in log if line.startswith("deleted")
        }
        # A delete's shard write lands before its manifest refresh, so a
        # delete acknowledged in the log may or may not have reached the
        # manifest — but an ID the manifest tombstones must stay gone.
        for gid in lake._deleted_ids:
            assert gid not in live
        assert deleted is not None  # log parsed

        # And the reloaded lake must still answer searches.
        query = np.random.default_rng(0).normal(size=(5, 6))
        lake.search(query, 0.8, 0.2)

    def test_repeated_kill_reload_cycles(self, saved_lake):
        """Several kill/reload rounds in sequence never wedge the lake."""
        for round_ in range(3):
            _run_writer_and_kill(saved_lake, kill_after_lines=2)
            lake = load_partitioned(saved_lake)
            query = np.random.default_rng(round_).normal(size=(4, 6))
            lake.search(query, 0.8, 0.2)


class TestTruncatedManifestRecovery:
    """Debris a crashed writer can leave must not break later loads."""

    def test_leftover_manifest_temp_is_ignored(self, columns, tmp_path):
        target = tmp_path / "idx"
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        save_index(index, target)
        # Simulate a crash inside atomic_write_text: temp file written,
        # os.replace never ran.
        (target / "manifest.json.tmp-1-abcd1234").write_text('{"trunc')
        loaded = load_index(target)
        assert loaded.n_columns == index.n_columns
        save_index(loaded, target)
        assert not list(target.glob("*.tmp-*"))

    def test_leftover_array_temp_is_ignored(self, columns, tmp_path):
        target = tmp_path / "idx"
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        save_index(index, target)
        manifest = json.loads((target / "manifest.json").read_text())
        arrays_dir = target / manifest["arrays_dir"]
        (arrays_dir / "vectors.npy.tmp-1-deadbeef").write_bytes(b"\x00" * 16)
        loaded = load_index(target)
        assert loaded.n_vectors == index.n_vectors

    def test_truncated_lake_manifest_temp_next_to_good_manifest(
        self, saved_lake
    ):
        (saved_lake / "partitioned.json.tmp-7-00ff00ff").write_text("{")
        lake = load_partitioned(saved_lake)
        assert lake.n_columns > 0

    def test_interrupted_epoch_swap_keeps_old_index_loadable(
        self, columns, tmp_path
    ):
        """Kill point: new epoch dir fully written, manifest flip never
        ran. The old epoch is only swept *after* the flip, so the
        directory must still load as the *old* index."""
        import shutil

        target = tmp_path / "idx"
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        save_index(index, target)
        manifest = json.loads((target / "manifest.json").read_text())
        # Replay save_index up to (but not including) the manifest flip:
        # a complete next-epoch directory appears beside the live one.
        shutil.copytree(
            target / manifest["arrays_dir"], target / "arrays_v3_00000001"
        )
        loaded = load_index(target)
        assert loaded.n_columns == index.n_columns
        # The next successful save reclaims the orphan epoch.
        save_index(loaded, target)
        surviving = {p.name for p in target.iterdir() if p.is_dir()}
        assert len(surviving) == 1

    def test_killed_initial_save_leaves_unloadable_not_torn(
        self, columns, tmp_path
    ):
        """A first-ever save killed before the manifest flip leaves a
        directory with no manifest — a clean FileNotFoundError, not a
        half-index."""
        target = tmp_path / "idx"
        target.mkdir()
        (target / "arrays_v3_00000000").mkdir()
        (target / "arrays_v3_00000000" / "vectors.npy").write_bytes(b"x")
        with pytest.raises(FileNotFoundError):
            load_index(target)


# -- enumerated crash points ------------------------------------------------------

#: the write boundaries, as repro.core.persistence binds them
BOUNDARIES = ("atomic_write_text", "atomic_write_array", "_sweep_stale_epochs")

LAKE_KWARGS = dict(n_pivots=3, levels=3, n_partitions=3, seed=3)
_rng = np.random.default_rng(77)
#: a different lake (7 columns, not 9) that fit / save write over the saved one
NEW_COLUMNS = [_rng.normal(size=(int(_rng.integers(4, 9)), 6)) for _ in range(7)]
ADDED = _rng.normal(size=(5, 6))
VICTIM = 4
QUERIES = [_rng.normal(size=(5, 6)), ADDED[:3], NEW_COLUMNS[1][:3]]

OPERATIONS = {
    "add": lambda d: load_partitioned(d).add_column(ADDED),
    "delete": lambda d: load_partitioned(d).delete_column(VICTIM),
    "fit": lambda d: PartitionedPexeso(spill_dir=d, **LAKE_KWARGS).fit(NEW_COLUMNS),
    "save": lambda d: save_partitioned(
        PartitionedPexeso(**LAKE_KWARGS).fit(NEW_COLUMNS), d
    ),
}


class Crash(BaseException):
    """A simulated kill (a BaseException, so no ``except Exception`` eats it)."""


class BoundaryShim:
    """Counts persistence's write boundaries; crashes around the n-th.

    With ``crash_at=None`` it only counts (a dry run). Otherwise the
    ``crash_at``-th boundary (1-based) raises :class:`Crash` just before
    it runs, or just after it completed when ``after`` is set.
    """

    def __init__(self, monkeypatch, crash_at=None, after=False):
        self.crash_at = crash_at
        self.after = after
        self.calls: list[str] = []
        for name in BOUNDARIES:
            real = getattr(persistence, name)
            monkeypatch.setattr(persistence, name, self._wrap(name, real))

    def _wrap(self, name, real):
        def boundary(*args, **kwargs):
            self.calls.append(name)
            n = len(self.calls)
            if n == self.crash_at and not self.after:
                raise Crash(f"before {name} #{n}")
            result = real(*args, **kwargs)
            if n == self.crash_at:
                raise Crash(f"after {name} #{n}")
            return result

        return boundary


def _hit_rows(result):
    return [(h.column_id, h.match_count, h.joinability) for h in result.joinable]


def _reloaded_state(directory: Path, states: dict) -> str:
    """Which of ``states`` (name -> {gid: vectors}) the lake reloads as.

    Raises unless the reloaded lake *is* one of them: the same live ids,
    every live column's vectors intact, and search / top-k equal to an
    in-memory lake over exactly those columns.
    """
    lake = load_partitioned(directory)
    live = sorted(c for g in lake.partition_columns for c in g if lake.has_column(c))
    names = [name for name, state in states.items() if sorted(state) == live]
    assert names, f"live ids {live} are neither lake's"
    state = states[names[0]]
    for gid in live:
        # a shard keeps a column's vectors in leaf order: compare row sets
        got, want = lake.column_vectors(gid), state[gid]
        np.testing.assert_array_equal(
            got[np.lexsort(got.T[::-1])], want[np.lexsort(want.T[::-1])]
        )
    reference = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=1).fit(
        [state[gid] for gid in live], column_ids=live
    )
    for query in QUERIES:
        assert _hit_rows(lake.search(query, 0.8, 0.2)) == \
            _hit_rows(reference.search(query, 0.8, 0.2))
        assert lake.topk(query, 0.8, 4).hits == reference.topk(query, 0.8, 4).hits
    return names[0]


class TestEnumeratedCrashPoints:
    @pytest.mark.parametrize("op", sorted(OPERATIONS))
    def test_every_write_boundary_reloads_old_or_new(
        self, op, columns, saved_lake, tmp_path
    ):
        old = dict(enumerate(columns))
        states = {
            "old": old,
            "new": {
                "add": {**old, len(columns): ADDED},
                "delete": {g: c for g, c in old.items() if g != VICTIM},
                "fit": dict(enumerate(NEW_COLUMNS)),
                "save": dict(enumerate(NEW_COLUMNS)),
            }[op],
        }
        failures: list[str] = []

        def run(label: str, allowed: set, crash_at=None, after=False) -> list[str]:
            case = tmp_path / label.replace(" ", "_").replace("#", "")
            shutil.copytree(saved_lake, case)
            with pytest.MonkeyPatch.context() as patch:
                shim = BoundaryShim(patch, crash_at, after)
                try:
                    OPERATIONS[op](case)
                    crashed = False
                except Crash:
                    crashed = True
            if crashed != (crash_at is not None):
                failures.append(f"{label}: crashed={crashed}")
            try:
                state = _reloaded_state(case, states)
                if state not in allowed:
                    failures.append(f"{label}: reloads as the {state} lake")
            except Exception as exc:  # collected: report every torn point
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
            shutil.rmtree(case)
            return shim.calls

        calls = run("complete", {"new"})
        assert calls, "the operation crossed no write boundary"
        for n, name in enumerate(calls, start=1):
            for after in (False, True):
                side = "after" if after else "before"
                run(f"{side} #{n} {name}", {"old", "new"}, crash_at=n, after=after)
        assert not failures, f"{op}: torn at {len(failures)} of " \
            f"{2 * len(calls)} crash points:\n" + "\n".join(failures)

    @pytest.mark.parametrize("op", ["add", "delete"])
    def test_one_mutation_is_one_flip(self, op, saved_lake, monkeypatch):
        from repro.core import atomic

        flips = []
        real = atomic.atomic_write_text

        def counted(*args, **kwargs):
            flips.append(args[0])
            return real(*args, **kwargs)

        # the library's binding plus the module's own, for a writer that
        # imports it lazily
        monkeypatch.setattr(atomic, "atomic_write_text", counted)
        shim = BoundaryShim(monkeypatch)
        OPERATIONS[op](saved_lake)
        assert shim.calls.count("atomic_write_text") == 1
        assert flips == [], "a write outside core/persistence.py"
        assert not list(saved_lake.glob("partition_*/manifest.json"))
