"""Tests of the sweep runner's shards: store, merge, resume.

The load-bearing properties:

* a parallel sweep (shards in a pool) is bit-identical to the serial
  reference (shards in-process),
* delta-aware cache keys survive edits to modules outside the worker's
  import closure (zero re-execution) and invalidate on edits inside it,
  with ``--explain-cache`` naming the module,
* the on-disk result store salvages complete records after a crash and
  a resumed sweep executes only the missing cells -- including a shard
  file whose records are out of order, which scan and merge both skip.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.common import SingleHopConfig
from repro.experiments.figure1 import FigureOneConfig, run_figure1
from repro.runner import (
    ResultCache,
    ResultStore,
    ShardWriter,
    SingleHopTask,
    SweepRunner,
    serial_runner,
    single_hop_summary,
)
from repro.runner.hashing import _SOURCE_OVERRIDES, invalidate_code_caches

#: 2 schedulers x 2 loads x 2 seeds, laptop-sized.
TINY_FIG1 = FigureOneConfig(
    utilizations=(0.8, 0.92),
    seeds=(1, 2),
    horizon=2e4,
    warmup=1e3,
    check_feasibility=False,
)


def small_tasks(n: int = 6) -> list[SingleHopTask]:
    return [
        SingleHopTask(
            config=SingleHopConfig(
                scheduler="wtp", utilization=0.9, horizon=5e3,
                warmup=200.0, seed=seed,
            )
        )
        for seed in range(1, n + 1)
    ]


class TestResultStore:
    def test_writer_enforces_ascending_indices(self, tmp_path):
        with ShardWriter(tmp_path / "s.jsonl") as out:
            out.write(3, {"x": 1})
            with pytest.raises(ValueError):
                out.write(3, {"x": 2})

    def test_truncated_tail_is_salvaged(self, tmp_path):
        store = ResultStore(tmp_path)
        store.open_grid("grid-a", "w", total=4)
        with ShardWriter(store.shard_path(0)) as out:
            out.write(0, {"v": 0})
            out.write(1, {"v": 1})
        # Simulate a crash mid-write: chop the last record in half.
        path = store.shard_files()[0]
        text = path.read_text()
        path.write_text(text[: len(text) - 7])

        resumed = ResultStore(tmp_path)
        done = resumed.open_grid("grid-a", "w", total=4)
        assert done == {0}
        assert resumed.partial_files
        assert list(resumed.iter_results()) == [(0, {"v": 0})]

    def test_resumed_run_gets_fresh_shard_files(self, tmp_path):
        store = ResultStore(tmp_path)
        store.open_grid("grid-a", "w", total=2)
        with ShardWriter(store.shard_path(0)) as out:
            out.write(0, {"v": 0})
        resumed = ResultStore(tmp_path)
        resumed.open_grid("grid-a", "w", total=2)
        assert resumed.shard_path(0) != store.shard_path(0)

    def test_different_grid_resets_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        store.open_grid("grid-a", "w", total=1)
        with ShardWriter(store.shard_path(0)) as out:
            out.write(0, {"v": 0})
        other = ResultStore(tmp_path)
        done = other.open_grid("grid-b", "w", total=1)
        assert done == set()
        assert not other.shard_files()

    def test_out_of_order_record_is_neither_done_nor_merged(self, tmp_path):
        store = ResultStore(tmp_path)
        store.open_grid("grid-a", "w", total=4)
        store.shard_path(0).write_text(
            "".join(
                json.dumps({"i": i, "r": {"v": i}}) + "\n" for i in (0, 1, 3, 2)
            )
        )
        resumed = ResultStore(tmp_path)
        done = resumed.open_grid("grid-a", "w", total=4)
        assert done == {0, 1, 3}
        assert resumed.partial_files == resumed.shard_files()
        assert [i for i, _ in resumed.iter_results()] == [0, 1, 3]

    def test_merge_dedups_first_wins_across_runs(self, tmp_path):
        store = ResultStore(tmp_path)
        store.open_grid("grid-a", "w", total=3)
        with ShardWriter(store.shard_path(0)) as out:
            out.write(0, {"run": "first"})
            out.write(2, {"run": "first"})
        resumed = ResultStore(tmp_path)
        resumed.open_grid("grid-a", "w", total=3)
        with ShardWriter(resumed.shard_path(0)) as out:
            out.write(1, {"run": "second"})
            out.write(2, {"run": "second"})  # duplicate of run 0's cell
        final = ResultStore(tmp_path)
        final.open_grid("grid-a", "w", total=3)
        assert list(final.iter_results()) == [
            (0, {"run": "first"}),
            (1, {"run": "second"}),
            (2, {"run": "first"}),
        ]


class TestShardedParity:
    def test_sharded_equals_serial_single_hop(self):
        tasks = small_tasks()
        serial = serial_runner().map(single_hop_summary, tasks)
        with SweepRunner(jobs=2) as runner:
            sharded = runner.map(single_hop_summary, tasks)
        assert runner.last_report.shards == len(tasks)
        assert sharded == serial

    def test_sharded_equals_serial_figure1(self):
        serial = run_figure1(TINY_FIG1, runner=serial_runner())
        with SweepRunner(jobs=2) as runner:
            sharded = run_figure1(TINY_FIG1, runner=runner)
        assert sharded == serial

    def test_consume_streams_in_ascending_order(self):
        tasks = small_tasks(5)
        seen: list[int] = []
        payloads: dict[int, dict] = {}

        def consume(index: int, payload: dict) -> None:
            seen.append(index)
            payloads[index] = payload

        with SweepRunner(jobs=2) as runner:
            returned = runner.map(single_hop_summary, tasks, consume=consume)
        assert returned is None
        assert seen == list(range(len(tasks)))
        assert payloads[0] == single_hop_summary(tasks[0])

    def test_report_counts_and_summary(self):
        tasks = small_tasks(4)
        with SweepRunner(jobs=1) as runner:
            runner.map(single_hop_summary, tasks)
        report = runner.last_report
        assert report.total == 4 and report.executed == 4
        assert report.shards == 4  # ceil(4 / (jobs * 4)) cells per shard
        assert report.coordinator_peak_rss_mb > 0
        assert "peak rss" in report.summary()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)
        settable = [f.name for f in dataclasses.fields(SweepRunner) if f.init]
        assert settable == ["jobs", "cache", "store_dir", "explain"]


class TestShardedCacheAndResume:
    def test_both_tiers_share_one_cache(self, tmp_path):
        """In-process shards fill the cache that pool shards read."""
        tasks = small_tasks(3)
        with SweepRunner(jobs=1, cache=ResultCache(tmp_path)) as serial:
            first = serial.map(single_hop_summary, tasks)
        with SweepRunner(jobs=2, cache=ResultCache(tmp_path)) as parallel:
            second = parallel.map(single_hop_summary, tasks)
        assert parallel.last_report.cache_hits == 3
        assert parallel.last_report.executed == 0
        assert second == first

    def test_crash_resume_executes_only_missing_cells(self, tmp_path):
        tasks = small_tasks(6)
        store_dir = tmp_path / "store"
        with SweepRunner(jobs=1, store_dir=store_dir) as runner:
            first = runner.map(single_hop_summary, tasks)
        assert runner.last_report.executed == 6
        assert runner.last_report.shards == 3

        # "Crash": drop one whole shard file and truncate another
        # mid-record, leaving 3 complete cells on disk.
        store = ResultStore(store_dir)
        files = store.shard_files()
        files[0].unlink()
        lines = files[1].read_text().splitlines(keepends=True)
        files[1].write_text(lines[0] + lines[1][:10])

        with SweepRunner(jobs=1, store_dir=store_dir) as runner:
            second = runner.map(single_hop_summary, tasks)
        report = runner.last_report
        assert report.resumed == 3
        assert report.executed == 3
        assert second == first

    def test_out_of_order_shard_file_resumes(self, tmp_path):
        """Every cell on disk, one file out of order: the stray cell reruns."""
        tasks = small_tasks(4)
        store_dir = tmp_path / "store"
        with SweepRunner(jobs=1, store_dir=store_dir) as runner:
            first = runner.map(single_hop_summary, tasks)
        files = ResultStore(store_dir).shard_files()
        lines = [
            line
            for path in files
            for line in path.read_text().splitlines(keepends=True)
        ]
        for path in files:
            path.unlink()
        files[0].write_text(lines[0] + lines[1] + lines[3] + lines[2])

        with SweepRunner(jobs=1, store_dir=store_dir) as runner:
            second = runner.map(single_hop_summary, tasks)
        report = runner.last_report
        assert report.resumed == 3
        assert report.executed == 1
        assert second == first

    def test_explain_reports_full_hits_on_warm_rerun(self, tmp_path):
        tasks = small_tasks(3)
        with SweepRunner(jobs=1, cache=ResultCache(tmp_path)) as cold:
            cold.map(single_hop_summary, tasks)
        warm = SweepRunner(jobs=1, cache=ResultCache(tmp_path), explain=True)
        with warm:
            warm.map(single_hop_summary, tasks)
        (report,) = warm.explanations
        assert report.hits == 3 and report.hit_rate == 1.0
        assert "3/3 hits (100.0%)" in report.summary()


class TestDeltaAwareInvalidation:
    """Edits outside the worker's import closure must not invalidate."""

    @pytest.fixture(autouse=True)
    def _clean_overrides(self):
        yield
        _SOURCE_OVERRIDES.clear()
        invalidate_code_caches()

    def _edit(self, module: str) -> None:
        import repro.runner.hashing as hashing

        original = hashing.package_modules()[module].read_bytes()
        _SOURCE_OVERRIDES[module] = original + b"\n# edited\n"
        invalidate_code_caches()

    def test_unrelated_edit_keeps_every_hit(self, tmp_path):
        tasks = small_tasks(3)
        with SweepRunner(jobs=1, cache=ResultCache(tmp_path)) as cold:
            cold.map(single_hop_summary, tasks)

        # figures_svg renders plots; single_hop_summary never imports it.
        self._edit("repro.experiments.figures_svg")
        warm = SweepRunner(jobs=1, cache=ResultCache(tmp_path), explain=True)
        with warm:
            warm.map(single_hop_summary, tasks)
        assert warm.last_report.executed == 0
        assert warm.last_report.cache_hits == 3
        (report,) = warm.explanations
        assert report.status_counts() == {"hit": 3}

    def test_closure_edit_invalidates_and_names_the_module(self, tmp_path):
        tasks = small_tasks(2)
        with SweepRunner(jobs=1, cache=ResultCache(tmp_path)) as cold:
            cold.map(single_hop_summary, tasks)

        self._edit("repro.sim.link")
        warm = SweepRunner(jobs=1, cache=ResultCache(tmp_path), explain=True)
        with warm:
            warm.map(single_hop_summary, tasks)
        assert warm.last_report.cache_hits == 0
        assert warm.last_report.executed == 2
        (report,) = warm.explanations
        assert report.status_counts() == {"code-changed": 2}
        assert report.changed_modules() == ["repro.sim.link"]
        assert "repro.sim.link" in report.summary()

    def test_sweep_runner_shares_the_delta_keys(self, tmp_path):
        tasks = small_tasks(2)
        with SweepRunner(jobs=1, cache=ResultCache(tmp_path)) as cold:
            cold.map(single_hop_summary, tasks)
        self._edit("repro.experiments.figures_svg")
        warm = SweepRunner(jobs=1, cache=ResultCache(tmp_path), explain=True)
        with warm:
            warm.map(single_hop_summary, tasks)
        assert warm.last_report.executed == 0
        (report,) = warm.explanations
        assert report.hit_rate == 1.0


class TestShardWorkerRegistry:
    def test_store_records_are_json_lines(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with ShardWriter(path) as out:
            out.write(0, {"mean": 1.5})
        (line,) = path.read_text().splitlines()
        assert json.loads(line) == {"i": 0, "r": {"mean": 1.5}}
