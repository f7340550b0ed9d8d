"""Tests of the sweep runner's shards: merge, cache, resume.

The load-bearing properties:

* a parallel sweep (shards in a pool) is bit-identical to the serial
  reference (shards in-process),
* delta-aware cache keys survive edits to modules outside the worker's
  import closure (zero re-execution) and invalidate on edits inside it,
  with ``--explain-cache`` naming the module,
* the result cache is the one place a finished cell is kept: a sweep
  whose worker raises partway leaves every shard that ended in it, in
  process and in a pool, and a rerun executes only the rest.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.experiments.common import SingleHopConfig
from repro.experiments.figure1 import FigureOneConfig, run_figure1
from repro.runner import (
    ResultCache,
    SingleHopTask,
    SweepRunner,
    cache_key,
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


@dataclasses.dataclass(frozen=True)
class Cell:
    """One cell of a runner-only sweep; ``poison`` names a file whose
    presence makes cell 4 fail."""

    value: int
    poison: str


def flaky_worker(cell: Cell) -> dict:
    if cell.value == 4 and os.path.exists(cell.poison):
        raise RuntimeError(f"cell {cell.value} failed")
    return {"value": cell.value, "ratio": cell.value / 7}


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
        with pytest.raises(ValueError, match="explain needs a cache"):
            SweepRunner(explain=True)
        settable = [f.name for f in dataclasses.fields(SweepRunner) if f.init]
        assert settable == ["jobs", "cache", "explain"]


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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_sweep_resumes_from_the_cache(self, tmp_path, jobs):
        """Shards: [0, 1] [2, 3] [4, 5] in process, one cell each in a
        pool.  Every shard ahead of the failing one has started when it
        fails, so each ends in the cache."""
        poison = tmp_path / "poison"
        poison.touch()
        tasks = [Cell(value, str(poison)) for value in range(6)]
        cache = ResultCache(tmp_path / "cache")
        with SweepRunner(jobs=jobs, cache=cache) as runner:
            with pytest.raises(RuntimeError, match="cell 4 failed"):
                runner.map(flaky_worker, tasks)
        kept = [
            index
            for index, task in enumerate(tasks)
            if cache_key(flaky_worker, task) in cache
        ]
        assert kept[:4] == [0, 1, 2, 3] and 4 not in kept
        if jobs == 1:
            assert kept == [0, 1, 2, 3]

        poison.unlink()
        with SweepRunner(jobs=jobs, cache=cache) as runner:
            resumed = runner.map(flaky_worker, tasks)
        assert runner.last_report.cache_hits == len(kept)
        assert runner.last_report.executed == len(tasks) - len(kept)
        assert resumed == serial_runner().map(flaky_worker, tasks)

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
