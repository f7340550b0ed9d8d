"""Tests of the parallel sweep runner and the content-addressed cache.

The load-bearing properties:

* parallel execution returns results bit-identical to serial,
* a warm cache serves a repeated sweep with zero simulations executed,
* cache keys track config content and code version (invalidation),
* corrupt cache entries degrade to misses, never errors.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.experiments.common import SingleHopConfig
from repro.experiments.figure1 import FigureOneConfig, run_figure1
from repro.runner import (
    ResultCache,
    SingleHopTask,
    SweepRunner,
    cache_key,
    canonical_payload,
    code_version,
    dependency_closure,
    fingerprint,
    module_imports,
    serial_runner,
    single_hop_summary,
    worker_code_version,
    worker_manifest,
)

#: Laptop-sized Figure 1 slice: 2 schedulers x 2 loads x 2 seeds.
TINY_FIG1 = FigureOneConfig(
    utilizations=(0.8, 0.92),
    seeds=(1, 2),
    horizon=2e4,
    warmup=1e3,
    check_feasibility=False,
)


def small_task(seed: int = 1) -> SingleHopTask:
    return SingleHopTask(
        config=SingleHopConfig(
            scheduler="wtp", utilization=0.9, horizon=5e3, warmup=200.0,
            seed=seed,
        )
    )


class TestHashing:
    def test_fingerprint_is_stable(self):
        task = small_task()
        assert fingerprint(canonical_payload(task)) == fingerprint(
            canonical_payload(small_task())
        )

    def test_fingerprint_tracks_config_content(self):
        assert fingerprint(canonical_payload(small_task(1))) != fingerprint(
            canonical_payload(small_task(2))
        )

    def test_canonical_payload_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonical_payload(object())

    def test_code_version_is_a_hex_digest(self):
        version = code_version()
        assert len(version) == 64
        int(version, 16)

    def test_cache_key_depends_on_worker_name(self):
        task = small_task()

        def other_worker(t):  # pragma: no cover - never called
            return t

        assert cache_key(single_hop_summary, task) != cache_key(
            other_worker, task
        )


class TestResultCache:
    def test_get_put_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        payload = {"ratios": [1.5, float("nan")], "n": 3}
        cache.put(key, payload)
        got = cache.get(key)
        assert got["n"] == 3
        assert got["ratios"][0] == 1.5
        assert math.isnan(got["ratios"][1])
        assert cache.hits == 1 and cache.misses == 0

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" + "0" * 62) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        cache.put(key, {"x": 1})
        cache.path_for(key).write_text("{ truncated")
        assert cache.get(key) is None

    def test_entry_with_wrong_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "12" + "0" * 62
        cache.put(key, {"x": 1})
        moved = "12" + "f" * 62
        cache.path_for(key).rename(cache.path_for(moved))
        assert cache.get(moved) is None

    def test_len_contains_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [c * 64 for c in "abc"]
        for key in keys:
            cache.put(key, {"k": key})
        assert len(cache) == 3
        assert keys[0] in cache
        assert cache.clear() == 3
        assert len(cache) == 0


class TestSweepRunner:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_jobs_none_means_cpu_count(self):
        assert SweepRunner(jobs=None).jobs >= 1

    def test_map_preserves_task_order(self):
        runner = serial_runner()
        tasks = [small_task(seed) for seed in (3, 1, 2)]
        summaries = runner.map(single_hop_summary, tasks)
        expected = [single_hop_summary(t) for t in tasks]
        assert summaries == expected

    def test_parallel_equals_serial(self):
        """Figure 1 via 2 worker processes == the serial reference, bit for bit."""
        serial = run_figure1(TINY_FIG1, runner=serial_runner())
        parallel = run_figure1(TINY_FIG1, runner=SweepRunner(jobs=2))
        assert serial == parallel

    def test_warm_cache_executes_zero_simulations(self, tmp_path):
        cold = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        first = run_figure1(TINY_FIG1, runner=cold)
        assert all(r.cache_hits == 0 for r in cold.reports)
        executed_cold = sum(r.executed for r in cold.reports)
        assert executed_cold == len(TINY_FIG1.utilizations) * 2 * len(
            TINY_FIG1.seeds
        )

        warm = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        second = run_figure1(TINY_FIG1, runner=warm)
        assert sum(r.executed for r in warm.reports) == 0
        assert sum(r.cache_hits for r in warm.reports) == executed_cold
        assert first == second

    def test_cached_results_match_fresh_exactly(self, tmp_path):
        """JSON round-trip through the cache must not perturb any float."""
        task = small_task()
        fresh = single_hop_summary(task)
        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        runner.map(single_hop_summary, [task])
        (cached,) = SweepRunner(jobs=1, cache=ResultCache(tmp_path)).map(
            single_hop_summary, [task]
        )
        assert cached == fresh

    def test_changed_config_misses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        runner.map(single_hop_summary, [small_task(1)])
        runner.map(single_hop_summary, [small_task(2)])
        assert runner.reports[1].cache_hits == 0
        assert runner.reports[1].executed == 1

    def test_report_summary_mentions_counts(self):
        runner = serial_runner()
        runner.map(single_hop_summary, [small_task()])
        report = runner.last_report
        assert report.total == 1 and report.executed == 1
        assert "1 runs" in report.summary()
        assert "cache hits" in report.summary()


class TestDeltaAwareHashing:
    def test_package_worker_uses_closure_version(self):
        # single_hop_summary lives in repro.runner.tasks; its version
        # must track the closure manifest, not the whole package.
        version = worker_code_version(single_hop_summary)
        assert version != code_version()
        manifest = worker_manifest(single_hop_summary)
        assert "repro.runner.tasks" in manifest
        assert "repro.sim.link" in manifest
        assert "repro.cli" not in manifest

    def test_outside_worker_falls_back_to_package_version(self):
        def local_worker(task):  # pragma: no cover - never called
            return task

        assert worker_code_version(local_worker) == code_version()
        assert worker_manifest(local_worker) == {}

    def test_closure_is_transitive_and_sorted(self):
        closure = dependency_closure("repro.runner.tasks")
        assert closure == tuple(sorted(closure))
        assert "repro.runner.tasks" in closure
        # The sim engine is only reached through intermediate modules.
        assert "repro.sim.engine" in closure

    def test_module_imports_sees_lazy_imports(self):
        # runner.tasks imports the experiment helpers lazily inside the
        # worker function body; the AST walk must still find them.
        assert "repro.experiments.common" in module_imports(
            "repro.runner.tasks"
        )


class TestWarmPoolAndChunks:
    def test_pool_persists_across_maps(self):
        with SweepRunner(jobs=2) as runner:
            runner.map(single_hop_summary, [small_task(1), small_task(2)])
            first_pool = runner._pool
            runner.map(single_hop_summary, [small_task(3), small_task(4)])
            assert runner._pool is first_pool
        assert runner._pool is None  # released on exit

    def test_shutdown_is_idempotent(self):
        runner = SweepRunner(jobs=2)
        runner.shutdown()
        runner.shutdown()

    def test_auto_shard_size_matches_serial(self):
        tasks = [small_task(seed) for seed in range(1, 21)]
        serial = serial_runner().map(single_hop_summary, tasks)
        with SweepRunner(jobs=2) as runner:
            sharded = runner.map(single_hop_summary, tasks)
        # ceil(20 / (2 jobs * 4 waves)) = 3 cells per shard.
        assert runner.last_report.shards == 7
        assert sharded == serial


class TestTaskShape:
    def test_tasks_are_frozen_and_hashable(self):
        task = small_task()
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.scheduler = "bpr"
        hash(task)

    def test_summary_payload_is_json_able(self):
        summary = single_hop_summary(small_task())
        round_tripped = json.loads(json.dumps(summary))
        assert round_tripped["target_ratios"] == summary["target_ratios"]
