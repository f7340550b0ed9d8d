"""Tests of the parallel sweep runner and the content-addressed cache.

The load-bearing properties:

* parallel execution returns results bit-identical to serial,
* a warm cache serves a repeated sweep with zero simulations executed,
* cache keys track config content and code version (invalidation),
* corrupt cache entries degrade to misses, never errors,
* a payload makes one JSON round trip whichever way it comes back --
  fresh from either tier, cached, or rerun over a corrupt blob,
* one runner compiles each single-hop trace, and replays each of its
  Eq 7 subsets, once, and shares neither with another runner; its trace
  table keeps the trace it just stored, and a pool shard's seeds,
  whatever the budget.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math
from functools import partial

import pytest

import repro.core.conservation as conservation
import repro.experiments.common as common
import repro.runner.runner as runner_mod
from repro.core.conservation import fcfs_mean_delay
from repro.core.ddp import ddps_from_sdps
from repro.core.feasibility import check_proportional_feasibility
from repro.experiments.common import (
    SingleHopConfig,
    generate_trace,
    run_single_hop,
    trace_key,
)
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
    shared_trace,
    single_hop_summary,
    worker_code_version,
    worker_manifest,
)
from repro.traffic.mix import ClassLoadDistribution
from repro.units import PAPER_LINK_CAPACITY

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

    def test_blobs_are_the_compact_json_of_their_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "1" * 62
        payload = {"ratios": [1.5, float("nan")], "label": "\u00e9", "n": 3}
        cache.put(key, payload)
        assert cache.path_for(key).read_bytes() == json.dumps(
            {"key": key, "result": payload}, separators=(",", ":")
        ).encode("utf-8")
        task_fp = "cd" + "2" * 62
        entry = {"key": key, "code": "c0de", "modules": {"repro.errors": "f00d"}}
        cache.put_index(task_fp, entry)
        assert cache.index_path_for(task_fp).read_bytes() == json.dumps(
            {"task": task_fp, **entry}, separators=(",", ":")
        ).encode("utf-8")

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


def tuple_worker(value: int) -> tuple:
    """A worker whose payload the JSON round trip changes."""
    return (value, value / 2)


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

    def test_a_payload_reads_alike_fresh_cached_and_rerun(self, tmp_path):
        tasks = [1, 2]
        expected = [[1, 0.5], [2, 1.0]]  # tuples come back as lists
        for jobs in (1, 2):
            with SweepRunner(jobs=jobs) as runner:
                assert runner.map(tuple_worker, tasks) == expected
            assert runner.last_report.shards == 2
        cache = ResultCache(tmp_path)
        with SweepRunner(jobs=1, cache=cache) as runner:
            assert runner.map(tuple_worker, tasks) == expected
            assert runner.map(tuple_worker, tasks) == expected
        assert runner.last_report.cache_hits == 2

        # A corrupt blob reads as a miss: the cell reruns in the
        # coordinator and is cached again.
        key = cache_key(tuple_worker, tasks[0])
        cache.path_for(key).write_text("{")
        with SweepRunner(jobs=1, cache=cache) as runner:
            assert runner.map(tuple_worker, tasks) == expected
        assert cache.get(key) == expected[0]

    def test_a_rerun_over_a_corrupt_blob_counts_as_executed(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = [1, 2]
        with SweepRunner(jobs=1, cache=cache) as runner:
            runner.map(tuple_worker, tasks)
        cache.path_for(cache_key(tuple_worker, tasks[0])).write_text("{")
        with SweepRunner(jobs=1, cache=cache) as runner:
            runner.map(tuple_worker, tasks)
        report = runner.last_report
        assert (report.cache_hits, report.executed) == (1, 1)
        assert "2 runs, 1 cache hits, 1 executed in 1 shards" in report.summary()

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


# ----------------------------------------------------------------------
# Single-hop trace sharing
# ----------------------------------------------------------------------
#: The cell the trace-sharing tests vary.
TRACE_CELL = SingleHopConfig(utilization=0.9, horizon=5e3, warmup=200.0, seed=1)

#: The SingleHopConfig fields generate_trace never reads, each with a
#: value that differs from TRACE_CELL's ...
SAME_TRACE = {
    "scheduler": "bpr",
    "sdps": (1.0, 4.0, 16.0, 64.0),
    "warmup": 500.0,
    "interval_taus": (10.0,),
    "tap_windows": ((0.0, 100.0),),
    "keep_samples": True,
}
#: ... and the fields it reads.
NEW_TRACE = {
    "seed": 2,
    "utilization": 0.8,
    "loads": ClassLoadDistribution((0.25, 0.25, 0.25, 0.25)),
    "horizon": 6e3,
    "capacity": 2 * PAPER_LINK_CAPACITY,
    "pareto_shape": 1.5,
}

#: Traces the in-process ``_stash_trace`` worker saw, in cell order.
STASHED: list = []


def _stash_trace(task: SingleHopTask) -> int:
    """Worker: look the cell's trace up as the single-hop workers do and
    keep it for the test (in-process runs only)."""
    config = task.config
    trace = shared_trace(trace_key(config), partial(generate_trace, config))
    STASHED.append(trace)
    return len(trace)


def _compiles_here(task: SingleHopTask) -> bool:
    """Worker: whether this cell compiled its trace."""
    config = task.config
    compiled = []

    def build():
        compiled.append(True)
        return generate_trace(config)

    shared_trace(trace_key(config), build)
    return bool(compiled)


@pytest.fixture
def work(monkeypatch) -> collections.Counter:
    """Calls of generate_trace, build_class_trace (one per class drawn)
    and fcfs_waiting_times (one per Lindley replay), counted by wrapping
    them from outside, as the verify trace census does."""
    counts: collections.Counter = collections.Counter()

    def count(owner, attr):
        original = getattr(owner, attr)

        def counting(*args, **kwargs):
            counts[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)

    count(common, "generate_trace")
    count(common, "build_class_trace")
    count(conservation, "fcfs_waiting_times")
    return counts


class TestTraceSharing:
    def test_every_config_field_is_classified(self):
        fields = {f.name for f in dataclasses.fields(SingleHopConfig)}
        assert fields == set(SAME_TRACE) | set(NEW_TRACE)

    @pytest.mark.parametrize("name", [*SAME_TRACE, *NEW_TRACE])
    def test_only_trace_fields_split_a_trace(self, name, work):
        value = SAME_TRACE[name] if name in SAME_TRACE else NEW_TRACE[name]
        other = dataclasses.replace(TRACE_CELL, **{name: value})
        shared = name in SAME_TRACE
        assert (trace_key(other) == trace_key(TRACE_CELL)) is shared
        tasks = [SingleHopTask(config=TRACE_CELL), SingleHopTask(config=other)]
        serial_runner().map(single_hop_summary, tasks)
        assert work["generate_trace"] == (1 if shared else 2)

    def test_one_runner_compiles_and_audits_a_trace_once(self, work):
        tasks = [
            SingleHopTask(
                config=TRACE_CELL, scheduler=scheduler, sdps=sdps,
                compute_feasibility=True,
            )
            for scheduler in ("wtp", "bpr")
            for sdps in ((1.0, 2.0, 4.0, 8.0), (1.0, 4.0, 16.0, 64.0))
        ]
        summaries = serial_runner().map(single_hop_summary, tasks)
        assert work["build_class_trace"] == 4  # one trace of four classes
        assert work["fcfs_waiting_times"] == 15  # its 2^4 - 1 subsets
        assert summaries == [single_hop_summary(task) for task in tasks]

    def test_table_belongs_to_one_runner(self, work):
        tasks = [SingleHopTask(config=TRACE_CELL)]
        first = serial_runner()
        first.map(single_hop_summary, tasks)
        first.map(single_hop_summary, tasks)
        assert work["generate_trace"] == 1  # kept across map calls
        second = serial_runner()  # starts empty while the first lives
        second.map(single_hop_summary, tasks)
        assert work["generate_trace"] == 2
        first.map(single_hop_summary, tasks)
        assert work["generate_trace"] == 2
        single_hop_summary(tasks[0])
        single_hop_summary(tasks[0])
        assert work["generate_trace"] == 4  # outside any runner

    def test_table_traces_are_read_only(self):
        STASHED.clear()
        serial_runner().map(_stash_trace, [SingleHopTask(config=TRACE_CELL)] * 2)
        first, second = STASHED
        assert first is second
        for array in (first.times, first.class_ids, first.sizes):
            with pytest.raises(ValueError):
                array[0] = array[0]
        # Outside any runner a worker gets a private, writable trace.
        _stash_trace(SingleHopTask(config=TRACE_CELL))
        own = STASHED[-1]
        assert own is not first
        own.times[0] = own.times[0]

    def test_table_drops_the_least_recently_used_past_its_budget(
        self, work, monkeypatch
    ):
        one, two = (dataclasses.replace(TRACE_CELL, seed=seed) for seed in (1, 2))
        budget = len(generate_trace(one)) + len(generate_trace(two)) - 1
        monkeypatch.setattr(runner_mod, "TRACE_TABLE_ARRIVALS", budget)
        work.clear()
        runner = serial_runner()
        runner.map(single_hop_summary, [SingleHopTask(config=c) for c in (one, two, two)])
        assert work["generate_trace"] == 2
        runner.map(single_hop_summary, [SingleHopTask(config=one)])
        assert work["generate_trace"] == 3  # dropped when two came in
        runner.map(single_hop_summary, [SingleHopTask(config=one)])
        assert work["generate_trace"] == 3
        runner.map(single_hop_summary, [SingleHopTask(config=two)])
        assert work["generate_trace"] == 4

    def test_table_keeps_the_trace_it_just_stored(self, work, monkeypatch):
        one, two = (dataclasses.replace(TRACE_CELL, seed=seed) for seed in (1, 2))
        monkeypatch.setattr(runner_mod, "TRACE_TABLE_ARRIVALS", 100)
        runner = serial_runner()
        runner.map(single_hop_summary, [SingleHopTask(config=one)] * 2)
        assert work["generate_trace"] == 1  # over the budget, yet reused
        runner.map(
            single_hop_summary,
            [SingleHopTask(config=two), SingleHopTask(config=one)],
        )
        assert work["generate_trace"] == 3  # two dropped one

    def test_a_pool_shard_keeps_its_seeds_past_the_budget(self, monkeypatch):
        one, two, three, four = (
            generate_trace(dataclasses.replace(TRACE_CELL, seed=seed))
            for seed in (1, 2, 3, 4)
        )
        monkeypatch.setattr(runner_mod, "TRACE_TABLE_ARRIVALS", 100)
        table = runner_mod._TraceTable({"one": one, "two": [two]})
        table.put("three", three)
        table.put("four", four)
        assert table.get("three") is None  # dropped when four came in
        assert table.get("four") is four
        assert table.get("one") is one
        assert table.get("two") == [two]
        assert table.arrivals == len(one) + len(two) + len(four)

    def test_a_pool_shard_shares_traces_among_its_own_cells(self):
        # At jobs=2, 16 cells go out in 2-cell shards: one trace each.
        tasks = [
            SingleHopTask(config=dataclasses.replace(TRACE_CELL, seed=seed))
            for seed in range(1, 9)
            for _ in range(2)
        ]
        with SweepRunner(jobs=2) as runner:
            for _ in range(2):
                compiled = runner.map(_compiles_here, tasks)
                assert runner.last_report.shards == 8
                # Every shard compiles its trace, in every map call: no
                # pool worker keeps a trace from one shard to the next.
                assert compiled == [True, False] * 8

    def test_caller_trace_is_audited_on_its_own_arrays(self):
        """The Eq 7 memo is keyed to the trace object: a caller's trace
        never reuses subset delays left by the config's own trace."""
        own = run_single_hop(TRACE_CELL).feasibility_report()
        other = generate_trace(dataclasses.replace(TRACE_CELL, seed=2))
        theirs = run_single_hop(TRACE_CELL, trace=other).feasibility_report()
        assert theirs.margins != own.margins

        def replayed(subset):
            return fcfs_mean_delay(
                other.filter_classes(subset), TRACE_CELL.capacity,
                TRACE_CELL.warmup,
            )

        expected = check_proportional_feasibility(
            ddps_from_sdps(TRACE_CELL.sdps),
            other.class_rates(TRACE_CELL.horizon, TRACE_CELL.num_classes),
            replayed,
            0.05,
        )
        assert theirs.margins == expected.margins
