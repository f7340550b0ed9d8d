"""Tests of the city-scale scenario corpus: generators, cells, grids.

The load-bearing properties:

* flow apportionment and branch dealing are exact, deterministic pure
  functions of the config,
* trace compilation is bit-identical across processes (spawn-order
  seeded) and its group key tracks exactly the traffic-shaping fields,
* both topologies build and run, including under the invariant checker,
* a parallel city sweep equals the serial sweep bit for bit, and
  either one compiles each trace group once per runner, in the
  coordinator -- none at all when every cell hits the cache; a pool
  shard receives only the groups its own cells replay, read-only.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from functools import partial

import numpy as np
import pytest

import repro.runner.runner as runner_mod
import repro.scenarios.city as city_module
import repro.sim.hybrid as hybrid_mod
from repro.errors import ConfigurationError
from repro.runner import ResultCache, SweepRunner, serial_runner, shared_trace
from repro.scenarios import (
    CITY_SIZE_PROBS,
    CITY_SIZES,
    CityGridConfig,
    CityScenarioConfig,
    CityTask,
    branch_flow_counts,
    city_summary,
    city_tasks,
    city_to_csv,
    compile_city_traces,
    flow_classes,
    format_city,
    run_city,
    trace_group_key,
)
from repro.scenarios.generators import (
    TOPOLOGIES,
    city_size_mean,
    total_byte_rate,
)

from repro.sim.hybrid import HybridConfig

from .conftest import count_packets

#: Small enough for CI, big enough to exercise every branch and class.
TINY = CityScenarioConfig(
    branches=4,
    flows=24,
    flow_gap=50.0,
    horizon=1500.0,
    warmup=100.0,
)

TINY_GRID = CityGridConfig(
    base=TINY,
    schedulers=("wtp",),
    sdp_grid=((1.0, 2.0, 4.0, 8.0),),
    utilizations=(0.8, 0.9),
    seeds=(1,),
)

#: 2 schedulers x 2 utilizations at one seed: one trace group.
FOUR_CELL_GRID = dataclasses.replace(TINY_GRID, schedulers=("wtp", "bpr"))


def _count_compiles(monkeypatch) -> list[int]:
    """Count ``compile_city_traces`` calls (coordinator and fallback)."""
    calls = [0]
    original = city_module.compile_city_traces

    def counted(config):
        calls[0] += 1
        return original(config)

    monkeypatch.setattr(city_module, "compile_city_traces", counted)
    return calls


def _look_up_group(task: CityTask) -> dict:
    """Worker: look the cell's trace group up as ``city_summary`` does,
    and report whether this process compiled it, whether its arrays are
    read-only, and which names the shard's trace table holds."""
    compiled = []

    def build():
        compiled.append(True)
        return compile_city_traces(task.config)

    traces = shared_trace(trace_group_key(task.config), build)
    return {
        "compiled": bool(compiled),
        "read_only": not any(
            array.flags.writeable
            for trace in traces
            for array in (trace.times, trace.class_ids, trace.sizes)
        ),
        "table": sorted(runner_mod._ACTIVE_TABLE._traces),
    }


class TestConfigValidation:
    def test_rejects_unknown_topology(self):
        with pytest.raises(ConfigurationError):
            CityScenarioConfig(topology="torus")

    def test_rejects_mismatched_mix(self):
        with pytest.raises(ConfigurationError):
            CityScenarioConfig(sdps=(1.0, 2.0), class_mix=(0.5, 0.3, 0.2))

    def test_rejects_mix_not_summing_to_one(self):
        with pytest.raises(ConfigurationError):
            CityScenarioConfig(
                sdps=(1.0, 2.0), class_mix=(0.6, 0.6)
            )

    def test_target_ratios_follow_eq13(self):
        config = CityScenarioConfig(
            sdps=(1.0, 4.0, 16.0), class_mix=(0.5, 0.3, 0.2)
        )
        assert config.target_ratios() == [4.0, 4.0]


class TestGenerators:
    def test_flow_classes_largest_remainder_is_exact(self):
        classes = flow_classes(1000, (0.4, 0.3, 0.2, 0.1))
        assert [classes.count(c) for c in range(4)] == [400, 300, 200, 100]

    def test_flow_classes_distributes_shortfall(self):
        classes = flow_classes(7, (0.5, 0.3, 0.2))
        assert [classes.count(c) for c in range(3)] == [4, 2, 1]
        assert len(classes) == 7

    def test_branch_flow_counts_sum_and_balance(self):
        counts = branch_flow_counts(10, 4)
        assert counts == [3, 3, 2, 2]
        assert sum(counts) == 10

    def test_size_mix_mean_matches_probabilities(self):
        assert city_size_mean() == pytest.approx(
            float(np.dot(CITY_SIZES, CITY_SIZE_PROBS))
        )

    def test_total_byte_rate_scales_with_flows(self):
        double = dataclasses.replace(TINY, flows=TINY.flows * 2)
        assert total_byte_rate(double) == pytest.approx(
            2 * total_byte_rate(TINY)
        )


class TestTraceCompilation:
    def test_compilation_is_deterministic(self):
        first = compile_city_traces(TINY)
        second = compile_city_traces(TINY)
        assert len(first) == TINY.branches
        for a, b in zip(first, second):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.class_ids, b.class_ids)
            assert np.array_equal(a.sizes, b.sizes)

    def test_branch_traces_are_time_sorted(self):
        for trace in compile_city_traces(TINY):
            assert np.all(np.diff(trace.times) >= 0)

    def test_surplus_branches_get_empty_traces(self):
        sparse = dataclasses.replace(TINY, branches=8, flows=2)
        traces = compile_city_traces(sparse)
        assert len(traces) == 8
        assert [len(t) > 0 for t in traces] == [True] * 2 + [False] * 6

    def test_group_key_ignores_service_side_fields(self):
        base = trace_group_key(TINY)
        for change in (
            {"scheduler": "bpr"},
            {"sdps": (1.0, 4.0, 16.0, 64.0)},
            {"utilization": 0.8},
            {"edge_utilization": 0.6},
            {"topology": "fat_tree_lite"},
        ):
            assert trace_group_key(dataclasses.replace(TINY, **change)) == base

    def test_group_key_tracks_traffic_fields(self):
        base = trace_group_key(TINY)
        for change in (
            {"seed": 2},
            {"flows": TINY.flows + 1},
            {"flow_gap": 60.0},
            {"pareto_shape": 1.5},
        ):
            assert trace_group_key(dataclasses.replace(TINY, **change)) != base


class TestCitySummary:
    def test_summary_is_json_able_and_complete(self):
        summary = city_summary(CityTask(config=TINY))
        round_tripped = json.loads(json.dumps(summary))
        assert round_tripped["topology"] == "star_of_chains"
        assert len(round_tripped["ratios"]) == TINY.num_classes - 1
        assert round_tripped["packets"] > 0
        assert round_tripped["hub_departures"] > 0

    def test_fat_tree_lite_runs(self):
        config = dataclasses.replace(TINY, topology="fat_tree_lite")
        summary = city_summary(CityTask(config=config))
        assert summary["topology"] == "fat_tree_lite"
        assert summary["hub_departures"] > 0

    def test_invariant_checked_run(self):
        config = dataclasses.replace(TINY, check_invariants=True)
        summary = city_summary(CityTask(config=config))
        assert summary["checked"] is True

    def test_multi_hop_star_runs(self):
        config = dataclasses.replace(TINY, hops_per_branch=2)
        summary = city_summary(CityTask(config=config))
        assert summary["hub_departures"] > 0

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_monitored_hub_builds_no_packet_per_arrival(
        self, topology, monkeypatch
    ):
        """The hub's delay monitor takes scalars, so the trace-fed city
        cell keeps its packets columnar end to end."""
        config = dataclasses.replace(TINY, topology=topology)
        built = count_packets(monkeypatch)
        summary = city_summary(CityTask(config=config))
        assert built[0] <= 20, built[0]
        assert summary["hub_departures"] > 200


class TestCityGrid:
    def test_cells_cover_the_product_seed_outermost(self):
        grid = CityGridConfig(
            base=TINY,
            schedulers=("wtp", "bpr"),
            sdp_grid=((1.0, 2.0, 4.0, 8.0),),
            utilizations=(0.8,),
            seeds=(1, 2),
        )
        cells = grid.cells()
        assert len(cells) == 4
        assert [c.seed for c in cells] == [1, 1, 2, 2]
        assert {c.scheduler for c in cells} == {"wtp", "bpr"}

    def test_scaled_shrinks_flows_and_seeds(self):
        grid = CityGridConfig(base=CityScenarioConfig(), seeds=(1, 2, 3, 4))
        small = grid.scaled(0.25)
        assert small.base.flows < grid.base.flows
        assert len(small.seeds) == 1

    def test_scaled_rejects_bad_factor(self):
        with pytest.raises(ConfigurationError):
            CityGridConfig().scaled(0.0)

    def test_sharded_city_sweep_equals_serial(self):
        serial = run_city(TINY_GRID, runner=serial_runner())
        with SweepRunner(jobs=2) as runner:
            sharded = run_city(TINY_GRID, runner=runner)
        assert sharded == serial

    def test_default_runner_compiles_each_trace_group_once(self, monkeypatch):
        compiles = _count_compiles(monkeypatch)
        points = run_city(FOUR_CELL_GRID)
        assert len(points) == 4
        assert compiles == [1]
        # The runner's table does not outlive it: outside any runner
        # every lookup compiles.
        group = trace_group_key(FOUR_CELL_GRID.base)
        build = partial(city_module.compile_city_traces, FOUR_CELL_GRID.base)
        assert shared_trace(group, build) is not shared_trace(group, build)
        assert compiles == [3]

    def test_pool_shards_receive_their_own_groups_compiled_once(
        self, monkeypatch
    ):
        # 2 trace groups (seeds) x 8 cells; at jobs=2 they go out in
        # 2-cell shards, each within one group.
        grid = dataclasses.replace(
            FOUR_CELL_GRID,
            sdp_grid=((1.0, 2.0, 4.0, 8.0), (1.0, 4.0, 16.0, 64.0)),
            seeds=(1, 2),
        )
        tasks = city_tasks(grid)
        groups = [trace_group_key(task.config) for task in tasks]
        assert len(set(groups)) == 2
        compiles = _count_compiles(monkeypatch)
        with SweepRunner(jobs=2) as runner:
            for _ in range(2):
                cells = runner.map(
                    _look_up_group, tasks,
                    shared_traces=city_module._group_traces,
                )
                assert runner.last_report.shards == 8
                assert not any(cell["compiled"] for cell in cells)
                assert all(cell["read_only"] for cell in cells)
                assert [cell["table"] for cell in cells] == [
                    [group] for group in groups
                ]
        # Each group compiled once, in the coordinator, over both maps.
        assert compiles == [2]

    def test_warm_rerun_compiles_nothing(self, monkeypatch, tmp_path):
        cold = run_city(
            FOUR_CELL_GRID, runner=SweepRunner(cache=ResultCache(tmp_path))
        )
        compiles = _count_compiles(monkeypatch)
        warm_runner = SweepRunner(cache=ResultCache(tmp_path))
        warm = run_city(FOUR_CELL_GRID, runner=warm_runner)
        assert compiles == [0]
        assert warm_runner.last_report.cache_hits == 4
        assert warm == cold

    def test_format_and_csv_cover_every_cell(self, tmp_path):
        points = run_city(TINY_GRID, runner=serial_runner())
        table = format_city(points)
        assert len(table.splitlines()) == len(points) + 1
        path = city_to_csv(points, tmp_path / "city.csv")
        rows = path.read_text().splitlines()
        assert len(rows) == len(points) + 1
        assert rows[0].startswith("topology,scheduler,sdps")

    def test_hybrid_grid_reports_what_the_engine_did(self, monkeypatch, tmp_path):
        """A hybrid grid's table and CSV carry each cell's fluid time
        fraction, segment count and demotion count; the same grid run
        pure keeps the pure columns only."""
        monkeypatch.setattr(hybrid_mod, "SPINUP", 500.0)
        monkeypatch.setattr(hybrid_mod, "MIN_FLUID", 500.0)
        pure_grid = CityGridConfig(
            base=CityScenarioConfig(
                flows=80, horizon=8_000.0, warmup=500.0, seed=3
            ),
            schedulers=("wtp",),
            sdp_grid=((1.0, 2.0, 4.0, 8.0),),
            utilizations=(0.8,),
            seeds=(3,),
        )
        grid = dataclasses.replace(
            pure_grid,
            base=dataclasses.replace(
                pure_grid.base, hybrid=HybridConfig(epsilon=0.5)
            ),
        )
        points = run_city(grid, runner=serial_runner())
        summary = points[0]["hybrid"]
        assert summary["fluid_time_fraction"] > 0
        expected = [
            f"{summary['fluid_time_fraction']:.4f}",
            str(summary["segments"]),
            str(len(summary["demotions"])),
        ]
        header, row = format_city(points).splitlines()
        assert header.split()[-3:] == ["frac", "segments", "demotions"]
        assert row.split()[-3:] == expected
        with city_to_csv(points, tmp_path / "hybrid.csv").open() as handle:
            (record,) = csv.DictReader(handle)
        assert record["fluid_time_fraction"] == repr(
            summary["fluid_time_fraction"]
        )
        assert record["segments"] == str(summary["segments"])
        assert record["demotions"] == str(len(summary["demotions"]))

        pure = run_city(pure_grid, runner=serial_runner())
        assert "fluid" not in format_city(pure)
        pure_csv = city_to_csv(pure, tmp_path / "pure.csv").read_text()
        assert pure_csv.splitlines()[0] == (
            "topology,scheduler,sdps,utilization,seed,packets,"
            "fidelity_error,mean_delays,ratios"
        )

    def test_city_tasks_wrap_cells(self):
        tasks = city_tasks(TINY_GRID)
        assert all(isinstance(t, CityTask) for t in tasks)
        assert [t.config for t in tasks] == TINY_GRID.cells()
