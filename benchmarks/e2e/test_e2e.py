"""Self-test of the end-to-end benchmark harness (``pytest benchmarks/e2e``).

Runs every workload at ``--smoke`` size: a few seconds each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict:
    """``{label: (last stdout line, --out file)}`` of three smoke invocations."""
    out_dir = tmp_path_factory.mktemp("e2e")
    found = {}
    for label, args in (
        ("seed1", ["--seed", "1", "--runs", "2"]),
        ("seed2", ["--seed", "2"]),
        ("traced", ["--seed", "1", "--trace"]),
    ):
        out = out_dir / f"{label}.json"
        proc = bench("--smoke", "--seconds", "1", "--out", str(out), *args)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        found[label] = (json.loads(proc.stdout.splitlines()[-1]), json.loads(out.read_text()))
        found[label][1]["path"] = str(out)
    return found


def test_every_named_metric_is_emitted_with_its_unit(results):
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    names = {w["name"] for w in SPEC["workloads"]}
    for label, expected, key in (
        ("seed1", e2e, "metrics"), ("traced", layers, "layers")
    ):
        line, summary = results[label]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(summary["workloads"]) == names
        for workload in summary["workloads"].values():
            emitted = {name: m["unit"] for name, m in workload[key].items()}
            assert emitted == expected


def test_single_workload_line_names_metrics_bare():
    proc = bench("--smoke", "--seconds", "0.1", "--workload", "city_hybrid",
                 "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_layer_self_times_add_up_to_the_traced_wall(results):
    for workload in results["traced"][1]["workloads"].values():
        for run_record in workload["runs"]:
            layers = run_record["layers"]
            attributed = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            total = attributed + layers["unattributed_s"]
            assert total == pytest.approx(layers["traced_wall_s"], rel=0.01)


def test_digest_is_stable_across_runs_and_changes_with_seed(results):
    seed1 = results["seed1"][1]["workloads"]
    seed2 = results["seed2"][1]["workloads"]
    traced = results["traced"][1]["workloads"]
    for name, workload in seed1.items():
        assert len({r["digest"] for r in workload["runs"]}) == 1
        assert traced[name]["digest"] == workload["digest"]
        assert seed2[name]["digest"] != workload["digest"]


def test_compare_reports_no_worse_against_itself_and_flags_digests(results, tmp_path):
    # Smoke runs are too short for tight quartiles; pin them so the
    # verdicts depend on the medians alone.
    summary = json.loads(Path(results["seed1"][1]["path"]).read_text())
    for workload in summary["workloads"].values():
        for m in workload["metrics"].values():
            m["q1"] = m["q3"] = m["median"]
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"host": {}, "a": summary}))
    same = bench("compare", f"{nested}#a", f"{nested}#a")
    assert same.returncode == 0, same.stdout
    rows = [line for line in same.stdout.splitlines()[1:] if "digest" not in line]
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert all(line.endswith("no worse") for line in rows)
    other = bench("compare", results["seed1"][1]["path"], results["seed2"][1]["path"])
    assert other.returncode == 1 and "DIFFERENT" in other.stdout


def test_verdicts():
    base = {"median": 10.0, "q1": 9.9, "q3": 10.1}
    assert run.verdict(base, {"median": 12.0, "q1": 11.9, "q3": 12.1}, "lower", 0.1)[0] == "worse"
    assert run.verdict(base, {"median": 12.0, "q1": 11.9, "q3": 12.1}, "higher", 0.1)[0] == "better"
    assert run.verdict(base, {"median": 10.5, "q1": 10.4, "q3": 10.6}, "lower", 0.1)[0] == "no worse"
    assert run.verdict(base, {"median": 10.0, "q1": 8.0, "q3": 12.0}, "lower", 0.1)[0] == "unresolved"


def test_times_are_calibrator_ticks_in_reference_seconds():
    tick = run.calibrator.TICK_S

    def one_pass(wall, ticks, warmup=False):
        return {"warmup": warmup, "traced": False, "wall": wall, "ticks": ticks,
                "digest": "d", "packet_hops": 100, "cells": 1, "failed": 0,
                "problems": []}

    # The host slows down 2x from the second steady pass on: the ticks
    # a pass takes do not change, its seconds do.
    passes = [one_pass(9.0, 9000, warmup=True), one_pass(1.0, 1000),
              one_pass(2.0, 1010), one_pass(2.1, 990)]
    result = {"peak_rss_mb": 50.0, "first_pass_excess_s": 8.0}
    setups = [(0.3, 300), (0.6, 310), (0.7, 290)]
    record = run.summarise_run("paper_table1", passes, result, setups)
    assert record["metrics"]["wall_s"] == pytest.approx(1000 * tick)
    assert record["metrics"]["pkts_per_s"] == pytest.approx(100 / (1000 * tick))
    assert record["metrics"]["setup_s"] == pytest.approx(300 * tick)
    assert record["raw"]["wall_s"] == 2.0 and record["raw"]["setup_s"] == 0.6
    assert not record["problems"]


def test_calibrator_counts_without_the_program(tmp_path):
    # The calibrator must not use the program: a change to the program
    # would otherwise change the unit it is measured in.
    assert "repro" not in (HERE / "calibrator.py").read_text()
    path = tmp_path / "ticks"
    run.calibrator.create(path)
    counter = run.calibrator.Counter(path)
    proc = subprocess.Popen([sys.executable, str(HERE / "calibrator.py"), str(path)])
    try:
        deadline = time.monotonic() + 30
        while counter() < 10 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert counter() >= 10
    finally:
        proc.kill()
        proc.wait()


def test_wrappers_are_removed_afterwards():
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.CityHybrid(1, smoke=True)
    workload.setup()
    hooks = tracer.Tracer().install()
    saved = list(hooks._patches._saved) + list(hooks.links._patches._saved)
    assert saved and all(vars(owner)[attr] is not original for owner, attr, original in saved)
    try:
        hooks.open(tracer.PASS_SPAN)
        workload.run("")
        hooks.close(0)
    finally:
        hooks.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in saved)
    assert {span[0] for span in hooks.spans} >= {"hybrid.controller", "hybrid.packet"}


def test_no_program_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "city_hybrid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
