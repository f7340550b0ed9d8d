"""Tests that a sweep cell's cache key covers the code the cell runs.

A worker's cache keys hash the sources of its static import closure
(:func:`repro.runner.hashing.dependency_closure`).  Packages export
their names lazily, from a literal ``_EXPORTS`` table, so the closure
reaches a defining module through the table of the package a caller
imports from.  If it did not, ``from ..invariants import
InvariantChecker`` would reach no checker module, and an edit to the
checker would serve stale checked cells.  The load-bearing properties:

* every non-package ``repro`` module a tiny cell of each worker loads,
  run in a fresh interpreter, is in that worker's closure;
* a package's imports list every module its export table names;
* the statement walk behind :func:`module_imports` finds exactly the
  import nodes a full ``ast.walk`` finds, in every module.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from importlib.util import resolve_name
from pathlib import Path

import pytest

from repro.runner.hashing import (
    _module_source,
    _statements,
    dependency_closure,
    module_imports,
    package_modules,
)

SRC = Path(__file__).resolve().parents[1] / "src"

_SINGLE_HOP = """
from repro.experiments.common import SingleHopConfig
from repro.runner.tasks import SingleHopTask, single_hop_summary as worker
task = SingleHopTask(
    SingleHopConfig(utilization=0.9, horizon=3e3, warmup=200.0),
    compute_feasibility=True, check_invariants={checked},
)
"""

#: One tiny cell per worker, and per branch that imports more (the
#: invariant checker, the hybrid engine): each defines ``worker`` and
#: ``task``.
CELLS = {
    "single_hop": _SINGLE_HOP.format(checked=False),
    "single_hop_checked": _SINGLE_HOP.format(checked=True),
    "microscopic": """
from repro.experiments.common import SingleHopConfig
from repro.runner.tasks import MicroscopicTask, microscopic_summary as worker
config = SingleHopConfig(
    horizon=3e3, warmup=200.0, interval_taus=(100.0,),
    tap_windows=((500.0, 1500.0),),
)
task = MicroscopicTask(config, "bpr", 100.0, 500.0, 1500.0)
""",
    "multihop_checked": """
from repro.network.multihop import MultiHopConfig
from repro.runner.tasks import MultiHopTask, multihop_summary as worker
task = MultiHopTask(
    MultiHopConfig(
        hops=2, utilization=0.5, flow_packets=3, flow_rate_kbps=200.0,
        experiments=2, warmup=200.0, experiment_period=100.0, drain=500.0,
    ),
    check_invariants=True,
)
""",
    "city": """
from repro.scenarios.city import CityScenarioConfig, CityTask
from repro.scenarios.city import city_summary as worker
task = CityTask(CityScenarioConfig(flows=8, horizon=2_000.0, warmup=0.0))
""",
    "city_hybrid": """
from repro.scenarios.city import CityScenarioConfig, CityTask
from repro.scenarios.city import city_summary as worker
from repro.sim.hybrid import HybridConfig
task = CityTask(CityScenarioConfig(
    flows=8, horizon=2_000.0, warmup=0.0, hybrid=HybridConfig(epsilon=0.05),
))
""",
}

_REPORT = """
worker(task)
loaded = sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "repro" and not hasattr(module, "__path__")
)
print(json.dumps({"module": worker.__module__, "loaded": loaded}))
"""


def _run_cell(setup: str) -> dict:
    """What one cell, run alone in a fresh interpreter, loaded."""
    code = "import json, sys\n" + setup + _REPORT
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _packages() -> list[str]:
    return [
        name for name, path in package_modules().items()
        if path.name == "__init__.py"
    ]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_closure_covers_every_module_a_cell_loads(cell):
    report = _run_cell(CELLS[cell])
    closure = set(dependency_closure(report["module"]))
    assert set(report["loaded"]) <= closure, sorted(
        set(report["loaded"]) - closure
    )


@pytest.mark.parametrize("package", _packages())
def test_package_imports_list_every_module_of_its_table(package):
    table = importlib.import_module(package)._EXPORTS
    imports = module_imports(package)
    for module in table:
        assert resolve_name(module, package) in imports, module


def test_checked_cells_reach_the_checker_through_the_package_table():
    # experiments.common imports the checker from the package, inside
    # its checked branch; the table carries the closure on.
    assert "repro.invariants" in module_imports("repro.experiments.common")
    closure = dependency_closure("repro.runner.tasks")
    for module in ("checker", "conservation", "scheduler_checks"):
        assert f"repro.invariants.{module}" in closure


def _import_nodes(nodes) -> set[int]:
    return {
        id(node) for node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }


@pytest.mark.parametrize("name", sorted(package_modules()))
def test_statement_walk_finds_every_import_ast_walk_finds(name):
    tree = ast.parse(_module_source(name))
    assert _import_nodes(_statements(tree.body)) == _import_nodes(ast.walk(tree))


def test_statement_walk_reaches_every_kind_of_block():
    source = """
import a
def f():
    class C:
        import b
    with x:
        import c
    for i in y:
        pass
    else:
        import d
    try:
        import e
    except E:
        import f
    else:
        import g
    finally:
        import h
    match z:
        case 1:
            import i
    while w:
        pass
    else:
        if v:
            pass
        else:
            import j
"""
    tree = ast.parse(source)
    found = _import_nodes(_statements(tree.body))
    assert found == _import_nodes(ast.walk(tree))
    assert len(found) == 10
