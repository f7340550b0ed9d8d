"""Tests of the public API surface and the error hierarchy.

A downstream user programs against ``repro``'s top-level exports; these
tests pin that surface so refactors cannot silently break it.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runner.hashing import package_modules
from repro.errors import (
    ConfigurationError,
    FeasibilityError,
    ReproError,
    SchedulingError,
    SimulationError,
    TopologyError,
)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (ConfigurationError, FeasibilityError, SchedulingError,
                    SimulationError, TopologyError):
            assert issubclass(exc, ReproError)

    def test_configuration_error_is_value_error(self):
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(FeasibilityError, ValueError)
        assert issubclass(TopologyError, ValueError)

    def test_runtime_errors(self):
        assert issubclass(SimulationError, RuntimeError)
        assert issubclass(SchedulingError, RuntimeError)

    def test_one_except_clause_catches_everything(self):
        caught = []
        for exc in (ConfigurationError, SimulationError, TopologyError):
            try:
                raise exc("boom")
            except ReproError as err:
                caught.append(type(err))
        assert len(caught) == 3


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    @pytest.mark.parametrize(
        "name",
        [
            "SingleHopConfig", "run_single_hop", "MultiHopConfig",
            "run_multihop", "WTPScheduler", "BPRScheduler", "Simulator",
            "Link", "Packet", "ParetoInterarrivals",
            "ProportionalDelayModel", "check_proportional_feasibility",
        ],
    )
    def test_key_entry_points_exported(self, name):
        assert name in repro.__all__

    def test_subpackages_importable(self):
        for module in (
            "repro.core", "repro.sim", "repro.traffic", "repro.schedulers",
            "repro.network", "repro.dropping", "repro.theory",
            "repro.experiments", "repro.analysis", "repro.cli",
        ):
            assert importlib.import_module(module) is not None

    def test_subpackage_all_lists_resolve(self):
        for module_name in (
            "repro.core", "repro.sim", "repro.traffic", "repro.schedulers",
            "repro.network", "repro.dropping", "repro.theory",
            "repro.experiments", "repro.analysis",
        ):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.{name}"


class TestQuickstartContract:
    """The README quickstart must keep working verbatim."""

    def test_readme_quickstart(self):
        from repro import SingleHopConfig, run_single_hop

        result = run_single_hop(SingleHopConfig(
            scheduler="wtp",
            sdps=(1.0, 2.0, 4.0, 8.0),
            utilization=0.95,
            horizon=5e4, warmup=2e3, seed=7,
        ))
        ratios = result.successive_ratios
        assert len(ratios) == 3
        assert all(1.0 < r < 3.0 for r in ratios)
        assert isinstance(result.conservation_residual(), float)
        assert result.feasibility_report().feasible in (True, False)


SRC = Path(__file__).resolve().parents[1] / "src"

#: Every package of ``repro``; each exports its names lazily.
PACKAGES = sorted(
    name for name, path in package_modules().items()
    if path.name == "__init__.py"
)


class TestLazyExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_exported_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{package}.{name}"
            assert name in listed, f"{package}.{name}"

    def test_a_name_is_the_object_its_defining_module_holds(self):
        from repro.sim import Link
        from repro.sim.link import Link as defined

        assert Link is defined
        assert repro.SingleHopConfig is repro.experiments.common.SingleHopConfig

    def test_a_table_module_is_an_attribute(self):
        import repro.sim

        assert repro.sim.hybrid is importlib.import_module("repro.sim.hybrid")

    def test_unknown_names_raise_attribute_error(self):
        import repro.sim

        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.sim.nope
        assert not hasattr(repro, "not_a_name")


def _loaded(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    report = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", code + report],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


#: Drivers no Table 1 run and no ``--help`` executes.
DRIVERS = (
    "repro.experiments.figure1",
    "repro.experiments.figure2",
    "repro.experiments.figure3",
    "repro.experiments.figure45",
    "repro.experiments.ablations",
    "repro.experiments.lossy",
    "repro.experiments.specs",
    "repro.experiments.analytic_overlay",
)


class TestImportBudget:
    def test_table1_loads_only_what_a_table1_run_executes(self):
        loaded = _loaded("import repro.experiments.table1")
        unwanted = {
            *DRIVERS,
            "repro.sim.hybrid",
            "concurrent.futures.process",
        }
        assert not loaded & unwanted, sorted(loaded & unwanted)
        assert not [
            name for name in loaded
            if name.startswith(("repro.invariants", "repro.scenarios"))
        ]

    def test_cli_help_loads_no_driver(self):
        loaded = _loaded(
            "import runpy, sys\n"
            "sys.argv = ['repro-pdd', '--help']\n"
            "try:\n"
            "    runpy.run_module('repro.cli', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
        )
        assert "repro.runner.cache" in loaded  # the CLI module ran
        assert not [
            name for name in loaded if name.startswith("repro.experiments")
        ]
