"""Proportional Differentiated Services -- SIGCOMM 1999 reproduction.

A from-scratch Python implementation of Dovrolis, Stiliadis &
Ramanathan's proportional delay differentiation model, its two packet
schedulers (WTP and BPR), the baseline disciplines it is compared
against, and the discrete-event simulation substrate that regenerates
every figure and table of the paper's evaluation.

Quickstart
----------
>>> from repro import SingleHopConfig, run_single_hop
>>> result = run_single_hop(SingleHopConfig(scheduler="wtp",
...                                         utilization=0.95,
...                                         horizon=2e5, warmup=1e4))
>>> [round(r, 1) for r in result.successive_ratios]  # doctest: +SKIP
[2.0, 2.0, 2.0]

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.

Every package of ``repro`` exports its public names lazily (PEP 562):
its ``__init__`` holds one literal table, ``_EXPORTS``, from each
module it re-exports to the names that module exports, and a name's
module is imported when the name is first looked up.  ``import repro``
therefore loads nothing but this file, and a process imports only the
modules its run executes.  The sweep cache's import closure reads the
same tables (:func:`repro.runner.hashing.module_imports`).
"""

import importlib

__version__ = "1.0.0"


def _lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` of a package with lazy exports.

    ``exports`` is the package's ``_EXPORTS`` table: each module it
    re-exports from, relative to the package (``".engine"``), mapped to
    the names that module exports.  ``__getattr__`` imports a name's
    module on the name's first lookup and keeps the value in
    ``namespace``, the package's globals, so later lookups never reach
    it; a module of the table is an attribute too (``repro.sim.hybrid``).
    Any other name raises ``AttributeError``.
    """
    package = namespace["__name__"]
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = owners.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        elif "." + name in exports:
            value = importlib.import_module("." + name, package)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *owners})

    return __getattr__, __dir__, list(owners)


_EXPORTS = {
    ".core": (
        "DelayDifferentiationParameters",
        "ProportionalDelayModel",
        "check_feasibility",
        "check_proportional_feasibility",
        "compare_flow_percentiles",
        "conservation_residual",
        "ddps_from_sdps",
        "fcfs_mean_delay",
        "sdps_from_ddps",
        "summarize_rd",
    ),
    ".errors": (
        "ConfigurationError",
        "FeasibilityError",
        "ReproError",
        "SchedulingError",
        "SimulationError",
        "TopologyError",
    ),
    ".experiments": ("SingleHopConfig", "SingleHopResult", "run_single_hop"),
    ".network": ("MultiHopConfig", "MultiHopResult", "RoutedNetwork", "run_multihop"),
    ".runner": ("ResultCache", "SweepRunner", "serial_runner"),
    ".schedulers": (
        "AdaptiveWTPScheduler",
        "BPRScheduler",
        "DRRScheduler",
        "FCFSScheduler",
        "HPDScheduler",
        "PADScheduler",
        "SCFQScheduler",
        "StrictPriorityScheduler",
        "WTPScheduler",
        "make_scheduler",
    ),
    ".sim": ("DelayMonitor", "Link", "Packet", "Simulator"),
    ".traffic": (
        "ClassLoadDistribution",
        "ParetoInterarrivals",
        "PoissonInterarrivals",
        "TrafficSource",
        "paper_trimodal_sizes",
    ),
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
__all__.insert(0, "__version__")
