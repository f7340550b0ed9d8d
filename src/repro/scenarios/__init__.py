"""City-scale scenario corpus for the sweep runner.

The paper's own grids top out at a few hundred cells of single-link or
4-hop-chain traffic.  This package generates the workloads the sweep
runner's shards, result store and shared traces
(:mod:`repro.runner.runner`) exist for: metro-aggregation
topologies (a star of branch chains converging on a hub, or a
three-layer fat-tree-lite), thousands of Pareto flows with heavy-tailed
packet-size mixes, swept over scheduler x SDP x utilization x seed
grids -- and, per cell, the paper's core question at that scale: how
close do the measured per-class delay ratios stay to the SDP targets
(DDP fidelity)?

The expensive part of a city cell is compiling its arrival traces, and
the traces depend only on the traffic geometry -- not on the scheduler
or the SDP vector.  Every cell that shares a traffic configuration
shares one *trace group*, compiled once per sweep runner (only for
cells that miss the result cache) and kept in its trace table; a pool
shard receives the groups its own cells replay.
"""

from .. import _lazy_exports

_EXPORTS = {
    ".generators": (
        "CITY_SIZES",
        "CITY_SIZE_PROBS",
        "TOPOLOGIES",
        "branch_flow_counts",
        "build_city_topology",
        "flow_classes",
        "heavy_tail_sizes",
    ),
    ".city": (
        "CityGridConfig",
        "CityScenarioConfig",
        "CityTask",
        "city_summary",
        "city_tasks",
        "city_to_csv",
        "compile_city_traces",
        "fidelity_curve",
        "fidelity_curve_base",
        "fidelity_curve_svg",
        "fidelity_curve_to_csv",
        "format_city",
        "format_fidelity_curve",
        "run_city",
        "trace_group_key",
    ),
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
