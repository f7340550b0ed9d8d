"""Core: the proportional differentiation model, feasibility and metrics."""

from .. import _lazy_exports

_EXPORTS = {
    ".conservation": (
        "conservation_residual",
        "fcfs_mean_delay",
        "fcfs_mean_delay_per_class",
        "fcfs_waiting_times",
        "subset_delay_function",
    ),
    ".ddp": (
        "DelayDifferentiationParameters",
        "ddps_from_sdps",
        "sdps_from_ddps",
    ),
    ".delay_curve": ("DelayCurve", "estimate_delay_curve", "thin_trace"),
    ".feasibility": (
        "FeasibilityReport",
        "check_feasibility",
        "check_proportional_feasibility",
        "proper_subsets",
    ),
    ".metrics": (
        "EndToEndComparison",
        "PercentileSummary",
        "compare_flow_percentiles",
        "interval_rd",
        "rd_series",
        "successive_ratio_rd",
        "summarize_rd",
    ),
    ".model": ("AdditiveDelayModel", "ProportionalDelayModel"),
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
