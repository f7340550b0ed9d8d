"""Closed-form queueing results used to validate the simulator."""

from .. import _lazy_exports

_EXPORTS = {
    ".kleinrock": (
        "proportional_delays_mg1",
        "tdp_heavy_load_ratio",
        "tdp_waits",
    ),
    ".mg1": (
        "ServiceDistribution",
        "md1_mean_wait",
        "mg1_mean_wait",
        "mm1_mean_wait",
        "residual_work",
    ),
    ".priority": (
        "aggregate_residual",
        "per_class_services",
        "strict_priority_waits",
    ),
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
