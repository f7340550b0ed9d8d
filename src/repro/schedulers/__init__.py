"""Packet schedulers: the paper's WTP and BPR plus baselines/extensions."""

from .. import _lazy_exports

_EXPORTS = {
    ".adaptive_wtp": ("AdaptiveWTPScheduler",),
    ".additive": ("AdditiveDelayScheduler",),
    ".base": ("Scheduler", "validate_sdps"),
    ".drr": ("DRRScheduler",),
    ".bpr": (
        "BPRScheduler",
        "FluidBPRTracker",
        "fluid_backlogs",
        "fluid_clearing_time",
    ),
    ".fcfs": ("FCFSScheduler",),
    ".hpd": ("HPDScheduler",),
    ".pad": ("PADScheduler",),
    ".quantized_wtp": ("QuantizedWTPScheduler",),
    ".registry": ("available_schedulers", "make_scheduler"),
    ".strict_priority": ("StrictPriorityScheduler",),
    ".wfq": ("SCFQScheduler", "WFQScheduler"),
    ".wtp": ("WTPScheduler",),
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
