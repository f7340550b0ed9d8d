"""Name -> scheduler factory registry.

Experiment configs and the CLI refer to schedulers by name; this module
centralizes construction.  Every factory takes the SDP tuple (or, for
parameterless disciplines like FCFS, the number of classes) so callers
can build any scheduler from the same experiment description.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import ConfigurationError
from .base import Scheduler

__all__ = ["make_scheduler", "available_schedulers"]


def _exported(name: str) -> type[Scheduler]:
    """The scheduler class ``repro.schedulers`` exports as ``name``.

    The package imports the class's module on first use, so a run
    loads only the schedulers it builds; its export table keeps every
    scheduler module in the import closure of this module.
    """
    from .. import schedulers

    return getattr(schedulers, name)


_FACTORIES: dict[str, Callable[[Sequence[float]], Scheduler]] = {
    "wtp": lambda sdps: _exported("WTPScheduler")(sdps),
    "bpr": lambda sdps: _exported("BPRScheduler")(sdps),
    "pad": lambda sdps: _exported("PADScheduler")(sdps),
    "hpd": lambda sdps: _exported("HPDScheduler")(sdps),
    "adaptive-wtp": lambda sdps: _exported("AdaptiveWTPScheduler")(sdps),
    # Quantized WTP: default epoch of one paper p-unit (11.2 units).
    "qwtp": lambda sdps: _exported("QuantizedWTPScheduler")(sdps, epoch=11.2),
    "fcfs": lambda sdps: _exported("FCFSScheduler")(len(sdps)),
    "strict": lambda sdps: _exported("StrictPriorityScheduler")(len(sdps)),
    # Capacity differentiation: SDPs double as static weights.
    "scfq": lambda sdps: _exported("SCFQScheduler")(sdps),
    "wfq": lambda sdps: _exported("SCFQScheduler")(sdps),
    "drr": lambda sdps: _exported("DRRScheduler")(sdps),
    # Additive model: SDPs are offsets in time units; shift so s_1 = 0.
    "additive": lambda sdps: _exported("AdditiveDelayScheduler")(
        [s - min(sdps) for s in sdps]
    ),
}


def available_schedulers() -> tuple[str, ...]:
    """Names accepted by :func:`make_scheduler`, sorted."""
    return tuple(sorted(_FACTORIES))


def make_scheduler(name: str, sdps: Sequence[float]) -> Scheduler:
    """Build the named scheduler for the given SDPs.

    ``sdps`` always has one entry per class; disciplines without
    differentiation parameters (FCFS, strict priority) only use its
    length.
    """
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; available: {available_schedulers()}"
        ) from None
    return factory(sdps)
