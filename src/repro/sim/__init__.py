"""Discrete-event simulation substrate (kernel, packets, queues, links)."""

from .. import _lazy_exports

_EXPORTS = {
    ".engine": ("Simulator",),
    ".events": ("EventHandle",),
    ".hybrid": ("HybridConfig", "HybridController", "run_hybrid_city"),
    ".link": ("Link", "PacketSink"),
    ".monitor": (
        "BacklogSampler",
        "DelayMonitor",
        "IntervalDelayMonitor",
        "PacketTap",
        "ThroughputMonitor",
    ),
    ".packet": ("Packet",),
    ".process": ("AsyncQueue", "Event", "Process", "spawn"),
    ".queues": ("ClassQueueSet",),
    ".rng": ("RandomStreams",),
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
