"""Traffic models: interarrival processes, packet sizes, load mixes."""

from .. import _lazy_exports

_EXPORTS = {
    ".base": ("InterarrivalProcess", "PacketSizeSampler"),
    ".compile": (
        "DEFAULT_CHUNK",
        "ArrivalCursor",
        "CompiledMixedSource",
        "CompiledSource",
    ),
    ".deterministic": ("ConstantInterarrivals",),
    ".ecn": ("ECNMarker", "ECNSource"),
    ".io": ("load_trace", "load_trace_csv", "save_trace", "save_trace_csv"),
    ".mix": (
        "FIGURE2_LOAD_DISTRIBUTIONS",
        "PAPER_DEFAULT_LOADS",
        "ClassLoadDistribution",
        "uniform_loads",
    ),
    ".mmpp": ("MMPPInterarrivals",),
    ".onoff": ("OnOffInterarrivals",),
    ".pareto": ("PAPER_PARETO_SHAPE", "ParetoInterarrivals"),
    ".poisson": ("PoissonInterarrivals",),
    ".sizes": (
        "DiscretePacketSizes",
        "FixedPacketSize",
        "paper_trimodal_sizes",
    ),
    ".source": ("PacketIdAllocator", "TrafficSource"),
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
