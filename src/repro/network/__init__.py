"""Multi-hop network substrate for the Section 6 user-perspective study."""

from .. import _lazy_exports

_EXPORTS = {
    ".crosstraffic": ("MixedClassSource",),
    ".flows": ("FlowRecorder", "UserFlow"),
    ".multihop": (
        "LINK_CAPACITY_BYTES_PER_MS",
        "MultiHopConfig",
        "MultiHopResult",
        "run_multihop",
    ),
    ".routed": ("RoutedNetwork", "RouteDemux"),
    ".topology": ("FlowDemux",),
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
