"""Absolute-DiffServ edge behaviours (Premium/Assured), for contrast."""

from .. import _lazy_exports

_EXPORTS = {
    ".token_bucket": ("AssuredMarker", "PremiumPolicer", "TokenBucket"),
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
