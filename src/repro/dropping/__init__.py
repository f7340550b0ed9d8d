"""Loss differentiation (the paper's future-work direction)."""

from .. import _lazy_exports

_EXPORTS = {
    ".base": ("DropPolicy",),
    ".plr": ("PLRDropper", "validate_ldps"),
    ".red": ("REDDropper", "REDGate", "RIODropper"),
    ".tail_drop": ("TailDropPolicy",),
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
