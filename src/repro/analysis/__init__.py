"""Simulation output analysis (warm-up detection, batch-means CIs,
terminal plotting)."""

from .. import _lazy_exports

_EXPORTS = {
    ".ascii_plot": ("bar_chart", "box_row", "scatter", "sparkline"),
    ".probing": ("ProbeInjector",),
    ".stats": ("BatchMeansResult", "batch_means", "mser_warmup"),
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
