"""Experiment harnesses: one module per paper figure/table + ablations."""

from .. import _lazy_exports

_EXPORTS = {
    ".common": (
        "SingleHopConfig",
        "SingleHopResult",
        "generate_trace",
        "replay_through_scheduler",
        "run_single_hop",
    ),
    ".figure1": (
        "SDP_RATIO_2",
        "SDP_RATIO_4",
        "FigureOneConfig",
        "FigureOnePoint",
        "format_figure1",
        "run_figure1",
    ),
    ".figure2": (
        "FigureTwoConfig",
        "FigureTwoPoint",
        "format_figure2",
        "run_figure2",
    ),
    ".figure3": (
        "FigureThreeBox",
        "FigureThreeConfig",
        "format_figure3",
        "run_figure3",
    ),
    ".figure45": (
        "MicroscopicConfig",
        "MicroscopicViews",
        "format_figure45",
        "run_figure45",
        "sawtooth_score",
    ),
    ".analytic_overlay": (
        "OverlayRow",
        "format_overlay",
        "run_analytic_overlay",
    ),
    ".lossy": ("LossyConfig", "LossyPoint", "format_lossy", "run_lossy_sweep"),
    ".specs": ("load_spec", "run_spec", "run_spec_file"),
    ".table1": (
        "TableOneCell",
        "TableOneConfig",
        "format_table1",
        "run_table1",
    ),
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
