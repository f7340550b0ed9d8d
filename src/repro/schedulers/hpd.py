"""Hybrid Proportional Delay (HPD) scheduler -- extension.

Combines the two feedback signals of WTP (instantaneous head waiting
time: good short-timescale behaviour, inaccurate long-run ratios in
moderate load) and PAD (long-run normalized averages: exact long-run
ratios, noisy short-timescale behaviour).  The head-of-line metric is

    m_i(t) = g * s_i * w_i(t) / W  +  (1 - g) * a_i(t) / A

with w_i the head waiting time, a_i the PAD normalized-average metric,
and W, A running normalizers (the maxima seen so far) that put the two
terms on comparable scales.  g = 1 degenerates to WTP, g = 0 to PAD; the
authors' follow-on work found g around 0.875 a good compromise, which is
the default here.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Sequence

from ..errors import ConfigurationError
from .base import Scheduler, validate_sdps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.hybrid import FluidSplitContext

__all__ = ["HPDScheduler", "hpd_fluid_map"]


class HPDScheduler(Scheduler):
    """Convex combination of the WTP and PAD head-of-line metrics."""

    name = "hpd"

    def __init__(self, sdps: Sequence[float], g: float = 0.875) -> None:
        if not 0.0 <= g <= 1.0:
            raise ConfigurationError(f"g must be in [0, 1]: {g}")
        self.sdps = validate_sdps(sdps)
        self.g = float(g)
        super().__init__(len(self.sdps))
        self._delay_sums = [0.0] * self.num_classes
        self._delay_counts = [0] * self.num_classes
        self._wtp_scale = 1.0
        self._pad_scale = 1.0

    def choose_class(self, now: float) -> int:
        best_class = -1
        best_metric = -inf
        heads = self.queues.head_arrivals
        sdps = self.sdps
        sums = self._delay_sums
        counts = self._delay_counts
        g = self.g
        # Normalizers are frozen for the duration of one selection so
        # every candidate is scored on the same scale; they are updated
        # from this round's observations afterwards.
        inv_w = 1.0 / self._wtp_scale
        inv_a = 1.0 / self._pad_scale
        max_wtp = self._wtp_scale
        max_pad = self._pad_scale
        for cid in range(self.num_classes - 1, -1, -1):
            arrived = heads[cid]
            if arrived == inf:
                continue
            head_wait = now - arrived
            wtp_term = sdps[cid] * head_wait
            pad_term = (sums[cid] + head_wait) / (counts[cid] + 1) * sdps[cid]
            if wtp_term > max_wtp:
                max_wtp = wtp_term
            if pad_term > max_pad:
                max_pad = pad_term
            metric = g * wtp_term * inv_w + (1.0 - g) * pad_term * inv_a
            if metric > best_metric:
                best_metric = metric
                best_class = cid
        self._wtp_scale = max_wtp
        self._pad_scale = max_pad
        return best_class

    def on_select(
        self, cid: int, arrived_at: float, size: float, meta, now: float
    ) -> None:
        self._delay_sums[cid] += now - arrived_at
        self._delay_counts[cid] += 1


# ----------------------------------------------------------------------
# Fluid model (hybrid engine)
# ----------------------------------------------------------------------
def hpd_fluid_map(ctx: "FluidSplitContext") -> list[float]:
    """Relative per-class delays of the HPD fluid model.

    Both of HPD's ingredients target the same stationary fixed point:
    WTP's head-wait metric approaches the proportional model (Eq 3) in
    heavy load, and PAD's normalized-average metric (Eq 2) enforces it
    at every load.  Their convex combination therefore shares the fixed
    point -- ``g`` only blends *transient* behaviour -- so the fluid
    split is the proportional model ``d_i`` proportional to ``1/s_i``,
    with calibration refining the constant-of-motion once packet
    samples exist.
    """
    return [1.0 / s for s in ctx.sdps]
