"""Pareto interarrival process (the paper's traffic model).

The paper draws interarrivals from a Pareto distribution with shape
alpha = 1.9: finite mean, infinite variance, hence traffic that is
bursty over a wide range of timescales.  For shape alpha and scale
(minimum gap) x_m the density is f(x) = alpha x_m^alpha / x^(alpha+1)
for x >= x_m, with mean x_m * alpha / (alpha - 1) when alpha > 1.

Sampling uses inversion: x = x_m * U^(-1/alpha).
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from ..errors import ConfigurationError
from .base import InterarrivalProcess

__all__ = ["ParetoInterarrivals", "PAPER_PARETO_SHAPE"]

#: Shape used throughout the paper's simulations.
PAPER_PARETO_SHAPE = 1.9


class ParetoInterarrivals(InterarrivalProcess):
    """Pareto(alpha, x_m) gaps parameterized by their mean.

    Parameters
    ----------
    mean_gap:
        Desired mean interarrival time; the scale is derived as
        x_m = mean_gap * (alpha - 1) / alpha.
    shape:
        Tail index alpha; must exceed 1 so the mean exists.  The paper
        uses 1.9 (infinite variance).
    rng:
        Source of uniforms; pass a seeded ``numpy`` generator for
        reproducible runs.
    """

    def __init__(
        self,
        mean_gap: float,
        shape: float = PAPER_PARETO_SHAPE,
        rng: np.random.Generator | None = None,
    ) -> None:
        if mean_gap <= 0:
            raise ConfigurationError(f"mean_gap must be positive: {mean_gap}")
        if shape <= 1.0:
            raise ConfigurationError(
                f"Pareto shape must exceed 1 for a finite mean: {shape}"
            )
        self._mean = float(mean_gap)
        self.shape = float(shape)
        self.scale = self._mean * (self.shape - 1.0) / self.shape
        self._rng = rng if rng is not None else np.random.default_rng()
        self._inv_shape = 1.0 / self.shape

    def next_gap(self) -> float:
        # Inversion; 1 - U avoids U == 0 raising a zero-division.
        u = 1.0 - self._rng.random()
        return self.scale * u ** (-self._inv_shape)

    def draw_gaps(self, n: int) -> np.ndarray:
        # The uniform block and the 1-U flip are bit-identical to n
        # scalar draws, but the power must stay libm's ``pow`` (what
        # the scalar ``**`` calls): numpy's vectorized pow differs from
        # libm's by 1 ulp on ~5% of inputs, which is enough to flip a
        # near-tie scheduler decision and macroscopically diverge a
        # long run.  ``math.pow`` mapped over the block makes the same
        # libm call without per-gap bytecode; the scale multiply is one
        # IEEE multiply either way, so numpy does it.
        u = 1.0 - self._rng.random(n)
        gaps = np.fromiter(
            map(math.pow, u.tolist(), repeat(-self._inv_shape)),
            dtype=np.float64,
            count=n,
        )
        gaps *= self.scale
        return gaps

    @property
    def mean(self) -> float:
        return self._mean
