"""Plain tail drop: the arriving packet is always the victim.

The undifferentiated baseline for the loss-differentiation extension
(equivalent to passing no policy at all, but explicit so experiments can
name it).
"""

from __future__ import annotations

from typing import Optional

from ..sim.queues import ClassQueueSet
from .base import DropPolicy

__all__ = ["TailDropPolicy"]


class TailDropPolicy(DropPolicy):
    """Drop every packet that arrives to a full buffer."""

    def choose_victim(
        self, queues: ClassQueueSet, class_id: int, now: float
    ) -> Optional[int]:
        return None
