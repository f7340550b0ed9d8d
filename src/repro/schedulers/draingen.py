"""Bind-time scheduler hooks for the chain drain kernel.

Every scheduler is column-native (see :mod:`repro.schedulers.base`),
so the chain drain kernel (:mod:`repro.sim.link`) runs each class's own
``choose_class`` and hooks; this module's one function hands it the
hooks when a chain member is bound.  Module and function keep their
names because the end-to-end benchmark's tracer
(``benchmarks/e2e/tracer.py``) patches
``repro.schedulers.draingen.generated_drain_pair`` to time and count
those binds, so the kernel looks the function up through this module.
"""

from __future__ import annotations

from .base import Scheduler

__all__ = ["generated_drain_pair"]


def generated_drain_pair(scheduler: Scheduler):
    """``(on_select, on_enqueue)`` bound to ``scheduler``, each ``None``
    when the scheduler keeps the base-class no-op."""
    on_select = scheduler.on_select
    if getattr(on_select, "__func__", None) is Scheduler.on_select:
        on_select = None
    on_enqueue = scheduler.on_enqueue
    if getattr(on_enqueue, "__func__", None) is Scheduler.on_enqueue:
        on_enqueue = None
    return on_select, on_enqueue
