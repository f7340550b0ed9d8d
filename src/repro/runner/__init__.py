"""The sweep runner and its content-addressed result cache.

The training-sweep-shaped orchestrator behind every figure/table
driver.  :class:`SweepRunner` runs independent seeded cells -- in
process at ``jobs=1``, over a process pool otherwise -- and keeps one
contract: a parallel sweep is bit-identical to a serial one.  Each
``map`` call looks cells up in a :class:`ResultCache` keyed by config
hash + delta-aware code version, runs the misses in contiguous shards,
keeps the arrival traces its cells compiled in one trace table for its
later cells (:func:`shared_trace`), and merges everything back in task
order.  The cache is the one place a finished cell is kept: each
shard's results go into it as the shard ends, so a sweep that dies
midway resumes from it, and coordinator RAM stays O(shard).

``--explain-cache`` support lives in :mod:`repro.runner.explain`: the
by-task index lets a cold sweep say *which modules'* edits invalidated
it rather than just counting misses.
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache
from .explain import CellExplanation, ExplainReport, explain_cells, task_fingerprint
from .hashing import (
    canonical_payload,
    code_version,
    dependency_closure,
    fingerprint,
    module_imports,
    task_code_version,
    worker_code_version,
    worker_manifest,
)
from .runner import SweepReport, SweepRunner, cache_key, serial_runner, shared_trace
from .tasks import (
    MicroscopicTask,
    MultiHopTask,
    SingleHopTask,
    microscopic_summary,
    multihop_summary,
    single_hop_summary,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "canonical_payload",
    "code_version",
    "dependency_closure",
    "module_imports",
    "task_code_version",
    "worker_code_version",
    "worker_manifest",
    "fingerprint",
    "SweepReport",
    "SweepRunner",
    "shared_trace",
    "CellExplanation",
    "ExplainReport",
    "explain_cells",
    "task_fingerprint",
    "cache_key",
    "serial_runner",
    "SingleHopTask",
    "MicroscopicTask",
    "MultiHopTask",
    "single_hop_summary",
    "microscopic_summary",
    "multihop_summary",
]
