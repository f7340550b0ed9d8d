"""Why did each sweep cell hit or miss the cache?

The coarse answer a hit/miss counter gives ("14 of 28 missed") is
useless when deciding whether a cold sweep is *expected*: did the cells
miss because they are genuinely new work, or because a code change
invalidated them -- and if so, which modules?  This module turns the
:class:`~repro.runner.cache.ResultCache`'s by-task index into that
answer, cell by cell.

Statuses
--------
``hit``
    The blob for the cell's full key exists.
``new-task``
    No index entry: this (worker, task) pair was never computed here.
``code-changed``
    An index entry exists but was written under a different code
    version; ``changed_modules`` names the closure modules whose source
    hash differs (empty when the previous run recorded no manifest,
    e.g. a worker outside the package hashed with the global version).
``stale-entry``
    The index says this exact key was written before, but the blob is
    missing or unreadable (evicted, cleared, or corrupt).

The sweep runner collects explanations when constructed with
``explain=True``; the CLI surfaces them via ``--explain-cache``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .cache import ResultCache
from .hashing import canonical_payload, fingerprint, worker_manifest

__all__ = ["CellExplanation", "ExplainReport", "explain_cells", "task_fingerprint"]


def task_fingerprint(worker: Callable, task: Any) -> str:
    """Code-version-independent identity of one (worker, task) cell."""
    return fingerprint(
        {
            "worker": f"{worker.__module__}.{worker.__qualname__}",
            "task": canonical_payload(task),
        }
    )


@dataclass(frozen=True)
class CellExplanation:
    """One cell's cache verdict."""

    index: int
    key: str
    status: str  # hit | new-task | code-changed | stale-entry
    changed_modules: tuple[str, ...] = ()

    @property
    def hit(self) -> bool:
        return self.status == "hit"


@dataclass
class ExplainReport:
    """All cell explanations of one sweep, plus aggregate rendering."""

    worker: str
    cells: list[CellExplanation]

    @property
    def hits(self) -> int:
        return sum(1 for cell in self.cells if cell.hit)

    @property
    def hit_rate(self) -> float:
        return self.hits / len(self.cells) if self.cells else 1.0

    def status_counts(self) -> dict[str, int]:
        return dict(Counter(cell.status for cell in self.cells))

    def changed_modules(self) -> list[str]:
        """Distinct invalidating modules across all cells (sorted)."""
        modules: set[str] = set()
        for cell in self.cells:
            modules.update(cell.changed_modules)
        return sorted(modules)

    def summary(self) -> str:
        """Multi-line human-readable report (printed by the CLI)."""
        total = len(self.cells)
        counts = self.status_counts()
        parts = [f"{counts.get('hit', 0)}/{total} hits ({self.hit_rate:.1%})"]
        for status in ("new-task", "code-changed", "stale-entry"):
            if counts.get(status):
                parts.append(f"{counts[status]} {status}")
        lines = [f"[explain-cache] {self.worker}: " + ", ".join(parts)]
        modules = self.changed_modules()
        if modules:
            shown = ", ".join(modules[:6])
            more = f" (+{len(modules) - 6} more)" if len(modules) > 6 else ""
            lines.append(f"[explain-cache]   invalidated by: {shown}{more}")
        return "\n".join(lines)


def explain_cells(
    cache: ResultCache,
    worker: Callable,
    tasks: Sequence[Any],
    keys: Sequence[str],
    task_fps: Optional[Sequence[str]] = None,
) -> ExplainReport:
    """Explain every cell of a sweep against the cache's current state.

    ``keys`` are the full cache keys (code version folded in);
    ``task_fps`` the code-independent fingerprints (computed here when
    omitted).  Reads only index entries and blob existence -- never
    result payloads -- so explaining a 10^5-cell grid stays cheap.
    """
    manifest = worker_manifest(worker)
    cells: list[CellExplanation] = []
    for index, (task, key) in enumerate(zip(tasks, keys)):
        if key in cache:
            cells.append(CellExplanation(index, key, "hit"))
            continue
        task_fp = (
            task_fps[index] if task_fps is not None
            else task_fingerprint(worker, task)
        )
        entry = cache.get_index(task_fp)
        if entry is None:
            cells.append(CellExplanation(index, key, "new-task"))
        elif entry.get("key") == key:
            cells.append(CellExplanation(index, key, "stale-entry"))
        else:
            old_modules = entry.get("modules") or {}
            changed = tuple(
                sorted(
                    name
                    for name in set(manifest) | set(old_modules)
                    if manifest.get(name) != old_modules.get(name)
                )
            )
            cells.append(CellExplanation(index, key, "code-changed", changed))
    return ExplainReport(worker=worker.__qualname__, cells=cells)
