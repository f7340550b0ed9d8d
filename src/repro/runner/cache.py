"""Content-addressed on-disk result cache for sweep runs.

The cache is the one place a sweep keeps a finished cell: the sweep
runner writes each shard's fresh results here as soon as the shard
ends, so a sweep killed midway resumes from it, and its rerun executes
only the cells no finished shard covered.

Layout: one JSON blob per result under ``<cache_dir>/<key[:2]>/<key>.json``
where ``key`` is the SHA-256 cache key of (worker, code version, task).
Writes are atomic (temp file + rename) so a killed sweep never leaves a
truncated entry, and a corrupt/unreadable entry reads as a miss rather
than an error.  Invalidation is implicit: a changed config hashes to a
new key, and a change to any module in the *worker's dependency
closure* changes the code-version component of that worker's keys (see
:mod:`repro.runner.hashing` -- modules outside the closure no longer
invalidate anything).

Alongside the result blobs, the sweep runner maintains a small *by-task
index* under ``<cache_dir>/by-task/``: one JSON per (worker, task)
fingerprint recording the cache key last written for that cell plus the
per-module manifest behind it.  The index never serves results -- it
exists so ``--explain-cache`` (:mod:`repro.runner.explain`) can say
*why* a cell missed: never computed, or computed under code whose
changed modules it can name.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional

__all__ = ["ResultCache", "DEFAULT_CACHE_DIR"]

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


class ResultCache:
    """Get/put JSON payloads addressed by content hash."""

    def __init__(self, directory: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Where the blob for ``key`` lives (two-level fan-out)."""
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Any]:
        """Cached payload for ``key``, or ``None`` on a miss."""
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as blob:
                entry = json.load(blob)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if entry.get("key") != key:  # paranoia: moved/renamed blob
            self.misses += 1
            return None
        self.hits += 1
        return entry["result"]

    def put(self, key: str, result: Any, meta: Optional[dict] = None) -> Path:
        """Atomically store ``result`` (a JSON-able payload) under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"key": key, "result": result}
        if meta:
            entry["meta"] = meta
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as blob:
                # json.dumps encodes in C; json.dump always takes the
                # pure-Python encoder.  The text is the same.
                blob.write(json.dumps(entry, separators=(",", ":")))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    # By-task index (explain-cache support)
    # ------------------------------------------------------------------
    def index_path_for(self, task_fp: str) -> Path:
        """Where the by-task index entry for ``task_fp`` lives."""
        return self.directory / "by-task" / task_fp[:2] / f"{task_fp}.json"

    def put_index(self, task_fp: str, entry: dict) -> Path:
        """Atomically record the latest cache key written for a cell.

        ``entry`` carries ``{"key", "code", "modules"}`` -- the cache
        key, its code-version component, and the per-module manifest it
        was computed from.
        """
        path = self.index_path_for(task_fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as blob:
                blob.write(
                    json.dumps({"task": task_fp, **entry}, separators=(",", ":"))
                )
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def get_index(self, task_fp: str) -> Optional[dict]:
        """Last index entry for a cell, or ``None`` (corrupt == absent)."""
        try:
            with self.index_path_for(task_fp).open("r", encoding="utf-8") as blob:
                entry = json.load(blob)
        except (OSError, json.JSONDecodeError):
            return None
        if entry.get("task") != task_fp:
            return None
        return entry

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every cached blob (and the by-task index); returns how
        many result blobs were removed."""
        removed = 0
        if self.directory.is_dir():
            for blob in self.directory.glob("*/*.json"):
                blob.unlink(missing_ok=True)
                removed += 1
            for blob in self.directory.glob("by-task/*/*.json"):
                blob.unlink(missing_ok=True)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResultCache({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
