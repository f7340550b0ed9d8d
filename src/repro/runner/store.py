"""Bounded on-disk results store for sweep shards.

A 10^5-cell grid must not hold 10^5 result payloads in the
coordinator's RAM.  Instead, :class:`~repro.runner.runner.SweepRunner`
shards append each finished cell to a *shard file* -- one JSON record
per line, ``{"i": <cell index>, "r": <payload>}`` -- and the
coordinator merges the files back into global cell order *streaming*,
holding one record at a time.

Layout::

    <store_dir>/
      MANIFEST.json          # grid fingerprint + worker + total cells
      shard-<run>-<k>.jsonl  # records in ascending cell-index order

Durability contract
-------------------
* Lines are flushed as written, so a crashed worker leaves a prefix of
  complete lines plus at most one truncated line.  :meth:`scan`
  tolerates (and reports) the truncated tail: every parseable record
  survives, so a resumed sweep reruns **only the missing cells**.
* The manifest binds the store to one grid: ``open_grid`` with a
  different fingerprint resets the store (stale records from another
  grid can never leak into this one's results).
* Workers never share a file.  Each shard file is written by exactly
  one shard run, in ascending index order, which makes the merge a
  k-way heap merge over sorted runs -- O(open files) memory.  A record
  that breaks a file's ascending order (never written by
  :class:`ShardWriter`) is treated like a truncated line by both
  :meth:`~ResultStore.scan` and :meth:`~ResultStore.iter_results`: not
  done, not merged, so its cell reruns.
* Cell payloads are deterministic, so a cell recorded twice (a crashed
  run's partial shard plus its rerun) is recorded *identically*; the
  merge deduplicates by index and the parallel == serial bit-identical
  guarantee is unaffected.
"""

from __future__ import annotations

import heapq
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, Optional

__all__ = ["ResultStore", "ShardWriter"]

_MANIFEST = "MANIFEST.json"


class ShardWriter:
    """Append records to one shard file, flushing every line.

    Used inside worker processes; the coordinator only ever hands out
    the path (so file naming stays centralized in the store).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = None
        self._last_index: Optional[int] = None
        self.written = 0

    def __enter__(self) -> "ShardWriter":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        return self

    def write(self, index: int, result: Any) -> None:
        if self._last_index is not None and index <= self._last_index:
            raise ValueError(
                f"shard records must be written in ascending cell order: "
                f"{index} after {self._last_index}"
            )
        self._last_index = index
        self._handle.write(
            json.dumps({"i": index, "r": result}, separators=(",", ":"))
            + "\n"
        )
        self._handle.flush()
        self.written += 1

    def __exit__(self, *exc) -> None:
        self._handle.close()
        self._handle = None


class ResultStore:
    """Coordinator-side view of a sharded sweep's on-disk results."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        #: Incremented by :meth:`open_grid`; part of new shard filenames
        #: so a resumed run never appends to a previous run's files.
        self.run = 0
        #: Cells with a parseable record on disk (filled by scan).
        self.done: set[int] = set()
        #: Shard files with a truncated or out-of-order line (crash evidence).
        self.partial_files: list[Path] = []

    # ------------------------------------------------------------------
    def open_grid(self, grid_fp: str, worker: str, total: int) -> set[int]:
        """Bind the store to one grid; returns indices already on disk.

        A manifest mismatch (different grid/worker/total) resets the
        store -- old shard files are deleted, nothing is salvaged.  A
        match scans existing shard files and salvages every complete
        record, so the caller can rerun only missing cells.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / _MANIFEST
        manifest = {"grid": grid_fp, "worker": worker, "total": total}
        previous = None
        try:
            previous = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            pass
        if previous is not None and {
            k: previous.get(k) for k in manifest
        } == manifest:
            self.run = int(previous.get("run", 0)) + 1
            self.done = self.scan()
        else:
            for stale in self.directory.glob("shard-*.jsonl"):
                stale.unlink(missing_ok=True)
            self.run = 0
            self.done = set()
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".tmp-")
        with os.fdopen(fd, "w", encoding="utf-8") as blob:
            json.dump({**manifest, "run": self.run}, blob)
        os.replace(tmp, manifest_path)
        return set(self.done)

    def shard_path(self, shard: int) -> Path:
        """Filename for shard ``shard`` of the current run."""
        return self.directory / f"shard-{self.run:04d}-{shard:05d}.jsonl"

    def shard_files(self) -> list[Path]:
        return sorted(self.directory.glob("shard-*.jsonl"))

    # ------------------------------------------------------------------
    def scan(self) -> set[int]:
        """Indices of every record the merge will yield (salvage pass).

        A truncated final line (killed worker mid-write) or an
        out-of-order record is skipped exactly as :meth:`iter_results`
        skips it; the file is remembered in ``partial_files`` so callers
        can report the evidence.
        """
        self.partial_files = []
        done: set[int] = set()
        for path in self.shard_files():
            saw_garbage = False
            for record in self._iter_file(path):
                if record is None:
                    saw_garbage = True
                    continue
                done.add(record[0])
            if saw_garbage:
                self.partial_files.append(path)
        return done

    @staticmethod
    def _iter_file(path: Path) -> Iterator:
        """Yield ``(index, result)`` per usable line; ``None`` for a
        truncated/corrupt line or one whose index does not ascend past
        the file's previous record (crash-cut tail in practice, but
        every line is guarded)."""
        last = -1
        try:
            with path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    try:
                        record = json.loads(line)
                        index = int(record["i"])
                        result = record["r"]
                    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                        yield None
                        continue
                    if index <= last:
                        yield None
                        continue
                    last = index
                    yield index, result
        except OSError:
            return

    def iter_results(self) -> Iterator[tuple[int, Any]]:
        """All records in ascending cell order, deduplicated, streamed.

        A k-way ``heapq.merge`` over the per-file sorted runs: memory
        is O(open files), not O(grid).  Records for the same index
        (partial shard + rerun) are identical by determinism; the first
        wins.
        """
        runs = [
            (record for record in self._iter_file(path) if record is not None)
            for path in self.shard_files()
        ]
        last_index = None
        for index, result in heapq.merge(*runs, key=lambda rec: rec[0]):
            if index == last_index:
                continue
            last_index = index
            yield index, result

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Delete every shard file and the manifest."""
        if self.directory.is_dir():
            for path in self.shard_files():
                path.unlink(missing_ok=True)
            (self.directory / _MANIFEST).unlink(missing_ok=True)
        self.done = set()
        self.partial_files = []
