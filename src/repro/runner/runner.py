"""Parallel sweep execution: sharded dispatch over an on-disk results store.

The paper's evaluation is a grid of independent seeded simulations
(Figure 1 alone is 2 schedulers x 7 utilizations x 10 seeds), which is
embarrassingly parallel.  :class:`SweepRunner` runs a list of *tasks*
(small frozen dataclasses) through a module-level *worker* and hands
the JSON-able payloads back **in task order**, so a parallel sweep is
bit-identical to a serial one.  The parts of one ``map`` call:

* **Cache lookup.**  With a :class:`~repro.runner.cache.ResultCache`
  attached, each task is looked up by its content hash
  (:func:`cache_key`: task fingerprint + *delta-aware* worker code
  version + worker name); only misses are simulated.  The code
  component hashes only the modules in the worker's static import
  closure (:func:`~repro.runner.hashing.worker_code_version`), so
  editing a figure script or the CLI does not invalidate kernel-bound
  results, and a warm re-run executes nothing.
* **Shards.**  The pending cells are cut into contiguous shards.  At
  ``jobs=1`` (or with a single shard) they run in-process; otherwise
  one pool task runs a whole shard.  Either way each result is appended
  to the shard's file in a :class:`~repro.runner.store.ResultStore`
  and only a count comes back, so dispatch costs ~100 us per shard
  rather than per cell and the coordinator holds O(shard) results.
* **Traces.**  Workers find compiled arrival traces in one place, a
  *trace table*, through :func:`shared_trace`: a name (single-hop
  cells use :func:`~repro.experiments.common.trace_key`, city cells
  :func:`~repro.scenarios.city.trace_group_key`) and a ``build()`` that
  compiles the traces on a miss, once, for the later cells the table
  serves.  In-process the table is the runner's own and lasts across
  its ``map`` calls.  A pool shard gets a fresh one, shared by that
  shard's cells only, so no worker keeps traces between shards; with
  ``shared_traces=`` the coordinator compiles the traces of each
  shard's cells against the runner's table (once per runner) and the
  shard's table starts with them.  Another runner, even in the same
  process, starts empty, and a worker called outside any shard
  compiles every time.  Past :data:`TRACE_TABLE_ARRIVALS` arrivals a
  table drops its least recently used entries, and it marks every
  array it holds read-only, so no cell can change a later cell's
  arrivals.
* **Merge.**  Results are reassembled in task order from the cache
  (hits, read lazily) and a k-way merge over the shard files (fresh),
  and every fresh result is written to the cache together with its
  by-task index entry.  With ``consume=`` each ``(index, result)``
  streams through the callback instead of into a list, so coordinator
  memory stays bounded by the shard size whatever the grid size
  (``SweepReport.coordinator_peak_rss_mb`` records the observed peak).
* **Resume.**  Without ``store_dir`` the shard files live in a
  temporary directory that is deleted afterwards.  With it they
  survive a crash, and re-running the same grid salvages every complete
  record and executes only the missing cells.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

from .cache import ResultCache
from .hashing import (
    canonical_payload,
    fingerprint,
    worker_code_version,
    worker_manifest,
)
from .store import ResultStore, ShardWriter

__all__ = [
    "SweepRunner",
    "SweepReport",
    "serial_runner",
    "cache_key",
    "shared_trace",
]


# ----------------------------------------------------------------------
# Worker side (pool processes, or the coordinator itself at jobs=1)
# ----------------------------------------------------------------------
#: Arrival budget of one trace table: once it holds more, the least
#: recently used entries are dropped, never the newest one nor a pool
#: shard's seeds.  2^20 arrivals is about 24 MB of arrays; one Figure 1
#: utilization row at ``--scale 1`` (10 seeds of 63k-89k arrivals each)
#: fits.
TRACE_TABLE_ARRIVALS = 1 << 20


def _traces_of(value) -> list:
    """The arrival traces in a table entry: a single-hop trace, or a
    city trace group's per-branch list."""
    return value if isinstance(value, list) else [value]


class _TraceTable:
    """Compiled traces by name, least recently used first.

    An entry is whatever a :func:`shared_trace` ``build()`` returned.
    ``seeds`` are a pool shard's starting entries; the table keeps them
    whatever its budget, since the shard's own cells replay them.
    """

    def __init__(self, seeds: Optional[dict] = None) -> None:
        seeds = seeds or {}
        self._traces: OrderedDict[str, Any] = OrderedDict()
        self.arrivals = 0
        self._seeds = frozenset(seeds)
        for name, value in seeds.items():
            self.put(name, value)

    def get(self, name: str):
        value = self._traces.get(name)
        if value is not None:
            self._traces.move_to_end(name)
        return value

    def put(self, name: str, value) -> None:
        for trace in _traces_of(value):
            for array in (trace.times, trace.class_ids, trace.sizes):
                array.flags.writeable = False
            self.arrivals += len(trace)
        self._traces[name] = value
        # The entry just stored, and a seed, stay even over the budget:
        # the next cell to look it up would compile it again.
        for old in list(self._traces)[:-1]:
            if self.arrivals <= TRACE_TABLE_ARRIVALS:
                break
            if old not in self._seeds:
                dropped = _traces_of(self._traces.pop(old))
                self.arrivals -= sum(len(trace) for trace in dropped)


#: The trace table of the shard this process is running, or ``None``
#: outside a shard.
_ACTIVE_TABLE: Optional[_TraceTable] = None


def shared_trace(name: str, build: Callable[[], Any]):
    """The traces named ``name`` for this cell.

    Inside a runner's shard, the entry of the shard's trace table, or
    on a miss what ``build()`` returns, which the table keeps for the
    later cells it serves.  Outside any runner ``build()`` runs on every
    call.
    """
    table = _ACTIVE_TABLE
    if table is None:
        return build()
    value = table.get(name)
    if value is None:
        value = build()
        table.put(name, value)
    return value


@contextmanager
def _active(table: _TraceTable) -> Iterator[None]:
    """Make ``table`` the one :func:`shared_trace` consults."""
    global _ACTIVE_TABLE
    outer, _ACTIVE_TABLE = _ACTIVE_TABLE, table
    try:
        yield
    finally:
        _ACTIVE_TABLE = outer


def _run_shard(
    worker: Callable[[Any], Any],
    store_path: str,
    cells: Sequence[tuple[int, Any]],
    table: _TraceTable,
) -> int:
    """Run one shard against ``table``, streaming results to its file.

    Returns only the record count -- payloads stay on disk, which is
    what keeps the coordinator's pipe traffic and RAM O(1) per shard.
    """
    with _active(table), ShardWriter(store_path) as out:
        for index, task in cells:
            out.write(index, worker(task))
    return out.written


def _run_pool_shard(
    worker: Callable[[Any], Any],
    store_path: str,
    cells: Sequence[tuple[int, Any]],
    seeds: dict,
) -> int:
    """Run one pool shard against a fresh table that starts with ``seeds``.

    The table is built here, not pickled: numpy unpickles a read-only
    array as writeable, and ``put`` marks the seeds read-only again.
    """
    return _run_shard(worker, store_path, cells, _TraceTable(seeds))


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
def _rss_mb() -> float:
    """This process's current resident set size in MB (0.0 off-Linux)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


@dataclass
class SweepReport:
    """Accounting for one ``SweepRunner.map`` call."""

    total: int
    cache_hits: int
    resumed: int
    executed: int
    shards: int
    jobs: int
    elapsed: float
    worker: str
    coordinator_peak_rss_mb: float

    def summary(self) -> str:
        """One-line human-readable report (printed by the CLI)."""
        resumed = f", {self.resumed} resumed" if self.resumed else ""
        return (
            f"{self.worker}: {self.total} runs, {self.cache_hits} cache hits"
            f"{resumed}, {self.executed} executed in {self.shards} shards "
            f"(jobs={self.jobs}, {self.elapsed:.1f}s, "
            f"peak rss {self.coordinator_peak_rss_mb:.0f} MB)"
        )


def cache_key(worker: Callable[[Any], Any], task: Any) -> str:
    """Content hash addressing one (worker, task) result.

    The code component is the worker's *closure* version: only edits to
    modules the worker (transitively, statically) imports change it.
    """
    return fingerprint(
        {
            "worker": f"{worker.__module__}.{worker.__qualname__}",
            "code": worker_code_version(worker),
            "task": canonical_payload(task),
        }
    )


@dataclass
class SweepRunner:
    """Run independent sweep tasks, sharded, cached and resumable.

    Parameters
    ----------
    jobs:
        Worker process count; ``None`` means ``os.cpu_count()``.  With
        ``jobs=1`` (or a single shard) everything runs in-process -- no
        pool, no pickling -- which is also the default the experiment
        drivers construct when no runner is passed.  Otherwise pending
        cells go out in ``ceil(pending / (jobs * 4))``-cell shards
        (clamped to ``[1, 512]``): four waves per worker for load
        balance, capped so a shard file stays cheap to salvage.
    cache:
        Optional :class:`ResultCache`; ``None`` disables caching.
    store_dir:
        Directory for the shard files.  ``None`` uses a fresh temporary
        directory per ``map`` call (deleted afterwards -- no resume);
        a real path makes the sweep crash-resumable.  The store holds
        one grid at a time: opening a different grid resets it.
    explain:
        Collect an :class:`~repro.runner.explain.ExplainReport` per map
        call into ``self.explanations`` (requires a cache).
    """

    jobs: Optional[int] = 1
    cache: Optional[ResultCache] = None
    store_dir: Optional[str | Path] = None
    explain: bool = False
    reports: list[SweepReport] = field(default_factory=list, init=False)
    explanations: list[Any] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.jobs is None:
            self.jobs = os.cpu_count() or 1
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1: {self.jobs}")
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_size = 0
        self._traces = _TraceTable()

    # ------------------------------------------------------------------
    @property
    def last_report(self) -> Optional[SweepReport]:
        return self.reports[-1] if self.reports else None

    def _warm_pool(self, workers: int) -> ProcessPoolExecutor:
        """The persistent pool, (re)created when more workers are needed.

        Reusing one pool across ``map`` calls saves a fork+import round
        trip per grid; a pool sized for an earlier, larger grid is kept
        (idle workers are cheap, respawning is not).
        """
        if self._pool is not None and self._pool_size < workers:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=workers)
            self._pool_size = workers
        return self._pool

    def shutdown(self) -> None:
        """Release the persistent worker pool (idempotent)."""
        if getattr(self, "_pool", None) is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.shutdown()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def map(
        self,
        worker: Callable[[Any], Any],
        tasks: Sequence[Any],
        shared_traces: Optional[Callable[[list], dict]] = None,
        consume: Optional[Callable[[int, Any], None]] = None,
    ) -> Optional[list[Any]]:
        """Run ``worker`` over every task; results come back in task order.

        ``worker`` must be a module-level function (picklable) taking one
        task and returning a JSON-serializable payload -- that is what
        makes cached, stored and freshly computed results
        interchangeable.  ``shared_traces``, when given, maps the tasks
        of one pool shard to ``{name: traces}``, the entries its cells
        look up with :func:`shared_trace`; the coordinator calls it
        against the runner's own trace table, and the shard's table
        starts with what it returns.  With ``consume``, each
        ``(index, result)`` is streamed through the callback in
        ascending index order and ``None`` is returned -- the
        bounded-memory path.
        """
        started = time.perf_counter()
        peak_rss = _rss_mb()
        # Keys cost a closure hash on first use; a sweep with neither a
        # cache nor a kept store never reads them.
        keyed = self.cache is not None or self.store_dir is not None
        keys = [cache_key(worker, task) if keyed else None for task in tasks]
        hit = [self.cache is not None and key in self.cache for key in keys]

        if self.explain and self.cache is not None:
            from .explain import explain_cells

            self.explanations.append(
                explain_cells(self.cache, worker, tasks, keys)
            )

        misses = [index for index, cached in enumerate(hit) if not cached]
        store: Optional[ResultStore] = None
        pending: list[int] = []
        shards: list[list[int]] = []
        try:
            if misses:
                store = ResultStore(
                    self.store_dir
                    if self.store_dir is not None
                    else tempfile.mkdtemp(prefix="repro-sweep-")
                )
                on_disk = store.open_grid(
                    fingerprint(keys),
                    f"{worker.__module__}.{worker.__qualname__}",
                    len(tasks),
                )
                pending = [index for index in misses if index not in on_disk]
            if pending:
                size = max(
                    1, min(512, math.ceil(len(pending) / (self.jobs * 4)))
                )
                shards = [
                    pending[lo : lo + size]
                    for lo in range(0, len(pending), size)
                ]
                peak_rss = max(
                    peak_rss,
                    self._run_shards(
                        worker, tasks, shards, store, shared_traces
                    ),
                )
            results = self._merge(worker, tasks, keys, hit, store, consume)
            peak_rss = max(peak_rss, _rss_mb())
        finally:
            if store is not None and self.store_dir is None:
                shutil.rmtree(store.directory, ignore_errors=True)

        self.reports.append(
            SweepReport(
                total=len(tasks),
                cache_hits=len(tasks) - len(misses),
                resumed=len(misses) - len(pending),
                executed=len(pending),
                shards=len(shards),
                jobs=self.jobs,
                elapsed=time.perf_counter() - started,
                worker=worker.__qualname__,
                coordinator_peak_rss_mb=peak_rss,
            )
        )
        return results

    def _run_shards(
        self,
        worker: Callable[[Any], Any],
        tasks: Sequence[Any],
        shards: list[list[int]],
        store: ResultStore,
        shared_traces: Optional[Callable[[list], dict]],
    ) -> float:
        """Run every shard into ``store``; returns the peak RSS seen (MB).

        In-process shards share the runner's own trace table.  Each pool
        shard's table starts with ``shared_traces`` of its own cells,
        pickled with the shard; they are compiled against the runner's
        table, so a trace the shards share compiles once.
        """
        peak_rss = _rss_mb()
        if self.jobs == 1 or len(shards) == 1:
            for seq, shard in enumerate(shards):
                _run_shard(
                    worker,
                    str(store.shard_path(seq)),
                    [(i, tasks[i]) for i in shard],
                    self._traces,
                )
                peak_rss = max(peak_rss, _rss_mb())
            return peak_rss
        pool = self._warm_pool(min(self.jobs, len(shards)))
        futures = set()
        for seq, shard in enumerate(shards):
            seeds: dict = {}
            if shared_traces is not None:
                with _active(self._traces):
                    seeds = shared_traces([tasks[i] for i in shard])
            futures.add(
                pool.submit(
                    _run_pool_shard,
                    worker,
                    str(store.shard_path(seq)),
                    [(i, tasks[i]) for i in shard],
                    seeds,
                )
            )
            # Backpressure: keep at most 2 waves in flight so
            # pickled-task memory stays bounded on huge grids.
            if len(futures) >= self.jobs * 2:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    future.result()
                peak_rss = max(peak_rss, _rss_mb())
        for future in futures:
            future.result()
            peak_rss = max(peak_rss, _rss_mb())
        return peak_rss

    def _merge(
        self,
        worker: Callable[[Any], Any],
        tasks: Sequence[Any],
        keys: Sequence[str],
        hit: Sequence[bool],
        store: Optional[ResultStore],
        consume: Optional[Callable[[int, Any], None]],
    ) -> Optional[list[Any]]:
        """Reassemble results in task order; cache the fresh ones.

        Cache-hit payloads are read lazily *during* the merge and handed
        straight to ``consume`` (or appended), so they never pile up
        ahead of time; store records stream through the k-way merge one
        at a time.
        """
        if self.cache is not None:
            from .explain import task_fingerprint

            code = worker_code_version(worker)
            manifest = worker_manifest(worker)
        results: Optional[list[Any]] = None if consume else []
        records = store.iter_results() if store is not None else iter(())
        record = next(records, None)
        for index, task in enumerate(tasks):
            payload = self.cache.get(keys[index]) if hit[index] else None
            if payload is None:
                if hit[index]:  # blob corrupt, or deleted since the lookup
                    payload = worker(task)
                else:
                    while record is not None and record[0] < index:
                        record = next(records, None)
                    if record is None or record[0] != index:
                        raise RuntimeError(
                            f"sweep lost cell {index}: no store record and "
                            f"no cache hit (store: {store.directory})"
                        )
                    payload = record[1]
                    record = next(records, None)
                if self.cache is not None:
                    self.cache.put(keys[index], payload)
                    self.cache.put_index(
                        task_fingerprint(worker, task),
                        {"key": keys[index], "code": code, "modules": manifest},
                    )
            if consume is not None:
                consume(index, payload)
            else:
                results.append(payload)
        return results


def serial_runner() -> SweepRunner:
    """The default runner: inline execution, no cache, no processes."""
    return SweepRunner(jobs=1, cache=None)
