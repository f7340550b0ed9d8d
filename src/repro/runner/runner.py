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
* **Shared traces.**  ``shared_traces(pending_tasks)`` returns named
  arrival traces the workers look up with :func:`shared_trace`.  It is
  called only when some cell misses the cache, and each trace is
  published once per sweep: through POSIX shared memory to pool workers
  (a ~110-byte handle, zero-copy views on attach), by reference
  in-process.  Hosts without shared memory fall back to pickled inline
  handles -- same results, just copies.
* **Traces.**  Each runner also keeps a *trace table*: the traces its
  workers compiled, by name (single-hop cells name theirs
  :func:`~repro.experiments.common.trace_key`), so a later cell of the
  same runner that replays the same arrivals reuses the compiled arrays
  instead of drawing them again.  :func:`shared_trace` looks a name up
  in order: a trace the coordinator published, then the table, then
  the worker's ``build()``, run once and stored.  In-process (``jobs=1``
  or a single shard) the table is the runner's own and lasts across its
  ``map`` calls; a pool shard gets a fresh one, shared by that shard's
  cells only, so no worker keeps traces between shards.  Another
  runner, even in the same process, starts empty, and a worker called
  outside any shard compiles every time.  Past
  :data:`TRACE_TABLE_ARRIVALS` arrivals a table drops its least
  recently used trace, and it marks every array it holds read-only, so
  no cell can change a later cell's arrivals.
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from ..traffic.io import attach_trace, publish_trace
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
#: Per-process registry of attached shared traces: name -> (trace,
#: block-or-None, shm-name-or-None).  The block reference keeps the
#: mapping alive for as long as the zero-copy views are used.
_PROCESS_TRACES: dict[str, tuple] = {}


#: Arrival budget of one trace table: once it holds more, the least
#: recently used trace is dropped.  2^20 arrivals is about 24 MB
#: of arrays; one Figure 1 utilization row at ``--scale 1`` (10 seeds of
#: 63k-89k arrivals each) fits.
TRACE_TABLE_ARRIVALS = 1 << 20


class _TraceTable:
    """Compiled traces by name, least recently used first."""

    def __init__(self) -> None:
        self._traces: OrderedDict[str, Any] = OrderedDict()
        self.arrivals = 0

    def get(self, name: str):
        trace = self._traces.get(name)
        if trace is not None:
            self._traces.move_to_end(name)
        return trace

    def put(self, name: str, trace) -> None:
        for array in (trace.times, trace.class_ids, trace.sizes):
            array.flags.writeable = False
        self._traces[name] = trace
        self.arrivals += len(trace)
        while self.arrivals > TRACE_TABLE_ARRIVALS:
            _, dropped = self._traces.popitem(last=False)
            self.arrivals -= len(dropped)


#: The trace table of the shard this process is running, or ``None``
#: outside a shard.
_ACTIVE_TABLE: Optional[_TraceTable] = None


def shared_trace(name: str, build: Optional[Callable[[], Any]] = None):
    """The trace named ``name`` for this cell.

    A trace the coordinator published for this sweep wins; inside a
    runner's shard, the shard's trace table comes next.  On a miss
    ``build()`` compiles the trace, and the table keeps it for the
    later cells it serves.  Without ``build`` a miss returns ``None`` and
    the caller compiles the trace itself (city workers) -- bit-identical
    by construction, only slower.
    """
    entry = _PROCESS_TRACES.get(name)
    if entry is not None:
        return entry[0]
    table = _ACTIVE_TABLE
    trace = table.get(name) if table is not None else None
    if trace is None and build is not None:
        trace = build()
        if table is not None:
            table.put(name, trace)
    return trace


def _register_traces(handles: dict) -> None:
    """Attach every handle not already attached in this process.

    Attach-once: a handle for an shm block this process already mapped
    (same block name) is skipped, so the N-shards-per-worker case pays
    one ``mmap`` per trace, not one per shard.
    """
    for name, handle in handles.items():
        token = getattr(handle, "shm_name", None)
        current = _PROCESS_TRACES.get(name)
        if current is not None and token is not None and current[2] == token:
            continue
        if current is not None and current[1] is not None:
            current[1].close()
        trace, block = attach_trace(handle)
        _PROCESS_TRACES[name] = (trace, block, token)


def _run_shard(
    worker: Callable[[Any], Any],
    store_path: str,
    cells: Sequence[tuple[int, Any]],
    handles: dict,
    table: _TraceTable,
) -> int:
    """Run one shard against ``table``, streaming results to its file.

    Returns only the record count -- payloads stay on disk, which is
    what keeps the coordinator's pipe traffic and RAM O(1) per shard.
    """
    global _ACTIVE_TABLE
    _register_traces(handles)
    outer, _ACTIVE_TABLE = _ACTIVE_TABLE, table
    try:
        with ShardWriter(store_path) as out:
            for index, task in cells:
                out.write(index, worker(task))
    finally:
        _ACTIVE_TABLE = outer
    return out.written


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
        interchangeable.  ``shared_traces``, when given, maps the
        cache-missing tasks to ``{name: ArrivalTrace}`` to publish for
        :func:`shared_trace` lookup.  With ``consume``, each
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
                traces = (
                    shared_traces([tasks[i] for i in pending])
                    if shared_traces is not None
                    else {}
                )
                peak_rss = max(
                    peak_rss,
                    self._run_shards(worker, tasks, shards, store, traces),
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
        traces: dict,
    ) -> float:
        """Run every shard into ``store``; returns the peak RSS seen (MB).

        Traces go to pool workers through shared memory (or pickled
        inline handles where the host has none); an in-process run
        registers the coordinator's own arrays and drops them after.
        """
        in_pool = self.jobs > 1 and len(shards) > 1
        handles: dict = {}
        blocks = []
        for name, trace in traces.items():
            handle, block = publish_trace(trace, use_shm=in_pool)
            handles[name] = handle
            if block is not None:
                blocks.append(block)
        peak_rss = _rss_mb()
        try:
            if not in_pool:
                for seq, shard in enumerate(shards):
                    _run_shard(
                        worker,
                        str(store.shard_path(seq)),
                        [(i, tasks[i]) for i in shard],
                        handles,
                        self._traces,
                    )
                    peak_rss = max(peak_rss, _rss_mb())
                return peak_rss
            pool = self._warm_pool(min(self.jobs, len(shards)))
            futures = set()
            for seq, shard in enumerate(shards):
                futures.add(
                    pool.submit(
                        _run_shard,
                        worker,
                        str(store.shard_path(seq)),
                        [(i, tasks[i]) for i in shard],
                        handles,
                        _TraceTable(),
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
        finally:
            for block in blocks:
                try:
                    block.close()
                    block.unlink()
                except OSError:  # pragma: no cover - double unlink
                    pass
            if not in_pool:
                for name in handles:
                    _PROCESS_TRACES.pop(name, None)

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
