"""Parallel sweep execution: sharded dispatch, merged through the result cache.

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
  one pool task runs a whole shard, so dispatch costs ~100 us per shard
  rather than per cell.  A shard returns its ``(index, payload)`` list,
  each payload already through the one JSON round trip a cached payload
  makes, so fresh and cached results read alike.
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
* **Merge.**  As soon as a shard ends, its fresh results are written
  to the cache together, each with its by-task index entry; then they
  are handed out in task order, between cache hits read lazily as
  their turn comes.  With ``consume=`` each ``(index, result)`` streams
  through the callback instead of into a list, and a pool keeps at most
  ``jobs * 2`` shards submitted and not yet merged, so coordinator
  memory stays bounded by the shard size whatever the grid size
  (``SweepReport.coordinator_peak_rss_mb`` records the observed peak).
* **Resume.**  The cache is the one place a finished cell is kept.  A
  sweep that dies midway has cached every shard that ended, and a
  rerun with the same cache executes only the cells it had not
  finished.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence

from .cache import ResultCache
from .hashing import (
    canonical_payload,
    fingerprint,
    worker_code_version,
    worker_manifest,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

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


def _round_trip(payload: Any) -> Any:
    """``payload`` as the cache hands it back: tuples read as lists,
    non-string keys as strings."""
    return json.loads(json.dumps(payload))


def _run_shard(
    worker: Callable[[Any], Any],
    cells: Sequence[tuple[int, Any]],
    table: _TraceTable,
) -> list[tuple[int, Any]]:
    """Run one shard against ``table``; returns its ``(index, payload)`` list.

    Each payload makes its one JSON round trip here, in whichever
    process runs the shard, so a fresh payload reads exactly like a
    cached one.
    """
    with _active(table):
        return [(index, _round_trip(worker(task))) for index, task in cells]


def _run_pool_shard(
    worker: Callable[[Any], Any],
    cells: Sequence[tuple[int, Any]],
    seeds: dict,
) -> list[tuple[int, Any]]:
    """Run one pool shard against a fresh table that starts with ``seeds``.

    The table is built here, not pickled: numpy unpickles a read-only
    array as writeable, and ``put`` marks the seeds read-only again.
    """
    return _run_shard(worker, cells, _TraceTable(seeds))


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
    executed: int
    shards: int
    jobs: int
    elapsed: float
    worker: str
    coordinator_peak_rss_mb: float

    def summary(self) -> str:
        """One-line human-readable report (printed by the CLI)."""
        return (
            f"{self.worker}: {self.total} runs, {self.cache_hits} cache hits, "
            f"{self.executed} executed in {self.shards} shards "
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
        drivers construct when no runner is passed.  Pending cells go
        out in ``ceil(pending / (jobs * 4))``-cell shards (clamped to
        ``[1, 512]``): four waves per worker for load balance, capped so
        one shard's results stay small in the coordinator.
    cache:
        Optional :class:`ResultCache`; ``None`` disables caching, and
        with it resume.
    explain:
        Collect an :class:`~repro.runner.explain.ExplainReport` per map
        call into ``self.explanations`` (requires a cache).
    """

    jobs: Optional[int] = 1
    cache: Optional[ResultCache] = None
    explain: bool = False
    reports: list[SweepReport] = field(default_factory=list, init=False)
    explanations: list[Any] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.jobs is None:
            self.jobs = os.cpu_count() or 1
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1: {self.jobs}")
        if self.explain and self.cache is None:
            raise ValueError(
                "explain needs a cache: its by-task index says why a cell "
                "missed"
            )
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
        (idle workers are cheap, respawning is not).  The pool stack is
        imported here, so a process that never runs a pool never loads it.
        """
        from concurrent.futures import ProcessPoolExecutor

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
        makes cached and freshly computed results interchangeable.
        ``shared_traces``, when given, maps the tasks of one pool shard
        to ``{name: traces}``, the entries its cells look up with
        :func:`shared_trace`; the coordinator calls it against the
        runner's own trace table, and the shard's table starts with what
        it returns.  With ``consume``, each ``(index, result)`` is
        streamed through the callback in ascending index order and
        ``None`` is returned -- the bounded-memory path.
        """
        started = time.perf_counter()
        peak_rss = _rss_mb()
        cache = self.cache
        # Keys cost a closure hash on first use; a sweep without a cache
        # never reads them.
        keys = [
            cache_key(worker, task) if cache is not None else None
            for task in tasks
        ]
        hit = [cache is not None and key in cache for key in keys]

        if self.explain:
            from .explain import explain_cells

            self.explanations.append(explain_cells(cache, worker, tasks, keys))

        pending = [index for index, cached in enumerate(hit) if not cached]
        shards: list[list[int]] = []
        if pending:
            size = max(1, min(512, math.ceil(len(pending) / (self.jobs * 4))))
            shards = [
                pending[lo : lo + size] for lo in range(0, len(pending), size)
            ]
        if cache is not None:
            from .explain import task_fingerprint

            code = worker_code_version(worker)
            manifest = worker_manifest(worker)

        def ended(shard: list[tuple[int, Any]]) -> None:
            """Cache one shard's fresh results together, as it ends."""
            nonlocal peak_rss
            if cache is not None:
                for index, payload in shard:
                    cache.put(keys[index], payload)
                    cache.put_index(
                        task_fingerprint(worker, tasks[index]),
                        {"key": keys[index], "code": code, "modules": manifest},
                    )
            peak_rss = max(peak_rss, _rss_mb())

        # The shards cover the misses in ascending order, so the fresh
        # payloads come in the order the merge asks for them.
        fresh = (
            payload
            for shard in self._run_shards(
                worker, tasks, shards, shared_traces, ended
            )
            for _, payload in shard
        )
        results: Optional[list[Any]] = None if consume else []
        reruns = 0
        for index, task in enumerate(tasks):
            if not hit[index]:
                payload = next(fresh)
            else:
                payload = cache.get(keys[index])
                if payload is None:  # blob corrupt, or deleted since the lookup
                    rerun = _run_shard(worker, [(index, task)], self._traces)
                    ended(rerun)
                    reruns += 1
                    payload = rerun[0][1]
            if consume is not None:
                consume(index, payload)
            else:
                results.append(payload)

        self.reports.append(
            SweepReport(
                total=len(tasks),
                cache_hits=len(tasks) - len(pending) - reruns,
                executed=len(pending) + reruns,
                shards=len(shards) + reruns,
                jobs=self.jobs,
                elapsed=time.perf_counter() - started,
                worker=worker.__qualname__,
                coordinator_peak_rss_mb=max(peak_rss, _rss_mb()),
            )
        )
        return results

    def _run_shards(
        self,
        worker: Callable[[Any], Any],
        tasks: Sequence[Any],
        shards: list[list[int]],
        shared_traces: Optional[Callable[[list], dict]],
        ended: Callable[[list[tuple[int, Any]]], None],
    ) -> Iterator[list[tuple[int, Any]]]:
        """Each shard's ``(index, payload)`` list, in shard order.

        ``ended`` gets each list as soon as its shard ends -- in a pool,
        in the order they end -- so a shard that fails leaves every
        shard that ended before it, and every one still running then,
        in the cache.  In-process shards share the runner's own trace
        table.  Each pool shard's table starts with ``shared_traces``
        of its own cells, pickled with the shard; they are compiled
        against the runner's table, so a trace the shards share
        compiles once.
        """
        if self.jobs == 1 or len(shards) == 1:
            for shard in shards:
                results = _run_shard(
                    worker, [(i, tasks[i]) for i in shard], self._traces
                )
                ended(results)
                yield results
            return
        from concurrent.futures import FIRST_COMPLETED, wait

        pool = self._warm_pool(min(self.jobs, len(shards)))
        running: dict = {}  # future -> shard number
        done: dict[int, list[tuple[int, Any]]] = {}
        submitted = 0
        for seq in range(len(shards)):
            # At most jobs * 2 shards submitted and not yet merged, so a
            # consume= sweep stays O(shard) in the coordinator.
            while submitted < min(len(shards), seq + self.jobs * 2):
                shard = shards[submitted]
                seeds: dict = {}
                if shared_traces is not None:
                    with _active(self._traces):
                        seeds = shared_traces([tasks[i] for i in shard])
                future = pool.submit(
                    _run_pool_shard,
                    worker,
                    [(i, tasks[i]) for i in shard],
                    seeds,
                )
                running[future] = submitted
                submitted += 1
            try:
                while seq not in done:
                    finished, _ = wait(running, return_when=FIRST_COMPLETED)
                    for future in finished:
                        results = future.result()
                        ended(results)
                        done[running.pop(future)] = results
            except BaseException:
                # Cancel the shards not yet started; cache what the
                # running ones finish, so a rerun resumes past them.
                for future in running:
                    if not future.cancel() and future.exception() is None:
                        ended(future.result())
                raise
            yield done.pop(seq)


def serial_runner() -> SweepRunner:
    """The default runner: inline execution, no cache, no processes."""
    return SweepRunner(jobs=1, cache=None)
