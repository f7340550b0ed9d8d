"""Trace persistence and zero-copy inter-process trace exchange.

Arrival traces are the unit of reproducibility in this library (same
trace -> same experiment, any scheduler).  These helpers store traces
as compressed ``.npz`` (exact, fast) or as CSV (interoperable with
tcpdump-style post-processing pipelines: one line per packet with
``time,class,size``).

The second half of the module is the sweep runner's **shared-memory
handle protocol**: a coordinator packs a trace's three arrays
into one ``multiprocessing.shared_memory`` block (:func:`share_trace`)
and ships workers only a :class:`SharedTraceHandle` -- name, length,
layout -- a few hundred bytes regardless of trace size.  Workers
:func:`attach_trace` and get numpy views straight into the block: no
pickling, no copy, one mapping per process.  When shared memory is
unavailable (``/dev/shm`` unmounted, exotic platforms), the same call
sites degrade to an :class:`InlineTraceHandle` that simply carries the
arrays and crosses process boundaries by pickle -- bit-identical
results, just slower.

Layout inside a block: ``float64 times | int64 class_ids | float64
sizes``, each ``count * 8`` bytes, in that order.  The handle stores
only ``count`` -- dtypes and order are part of the protocol version
(``SHM_PROTOCOL``), checked at attach time so a coordinator and worker
from different code versions never silently misread a block.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError
from .trace import ArrivalTrace

__all__ = [
    "save_trace",
    "load_trace",
    "save_trace_csv",
    "load_trace_csv",
    "SHM_PROTOCOL",
    "SharedTraceHandle",
    "InlineTraceHandle",
    "shm_available",
    "share_trace",
    "attach_trace",
    "publish_trace",
]


def save_trace(trace: ArrivalTrace, path: str | Path) -> Path:
    """Write a trace as compressed npz; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        times=trace.times,
        class_ids=trace.class_ids,
        sizes=trace.sizes,
    )
    # numpy appends .npz when missing; normalize the returned path.
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz"
    )


def load_trace(path: str | Path) -> ArrivalTrace:
    """Read a trace written by :func:`save_trace`."""
    with np.load(Path(path)) as data:
        try:
            return ArrivalTrace(
                times=data["times"].astype(float),
                class_ids=data["class_ids"].astype(np.int64),
                sizes=data["sizes"].astype(float),
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"{path} is not a trace archive (missing {exc})"
            ) from None


def save_trace_csv(trace: ArrivalTrace, path: str | Path) -> Path:
    """Write ``time,class,size`` lines (class is 1-based, as in the paper)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("time", "class", "size"))
        for time, cid, size in zip(trace.times, trace.class_ids, trace.sizes):
            writer.writerow((repr(float(time)), int(cid) + 1, repr(float(size))))
    return path


def load_trace_csv(path: str | Path) -> ArrivalTrace:
    """Read a CSV trace written by :func:`save_trace_csv` (or any file
    with a ``time,class,size`` header and 1-based classes)."""
    times, class_ids, sizes = [], [], []
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != [
            "time", "class", "size",
        ]:
            raise ConfigurationError(
                f"{path}: expected a 'time,class,size' header"
            )
        for row in reader:
            if not row:
                continue
            times.append(float(row[0]))
            class_ids.append(int(row[1]) - 1)
            sizes.append(float(row[2]))
    if any(cid < 0 for cid in class_ids):
        raise ConfigurationError(f"{path}: classes must be 1-based")
    return ArrivalTrace(
        np.asarray(times), np.asarray(class_ids, dtype=np.int64),
        np.asarray(sizes),
    )


# ----------------------------------------------------------------------
# Shared-memory trace exchange (the sweep runner's handle protocol)
# ----------------------------------------------------------------------
#: Bump on any change to the block layout below.
SHM_PROTOCOL = 1


@dataclass(frozen=True)
class SharedTraceHandle:
    """Picklable pointer to a trace living in a shared-memory block."""

    shm_name: str
    count: int
    protocol: int = SHM_PROTOCOL


@dataclass(frozen=True)
class InlineTraceHandle:
    """Fallback handle that carries the arrays themselves (pickled)."""

    times: np.ndarray = field(repr=False)
    class_ids: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)


def shm_available() -> bool:
    """Can this host create POSIX shared-memory blocks right now?

    Probes once per process with a tiny block; a failure (missing
    ``/dev/shm``, seccomp, permission) flips every publish to the
    inline fallback.
    """
    global _SHM_PROBED
    if _SHM_PROBED is None:
        try:
            from multiprocessing import shared_memory

            block = shared_memory.SharedMemory(create=True, size=16)
            block.close()
            block.unlink()
            _SHM_PROBED = True
        except Exception:
            _SHM_PROBED = False
    return _SHM_PROBED


_SHM_PROBED: bool | None = None


class _untracked_attach:
    """Suppress resource-tracker registration while attaching a block.

    The coordinator owns every block's lifetime (it unlinks them when
    the sweep finishes); attaching workers must not ALSO register the
    name.  Under the fork start method all workers share the
    coordinator's tracker process, so a worker-side register+unregister
    pair would *remove* the coordinator's own registration and the
    final unlink would hit the tracker's KeyError path.  Muting
    ``register`` for the attach call (workers are single-threaded, so
    the window is private) sidesteps both; Python 3.13's
    ``track=False`` makes this shim obsolete.
    """

    def __enter__(self):
        from multiprocessing import resource_tracker

        self._module = resource_tracker
        self._register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        return self

    def __exit__(self, *exc):
        self._module.register = self._register


def share_trace(trace: ArrivalTrace):
    """Copy a trace into a fresh shm block; ``(handle, block)``.

    The caller (coordinator) keeps ``block`` alive for the sweep's
    duration and must ``block.close(); block.unlink()`` afterwards --
    :class:`repro.runner.runner.SweepRunner` does this in its cleanup.
    """
    from multiprocessing import shared_memory

    count = len(trace)
    block = shared_memory.SharedMemory(create=True, size=max(1, count * 24))
    row = count * 8
    np.ndarray(count, np.float64, block.buf, 0)[:] = trace.times
    np.ndarray(count, np.int64, block.buf, row)[:] = trace.class_ids
    np.ndarray(count, np.float64, block.buf, 2 * row)[:] = trace.sizes
    return SharedTraceHandle(shm_name=block.name, count=count), block


def attach_trace(handle):
    """Resolve a handle into ``(trace, block_or_None)``.

    For a :class:`SharedTraceHandle` the returned trace's arrays are
    zero-copy views into the block -- the caller must keep the returned
    block referenced for as long as the trace is used (the sweep
    runner's per-process registry does).  Inline handles return their
    arrays directly with ``None``.
    """
    if isinstance(handle, InlineTraceHandle):
        return (
            ArrivalTrace(handle.times, handle.class_ids, handle.sizes),
            None,
        )
    if handle.protocol != SHM_PROTOCOL:
        raise ConfigurationError(
            f"shared-trace protocol mismatch: block speaks "
            f"v{handle.protocol}, this code v{SHM_PROTOCOL}"
        )
    from multiprocessing import shared_memory

    with _untracked_attach():
        block = shared_memory.SharedMemory(name=handle.shm_name)
    count = handle.count
    row = count * 8
    trace = ArrivalTrace(
        times=np.ndarray(count, np.float64, block.buf, 0),
        class_ids=np.ndarray(count, np.int64, block.buf, row),
        sizes=np.ndarray(count, np.float64, block.buf, 2 * row),
    )
    return trace, block


def publish_trace(trace: ArrivalTrace, use_shm: bool = True):
    """Best handle available: shm when possible, inline otherwise.

    Returns ``(handle, block_or_None)``; npz artifacts publish by
    loading first (``publish_trace(load_trace(path))``), which is the
    "decompress once in the coordinator, map everywhere" path.
    """
    if use_shm and shm_available():
        return share_trace(trace)
    return (
        InlineTraceHandle(
            times=trace.times, class_ids=trace.class_ids, sizes=trace.sizes
        ),
        None,
    )
