"""Trace persistence.

Arrival traces are the unit of reproducibility in this library (same
trace -> same experiment, any scheduler).  These helpers store traces
as compressed ``.npz`` (exact, fast) or as CSV (interoperable with
tcpdump-style post-processing pipelines: one line per packet with
``time,class,size``).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError
from .trace import ArrivalTrace

__all__ = [
    "save_trace",
    "load_trace",
    "save_trace_csv",
    "load_trace_csv",
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
