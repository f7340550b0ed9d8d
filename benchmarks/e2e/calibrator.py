"""Host-speed calibrator of the end-to-end benchmark.

The benchmark's host is shared: neighbour load changes its speed by up
to 2x, in phases from under a second to many minutes, and CPU time
follows wall time, so raw times measure the neighbours.  ``run.py``
therefore starts this calibrator next to the program, pinned to the
same CPU at a lower priority (``nice`` +:data:`NICE`).  The kernel then
shares that CPU between the two by fixed weights, about 3 : 1, so while
the program computes, the calibrator's progress integrates the CPU's
speed over exactly the same stretch of time.  The program's cost is
read as the calibrator work done meanwhile -- *ticks* -- instead of
seconds: a slow phase lengthens both the program's time and the time
one tick takes.

A tick is one round of a four-class strict-priority server over a heap
of slotted objects, deques and a dict -- interpreter-bound work like
the simulator's.  Of the calibrators tried side by side (an integer
loop, this server, random reads of a large list of dicts, numpy
kernels), its ticks followed the program's passes best through the
host's phases; the memory-bound ones followed them worst.

Run as ``calibrator.py COUNTER_FILE``: it counts ticks into the first
8 bytes of ``COUNTER_FILE`` (mapped shared) until it is killed or its
parent exits.  :class:`Counter` reads them.
"""

from __future__ import annotations

import heapq
import mmap
import os
import random
import sys
from collections import deque
from pathlib import Path

#: Niceness added to the calibrator: weight 335 against the program's
#: 1024, so it takes about a quarter of the CPU.
NICE = 5

#: Reference seconds per tick: a reference second is about one second
#: of the program running alone on the reference host (2 vCPUs, Intel
#: Xeon, Python 3.11.7) at its usual load.  It only sets the scale.
TICK_S = 0.0006

_SIZE = 8


class _Job:
    __slots__ = ("cls", "size", "arrived")

    def __init__(self, cls: int, size: int, arrived: float) -> None:
        self.cls = cls
        self.size = size
        self.arrived = arrived


def tick(rng: random.Random, jobs: int = 60) -> dict:
    """One round of a four-class strict-priority server fed by ``jobs``
    arrivals: per-class ``[departures, total delay]``."""
    heap: list = []
    queues = [deque() for _ in range(4)]
    stats = {cls: [0, 0.0] for cls in range(4)}
    now = 0.0
    seq = 0
    for _ in range(jobs):
        seq += 1
        now += rng.random()
        heapq.heappush(heap, (now, seq, 0, _Job(seq & 3, 40 + seq % 1460, now)))
    busy = False
    while heap:
        now, _, kind, job = heapq.heappop(heap)
        if kind == 0:
            queues[job.cls].append(job)
        else:
            busy = False
            record = stats[job.cls]
            record[0] += 1
            record[1] += now - job.arrived
        if not busy:
            for cls in (3, 2, 1, 0):
                if queues[cls]:
                    job = queues[cls].popleft()
                    busy = True
                    seq += 1
                    heapq.heappush(heap, (now + job.size / 1500.0, seq, 1, job))
                    break
    return stats


def create(path: Path) -> None:
    """A zeroed counter file."""
    path.write_bytes(bytes(_SIZE))


def _view(path: Path) -> memoryview:
    """The counter file's 8 bytes, mapped shared, as one int64.

    An item of this view is read and written by single 8-byte moves.
    ``struct.pack_into`` would not do: it zeroes the bytes before it
    writes them, and a reader may see the zero.
    """
    with open(path, "r+b") as handle:
        return memoryview(mmap.mmap(handle.fileno(), _SIZE)).cast("q")


class Counter:
    """Read side of a counter file: ``counter()`` is the ticks so far."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._view = _view(path)

    def __call__(self) -> int:
        return self._view[0]


def main(argv: list[str]) -> int:
    (path,) = argv
    parent = os.getppid()
    os.nice(NICE)
    shared = _view(Path(path))
    rng = random.Random(12345)
    ticks = 0
    while True:
        tick(rng)
        ticks += 1
        shared[0] = ticks
        if ticks % 1024 == 0 and os.getppid() != parent:
            return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
