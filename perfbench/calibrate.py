"""Host-speed reference for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over tens of seconds, with the same drift for every process
that runs interpreted Python there, though not the same for every kind of
work.  :func:`reference_seconds` times a fixed computation that has nothing
to do with the package but mixes the kinds of work the package does: a
backtracking search for the 8-queens solutions, done element-wise over a
numpy array the way the pure-Python search kernel works, and a table of
integer pairs built, written out as text and parsed back, the way instances
are generated, encoded and read.  ``run.py`` times it between batches and
scales each batch's timing by ``reference / REFERENCE_SECONDS``, so that the
end-to-end metrics read as if the host ran the reference in
``REFERENCE_SECONDS``; a change to the program moves them as much as it
moves the raw timings, while a change in host speed cancels out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_SECONDS = 0.035  # about the reference's time on a quiet 2-vCPU Intel Xeon host
REPEATS = 3
QUEENS = 8
SOLUTIONS = 92
TABLE = 15_000


def _queens(n: int) -> int:
    cols = np.zeros(n, dtype=np.int64)
    found = set()

    def place(row: int) -> None:
        if row == n:
            found.add(tuple(int(c) for c in cols))
            return
        for col in range(n):
            for r in range(row):
                c = cols[r]
                if c == col or abs(c - col) == row - r:
                    break
            else:
                cols[row] = col
                place(row + 1)

    place(0)
    return len(found)


def _table(size: int) -> int:
    keys = {(i * 7919) % 100003 for i in range(size)}
    text = "\n".join(f"{a} {a >> 3}" for a in sorted(keys))
    parsed = {}
    for line in text.split("\n"):
        a, b = line.split()
        parsed[int(a)] = int(b)
    return len(parsed)


def reference_seconds() -> float:
    """Median wall time of a few runs of the reference computation."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        if _queens(QUEENS) != SOLUTIONS or _table(TABLE) != TABLE:
            raise RuntimeError("the reference computation gave a wrong count")
        times.append(time.perf_counter() - start)
    return statistics.median(times)
