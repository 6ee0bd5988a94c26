"""How fast the host runs Python right now, from a fixed reference kernel.

The benchmark runs on a shared virtual machine whose speed drifts: a pass of
the same jobs can take 40% longer a few minutes later, on the same code and
the same load.  The interference is intermittent, so the share of time it
slows a run changes from run to run, and per-job medians follow it.

The reference kernel is a frozen, self-contained copy of the kind of work
the calculator does: it closes the full partition monoid of degree 3
(Bell(6) = 203 diagrams) under a union-find product, interning results in a
dict.  It lives here, never in ``diagcalc``, so no change to the calculator
can speed it up.  Sampled between the jobs, its median time is slowed by the
same interference as the jobs' medians, and dividing by it cancels the
host's drift.  Timings are reported as reference seconds::

    reported = measured * NOMINAL_S / median(reference times in the run)

that is, seconds on a host where the kernel takes ``NOMINAL_S``; on a quiet
2-vCPU virtual machine (CPython 3.11.7) they are close to wall-clock seconds.

Work done in fresh interpreters (the ``cli`` jobs and the set-up probes)
also pays process start, imports and page faults, whose cost drifts apart
from the kernel's.  It is scaled by ``ChildProbe``, which times a fresh
interpreter running this file, the kernel once, from spawn to exit.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

NOMINAL_S = 0.006
NOMINAL_CHILD_S = 0.08
DEGREE = 3
CLOSURE_SIZE = 203  # Bell(2 * DEGREE), the full partition monoid of degree 3
REPEATS = 3

# The symmetric group's generators, a projection and a merge generate P3.
GENERATORS = (
    (0, 1, 2, 1, 0, 2),
    (0, 1, 2, 1, 2, 0),
    (0, 1, 2, 3, 1, 2),
    (0, 0, 1, 0, 0, 1),
)


def _normalize(labels) -> tuple:
    seen: dict = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


def _multiply(n: int, a: tuple, b: tuple) -> tuple:
    parent = list(range(3 * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for labels, shift in ((a, 0), (b, n)):
        seen: dict[int, int] = {}
        for pos, label in enumerate(labels):
            node = pos + shift
            if label in seen:
                parent[find(node)] = find(seen[label])
            else:
                seen[label] = node
    return _normalize([find(x) for x in range(n)] + [find(x) for x in range(2 * n, 3 * n)])


def reference() -> int:
    """Size of the monoid the generators close to, breadth first."""
    gens = [_normalize(g) for g in GENERATORS]
    first = tuple(range(DEGREE)) * 2
    index = {first: 0}
    queue = [first]
    for d in queue:
        for g in gens:
            p = _multiply(DEGREE, d, g)
            if p not in index:
                index[p] = len(index)
                queue.append(p)
    return len(index)


class SpeedProbe:
    """Reference times sampled through a run, and the factor they give."""

    nominal = NOMINAL_S
    every = 1  # sample before every job

    def __init__(self) -> None:
        self.times: list[float] = []

    def sample(self) -> None:
        """Collect garbage, then time the kernel ``REPEATS`` times with the collector off.

        The collection also hands the next job a heap without the previous
        job's garbage, so its time does not depend on the job order.
        """
        gc.collect()
        gc.disable()
        try:
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                size = reference()
                self.times.append(time.perf_counter() - t0)
                if size != CLOSURE_SIZE:
                    raise RuntimeError(f"reference kernel closed to {size}, not {CLOSURE_SIZE}")
        finally:
            gc.enable()

    def median(self) -> float:
        return statistics.median(self.times)

    def factor(self) -> float:
        """Multiply a measured time by this to get reference seconds."""
        return self.nominal / self.median()


class ChildProbe(SpeedProbe):
    """Reference times of a fresh interpreter that runs the kernel once."""

    nominal = NOMINAL_CHILD_S
    every = 2  # a sample costs a process start, about half a cli job

    def sample(self) -> None:
        gc.collect()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, __file__], stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE)
        self.times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout.split() != [str(CLOSURE_SIZE).encode()]:
            raise RuntimeError(f"reference child exited {proc.returncode}: {proc.stdout!r}")


if __name__ == "__main__":
    print(reference())
