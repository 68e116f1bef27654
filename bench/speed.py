"""How fast this machine runs the Python interpreter right now.

On a shared host the speed of a core drifts by a quarter or more over
minutes, with the load of neighbours the benchmark cannot see; a timing
taken at one moment and a timing taken ten minutes later differ by that
much for the same code.  A reference burst is a fixed piece of pure-Python
work that does not touch cwcsim: tuple and object construction, dict
updates, small sorts and hashing, the operations the simulator spends its
time on.  Bursts run interleaved with the measured work, so that they see
the same machine; dividing a measured time by the bursts' speed gives the
time the work would take on a machine on which one burst takes
REF_SECONDS.
"""
from __future__ import annotations

import gc
import math
import subprocess
import sys
import time

# Nominal time of one burst: about what it takes on a 2-vCPU Xeon KVM
# guest under Python 3.11, so that scaled times read close to raw ones
# there.
REF_SECONDS = 0.1
REF_ITERATIONS = 46_000
# Bursts take this share of the measured work's time.
SHARE = 0.2


class _Cell:
    __slots__ = ("key", "count")

    def __init__(self, key, count):
        self.key = key
        self.count = count


def _work(n: int) -> int:
    table = {}
    acc = 0
    for i in range(n):
        key = (i & 255, i % 7, "cell")
        cell = _Cell(key, i)
        table[key] = table.get(key, 0) + cell.count
        acc += len(sorted((i % 5, i % 3, i % 11)))
        acc += hash(frozenset((i & 7, i & 3))) & 1
    return acc + len(table)


def burst() -> float:
    """Seconds one reference burst takes now.  The collector is off during
    the burst, so that its time does not grow with the heap the measured
    program leaves behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work(REF_ITERATIONS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Reference bursts kept at SHARE of the measured work's time.

    Call keep_up(work_seconds) after every unit of work with the work's
    total time so far; factor() is then REF_SECONDS divided by the mean
    burst, greater than 1 while the machine runs faster than nominal.  A
    time multiplied by the factor is in reference seconds.

    Work spread over `jobs` processes waits for the slowest of them, and
    the cores of a shared host do not run at one speed; so with jobs > 1,
    helper processes run a burst at the same moment as this one, one per
    other job, and each burst counts as the slowest of them.  Use it as a
    context manager, which stops the helpers."""

    def __init__(self, jobs: int = 1):
        self.bursts = []
        self.helpers = [
            subprocess.Popen([sys.executable, "-I", __file__], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
            for _ in range(jobs - 1)
        ]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for helper in self.helpers:
            helper.stdin.close()
        for helper in self.helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()

    def _burst(self) -> float:
        for helper in self.helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        mine = burst()
        return max([mine] + [float(h.stdout.readline()) for h in self.helpers])

    def keep_up(self, work_seconds: float) -> None:
        while not self.bursts or math.fsum(self.bursts) < SHARE * work_seconds:
            self.bursts.append(self._burst())

    def factor(self) -> float:
        return REF_SECONDS * len(self.bursts) / math.fsum(self.bursts)


if __name__ == "__main__":
    # a helper of Speed: one burst for every line read
    for _ in sys.stdin:
        print(repr(burst()), flush=True)

