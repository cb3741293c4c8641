"""Correction of op timings for the machine's speed at the time.

On a shared host the same op can take half again as long for tens of
seconds at a time, because other tenants slow the CPU down; a run that falls
in such a stretch reads slower although the program did not change.  The
benchmark therefore times a fixed reference job (never changed by the
program) right before and right after every op, and scales the op's
measured time by nominal_s / (mean of the two reference times).  The result
is the op's time on this machine when the reference job takes nominal_s, as
it does when the machine is not slowed down.

Two references match the two kinds of op:

- LOOP, for ops in this process: exact rational arithmetic, tuple keys and
  dict stores, which is what the program does most.  Garbage collection is
  off while it runs, so that the size of the program's heap does not show
  up in the reference time.
- spawn(), for ops in a fresh process: a bare ``python -c pass`` process.
  Interpreter start dominates those ops, and it slows down far less than
  the loop when the machine does (a third as much or less, measured), so
  the loop would over-correct them.

Each nominal_s is the reference's time on an unloaded 2-vCPU Xeon VM (the
fastest twentieth of its timings there).
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

#: the loop reference is the least time of this many back-to-back loops
LOOP_REPEATS = 3


@dataclass(frozen=True)
class Reference:
    nominal_s: float
    measure: Callable[[], float]

    def correct(self, seconds: float, before: float, after: float) -> float:
        """`seconds` measured between reference times `before` and `after`,
        scaled to the speed at which the reference takes nominal_s."""
        return seconds * self.nominal_s * 2 / (before + after)

    def time(self, fn: Callable[[], object]) -> float:
        """Corrected seconds of one call of `fn`."""
        before = self.measure()
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        return self.correct(elapsed, before, self.measure())


def _loop() -> None:
    table = {}
    for i in range(1, 120):
        x = Fraction(i, i + 1) * Fraction(2 * i - 1, 3) + Fraction(1, i)
        table[(i, i % 7)] = x.numerator % 97
    sorted(table.items())


def _loop_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(LOOP_REPEATS):
            start = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


LOOP = Reference(0.0005, _loop_seconds)


def spawn(cwd, env: dict) -> Reference:
    """The reference for ops that start `sys.executable` in `cwd` with `env`."""
    def measure() -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env, check=True)
        return time.perf_counter() - start

    return Reference(0.045, measure)
