"""Timing against a reference loop that runs on the same core at the same
moments as the work, so that a shared host's swings in speed cancel out.

On a small shared machine the speed at which a process runs Python swings by
a fifth from one second to the next and by half over minutes.  A reference
timed before and after a unit of work tracks neither well.  ``Pace`` instead
interrupts the work every ``TICK_S`` of process CPU time (SIGPROF) and runs
the reference loop once inside the handler.  The work's own CPU time, less
the handler's, divided by the mean reference time, is the work's cost in
reference loops; times ``REF_MS`` it reads as ms at a fixed speed.
"""

from __future__ import annotations

import signal
import time

REF_STEPS = 1_000
# CPU ms of one reference loop at the speed the normalized figures are scaled to.
REF_MS = 0.3
TICK_S = 0.01


def reference_s() -> float:
    """CPU seconds of the reference loop: fixed pure-Python big-integer work
    that calls nothing in pisano, so only the machine's speed moves it."""
    start = time.thread_time()
    x, m = 1, (1 << 61) - 1
    for i in range(REF_STEPS):
        x = (x * x + i) % m
    return time.thread_time() - start


class Pace:
    """While entered, runs the reference loop every TICK_S of this process's
    CPU time.  Main thread only: that is where Python runs signal handlers.
    Not entered, it runs no loops and work_s is plain thread CPU time."""

    def __init__(self) -> None:
        self.ref_s = 0.0
        self.refs = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.ref_s += reference_s()
        self.refs += 1

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> tuple[float, float, int]:
        """(thread CPU seconds, reference seconds, reference count) now."""
        return time.thread_time(), self.ref_s, self.refs

    def work_s(self, mark: tuple[float, float, int]) -> float:
        """CPU seconds of the work since mark, less the reference loops."""
        return time.thread_time() - mark[0] - (self.ref_s - mark[1])

    def ms(self, mark: tuple[float, float, int]) -> float:
        """The work since mark as ms at the reference speed."""
        return scale_ms(self.work_s(mark), self.ref_s - mark[1], self.refs - mark[2])


def scale_ms(work_s: float, ref_s: float, refs: int) -> float:
    """work_s CPU seconds of work, during which ``refs`` reference loops took
    ref_s in all, as ms at the reference speed."""
    if refs == 0:
        raise ValueError("the work ended before the first reference loop; give it more to do")
    return work_s / (ref_s / refs) * REF_MS
