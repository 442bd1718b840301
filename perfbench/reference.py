"""A fixed pure-Python kernel that measures how fast the host runs now.

The benchmark shares its host with other work, which slows the host by
tens of percent for seconds or minutes at a time.  So the benchmark runs
this kernel between pieces of the work it measures and divides each time
by the kernel's time taken alongside it: the quotient barely moves when
the host slows down.  The kernel imports nothing from ``src/``, so no
change to the program under test moves it.  Its work resembles the
simulator's: generator processes resumed from a heap of timed events,
small objects, dict and attribute traffic.
"""

from __future__ import annotations

import heapq
import signal
import time


class _Job:
    __slots__ = ("name", "done", "state")

    def __init__(self, name: int):
        self.name = name
        self.done = 0
        self.state = {}


def _process(job: _Job, steps: int):
    for step in range(steps):
        job.state[step & 15] = job.state.get(step & 7, 0) + step
        job.done += 1
        yield (step * 7919 + job.name * 104729) % 97 + 1


def kernel(processes: int = 40, steps: int = 60) -> int:
    """Run one small event loop to completion; returns a checksum."""
    heap, seq = [], 0
    jobs = [_Job(i) for i in range(processes)]
    for job in jobs:
        heap.append((0, seq, _process(job, steps)))
        seq += 1
    heapq.heapify(heap)
    now = 0
    while heap:
        now, _, gen = heapq.heappop(heap)
        try:
            delay = next(gen)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (now + delay, seq, gen))
    return now + sum(job.done for job in jobs)


class Probe:
    """While active, times one ``kernel`` call every ``every_s`` of host
    time, from an interval timer, inside whatever code is running then.

    ``times`` holds the calls' times and ``spent_s`` their sum, to take
    out of the work measured meanwhile.  ``with Probe(0.02) as probe:``
    starts and stops it; the timer is re-armed only after each call, so
    calls never overlap.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.times: list = []
        self.spent_s = 0.0
        self._active = False
        self._previous = None

    def _fire(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append(end - start)
        self.spent_s += end - start
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, self.every_s)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def kernel_times(calls: int) -> list:
    """Host seconds of each of *calls* back-to-back ``kernel`` calls."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times
