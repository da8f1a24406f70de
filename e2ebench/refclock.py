"""Host-speed reference clock for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
a third and more within minutes, in both wall and CPU time (no steal
time: a busy loop's CPU time tracks its wall time), so raw host seconds
of the same code spread past any useful bound from one run to the next.

A :class:`RefClock` measures that speed inside the timed process itself:
every :data:`PERIOD_S` a ``SIGALRM`` handler runs one slice of a fixed
pure-Python kernel (dict lookups, slotted attribute writes, a heap: the
simulator's kind of work) and records when the slice started and ended
and the CPU time its own thread spent on it.  That thread holds the GIL
while it computes, so the program under test is paused for the slice's
CPU time (other threads of a server may still run between its bytecodes,
which is why the thread's CPU time, not the slice's wall time, is the
measure); :func:`host_seconds` takes those pauses out of an interval,
and :func:`to_ref` rescales host seconds by :data:`REF_SLICE_S` over the
mean time of the slices of the same process that ran during the interval
(:func:`local_slice`): seconds on a host that runs a slice in
:data:`REF_SLICE_S`.  Slow phases of the host stretch the program and
the slices alike, so the ratio holds where raw seconds drift; the
benchmark's code is the same in every commit, so a change to the program
still moves the ratio in full.

The kernel allocates no container objects (heap entries are packed into
ints), so a slice never triggers a garbage collection of the program's
objects.
"""

from __future__ import annotations

import heapq
import signal
import time

#: the slices' mean duration on the reference host.  Set once from a
#: typical reading of a 2-core Xeon container; it only scales the numbers
REF_SLICE_S = 0.025
#: one slice per period of the program's wall time
PERIOD_S = 0.3
#: kernel iterations per slice (about :data:`REF_SLICE_S` on that host)
SLICE_ITERS = 15000
#: entries in the kernel's table
SPAN = 4096
#: fewest slices an interval's speed is taken from (about six seconds of
#: the program's time: fewer made short intervals noisier, not truer)
LOCAL_SLICES = 20


class _Entry:
    __slots__ = ("tag", "ready", "value")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.ready = 0
        self.value = tag


class RefClock:
    """Reference slices interleaved with the calling process's work."""

    def __init__(self) -> None:
        self.table = {t: _Entry(t) for t in range(SPAN)}
        #: ``(start, end, cpu)`` of every slice: ``time.monotonic()``
        #: readings and the thread's CPU seconds in between
        self.slices: list[tuple[float, float, float]] = []
        self.checksum = 0

    def start(self) -> "RefClock":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def run_slices(self, n: int) -> None:
        """``n`` slices back to back (a probe too short for the timer)."""
        for _ in range(n):
            self._tick(None, None)

    def _tick(self, _signum, _frame) -> None:
        c0, t0 = time.thread_time(), time.monotonic()
        self.checksum ^= self._slice()
        t1, c1 = time.monotonic(), time.thread_time()
        self.slices.append((t0, t1, c1 - c0))

    def _slice(self) -> int:
        table, push, pop = self.table, heapq.heappush, heapq.heappop
        heap: list[int] = []
        x, acc = 12345, 0
        for i in range(SLICE_ITERS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            entry = table[x % SPAN]
            entry.value ^= x
            entry.ready = i + (x & 31)
            push(heap, entry.ready * SPAN + entry.tag)
            while heap and heap[0] // SPAN <= i:
                acc += table[pop(heap) % SPAN].value & 7
        return acc


def mean_slice(slices: list) -> float:
    """Mean slice duration, the host's speed over the slices' span."""
    if not slices:
        raise ValueError("no reference slices were recorded")
    return sum(cpu for _a, _b, cpu in slices) / len(slices)


def local_slice(slices: list, start: float, end: float) -> float:
    """Mean slice time over ``[start, end]``: the slices that overlap it,
    or the :data:`LOCAL_SLICES` nearest to it when fewer do."""
    inside = [s for s in slices if s[1] > start and s[0] < end]
    if len(inside) < LOCAL_SLICES:
        inside = sorted(
            slices, key=lambda s: max(0.0, start - s[1], s[0] - end)
        )[:LOCAL_SLICES]
    return mean_slice(inside)


def paused(slices: list, start: float, end: float) -> float:
    """Seconds of ``[start, end]`` spent computing slices (a slice that
    straddles an end counts in proportion)."""
    return sum(
        cpu * max(0.0, min(b, end) - max(a, start)) / (b - a)
        for a, b, cpu in slices if b > a
    )


def host_seconds(slices: list, start: float, end: float) -> float:
    """Wall seconds of ``[start, end]`` with the slices taken out."""
    return end - start - paused(slices, start, end)


def to_ref(seconds: float, slice_s: float) -> float:
    """Host seconds measured while slices took ``slice_s`` each, as
    seconds on the reference host."""
    return seconds * REF_SLICE_S / slice_s
