"""A host-speed reference for timings taken on a shared machine.

On a shared virtual machine the CPU speed one process gets drifts by up to
about 2x over tens of seconds, with load elsewhere on the host: the same
whole-corpus verify took 460 ms in one 25 s run and 720 ms in another, and
even the 10th percentile of a run moved with it. A fixed pure-Python loop,
which calls nothing in tunav, is timed right before and right after every op,
split over as many threads as the op's thread pool uses. Scaling the op's
time by NOMINAL_MS_PER_ROUND x rounds / (mean of the two loop times) gives
its time at the speed where one round of the loop takes NOMINAL_MS_PER_ROUND,
which cancels most of the drift. Raw times are reported beside scaled ones.
"""

from __future__ import annotations

import threading
import time

# The loop's time per round on an unloaded core of a 2.0 GHz Xeon (Sapphire
# Rapids) KVM guest, CPython 3.11.
NOMINAL_MS_PER_ROUND = 1.0 / 3.0


class _Node:
    __slots__ = ("op", "kids", "h")

    def __init__(self, op, kids):
        self.op = op
        self.kids = kids
        self.h = hash((op, len(kids)))


def loop_ms(rounds: int, threads: int) -> float:
    """Time one run of the reference loop, split over `threads` threads that
    contend for the interpreter lock as a thread pool's workers do."""
    t0 = time.perf_counter()
    if threads == 1:
        _loop(rounds)
    else:
        workers = [threading.Thread(target=_loop, args=(rounds // threads,))
                   for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    return (time.perf_counter() - t0) * 1000.0


def _loop(rounds: int):
    """Build and hash-cons small trees, which allocates, hashes and looks up
    the way term manipulation does."""
    memo = {}
    for _ in range(rounds):
        layer = [_Node(("x", i % 37), ()) for i in range(200)]
        while len(layer) > 1:
            layer = [_Node("f", (layer[i], layer[i + 1]))
                     for i in range(0, len(layer) - 1, 2)]
            for node in layer:
                key = (node.op, tuple(k.h for k in node.kids))
                memo[key] = memo.get(key, 0) + 1
        memo.clear()


class Reference:
    """Loop timings shared by consecutive ops: the loop after one op is the
    loop before the next. `rounds` sets the loop's length; `spent_s` is the
    time the loops took."""

    def __init__(self, rounds: int, threads: int):
        self.rounds = rounds
        self.threads = threads
        self.spent_s = 0.0
        self._time()  # the first run in a process is slower; discard it
        self.last = self._time()

    def _time(self) -> float:
        ms = loop_ms(self.rounds, self.threads)
        self.spent_s += ms / 1000.0
        return ms

    def scale(self) -> float:
        """Call right after an op: the factor that takes its time to the
        nominal speed."""
        before, self.last = self.last, self._time()
        return NOMINAL_MS_PER_ROUND * self.rounds * 2.0 / (before + self.last)
