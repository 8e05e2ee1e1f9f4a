"""A fixed stdlib-only workload that measures how fast the host runs Python now.

On a shared host the speed of the same Python code moves between states
up to ~1.8x apart, and a state can last ten minutes (RECORD.md has the
measurements), longer than one benchmark run.  No run can average that
away, so every iteration also times this reference, in the same process,
next to its timed phases, and ``run.py`` reports each timing as it would
read on a host that runs the reference in ``NOMINAL_S``.

The reference runs none of the program's code, so a change to the program
moves the benchmark's figures and never the reference.  It exercises what
the program spends its time on: a heap of timed events, dicts keyed by
tuples, small slotted objects and their methods, table lookups on ints,
and bytes.  Keys are ints and tuples of ints, whose hashes do not depend
on ``PYTHONHASHSEED``, so every process does the same work.
"""

from __future__ import annotations

import heapq
import statistics
import time

# The unit of the benchmark's timings: they read as on a host that runs
# one sample in this many seconds.  It is near what a sample takes on an
# Intel Xeon VM with nproc 2 and Python 3.11 (0.04-0.07 s as its speed
# moves); any fixed value gives figures that compare across runs on one host.
NOMINAL_S = 0.05

# Samples taken before and after each iteration's timed phases.
SAMPLES = 2

_TABLE = [(i * 167 + 13) & 0xFF for i in range(256)]


class _Frame:
    __slots__ = ("src", "dst", "ttl", "body")

    def __init__(self, src: int, dst: int, ttl: int, body: bytes):
        self.src = src
        self.dst = dst
        self.ttl = ttl
        self.body = body

    def hop(self, dst: int) -> "_Frame":
        return _Frame(self.dst, dst, self.ttl - 1, self.body)


def work(rounds: int = 3_000) -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    queue: list[tuple[int, int, _Frame]] = []
    seen: dict[tuple[int, int], int] = {}
    check = seq = 0
    for i in range(rounds):
        frame = _Frame(i % 97, (i * 31) % 101, 4, bytes((i + k) & 0xFF for k in range(16)))
        seq += 1
        heapq.heappush(queue, ((i * 7919) % 1009, seq, frame))
        while len(queue) > 64:
            when, _, frame = heapq.heappop(queue)
            key = (frame.src, frame.dst)
            seen[key] = seen.get(key, 0) + 1
            state = 0
            for b in frame.body:
                state = _TABLE[state ^ b]
            check ^= state + int.from_bytes(frame.body[:4], "big")
            if frame.ttl > 0:
                seq += 1
                heapq.heappush(queue, (when + 3, seq, frame.hop((frame.dst * 7 + 1) % 101)))
    ordered = sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
    return check ^ len(ordered) ^ ordered[-1][1]


def sample() -> float:
    """Seconds one unit of work takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def samples(n: int = SAMPLES) -> list[float]:
    return [sample() for _ in range(n)]


def scale(seconds: list[float]) -> float:
    """Factor that turns a wall time measured next to *seconds* into
    nominal seconds."""
    return NOMINAL_S / statistics.median(seconds)
