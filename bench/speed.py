"""Host speed from fixed reference work, to report every time at one speed.

The measuring host changes speed by up to 2x over seconds to minutes, and
the change slows psmc and any other Python code alike: a loop timed next
to the benchmark moves with it.  So the benchmark times fixed reference
work (no psmc code) before and after every timed block, and multiplies
the block's time by

    nominal / mean(reference time before, reference time after)

Every reported time is therefore the time the block would take at the
speed where the reference takes its nominal time; a change to psmc moves
it in full, a change of the host's speed does not.  The raw times go to
the details file next to the scaled ones.

Blocks that repeat through a run (campaign rounds, word batches) take
one sample after each block, and each block is scaled, once the run is
over, by the median of the two samples before it and the two after
(`block`, `smoothed`): one reference sample is noisier than the drift
of the host's speed over the second those four span.  A block timed
once (a cold sample) takes three samples before and three after.

The host's speed states do not slow all code alike: running bytecode and
small numpy calls slows about 1.9x, numpy passes over large arrays about
1.45x.  Each block is scaled by reference work of its own kind:

- campaign rounds and single words run bytecode and small numpy calls:
  `bytecode_loop`, nominal BYTECODE_NOMINAL_S;
- set-up and exact-analysis jobs mix those with large-array passes
  (`min_distance` enumerates up to 8^7 codewords): `mixed_loop`, the
  bytecode loop followed by `vector_loop`, nominal MIXED_NOMINAL_S;
- a fresh `python -m psmc tables` process mostly starts the interpreter
  and imports modules: a fresh `python -c "import numpy"` process,
  nominal COLD_REF_NOMINAL_S.

The nominal times are about this work's times on the host the bounds
were set on (2 vCPUs of a shared host).

The reference must run alone: a thread of the benchmark process that
burns CPU while it runs would slow it and flatter the scaled times.
`alone()` checks that every sample saw one Python thread and that the
process spent no more CPU time than wall time over all samples together
(single samples are not compared: CPU time is accounted coarsely).

The two CPUs of the host do not change speed together, so the benchmark
and the fresh interpreters it starts run on one CPU (`pin`): a reference
sample then measures the CPU that the timed block ran on.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

BYTECODE_NOMINAL_S = 0.0110
MIXED_NOMINAL_S = 0.0240
COLD_REF_CODE = "import numpy"
COLD_REF_NOMINAL_S = 0.130


def pin() -> int | None:
    """Run this process, and the processes it starts, on one CPU; returns it."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def bytecode_loop(reps: int = 3000) -> int:
    a = np.arange(8)
    s = 0
    for i in range(reps):
        b = (a * i) % 3
        s += int(b.sum()) + (i * i) % 7
        d = {i % 5: s}
        s ^= len(d)
    return s


def vector_loop(reps: int = 3) -> int:
    """Table lookups and counts over 2^18-element arrays, as min_distance makes."""
    r = np.arange(1 << 18)
    a, b = (r * 7) % 8, (r * 3) % 8
    table = np.arange(64).reshape(8, 8) % 8
    s = 0
    for _ in range(reps):
        a = table[a, b]
        s += int(np.count_nonzero(a))
    return s


def mixed_loop() -> int:
    return bytecode_loop() + vector_loop()


class Speed:
    """Reference samples taken next to timed blocks, and the scale factors they give."""

    def __init__(self, loop=bytecode_loop, nominal: float = BYTECODE_NOMINAL_S):
        self.loop, self.nominal = loop, nominal
        bytecode_loop(200)  # first numpy calls of a fresh process are slower
        vector_loop(1)
        self.samples: list[float] = []
        self.cpu_s = 0.0
        self.threads = 1
        self.last = self.sample()

    def sample(self, n: int = 1) -> float:
        """Median time of n reference samples."""
        walls = []
        for _ in range(n):
            w0, c0 = time.perf_counter(), time.process_time()
            self.loop()
            walls.append(time.perf_counter() - w0)
            self.cpu_s += time.process_time() - c0
            self.threads = max(self.threads, threading.active_count())
        self.samples += walls
        return statistics.median(walls)

    def block(self) -> int:
        """Sample after a timed block; returns k, the block ran between samples k and k+1."""
        self.sample()
        return len(self.samples) - 2

    def smoothed(self, k: int) -> float:
        """Scale factor of block k: the median of two samples before it and two after."""
        return self.nominal / statistics.median(self.samples[max(0, k - 1): k + 3])

    def alone(self) -> tuple[bool, str]:
        wall = sum(self.samples)
        ok = self.threads == 1 and self.cpu_s <= 1.05 * wall + 0.02
        return ok, f"{len(self.samples)} samples: {self.cpu_s:.3f} s CPU in {wall:.3f} s wall, at most {self.threads} threads"

    def begin(self, n: int = 1) -> None:
        """Take the 'before' sample now, when untimed work preceded the block."""
        self.last = self.sample(n)

    def factor(self, n: int = 3) -> float:
        """Scale factor of a block timed once since the last sample; samples again."""
        before, self.last = self.last, self.sample(n)
        return self.nominal / ((before + self.last) / 2)
