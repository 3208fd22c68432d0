"""The host's momentary speed, for scaling host-time samples.

The benchmark's host is a few virtual cores of a shared machine whose
speed changes from one second to the next: the same code runs at one
of two speeds, about 1.5 to 1.9 times apart, in phases from under a
second to many seconds long, and runs of the same code on it spread by
more than a quarter.  A host-time sample taken in a slow phase says
more about the neighbours than about the program.

So the runner times a fixed reference kernel right before and right
after each sample and scales the sample by ``REFERENCE_S`` over the
mean of the two kernel times: a sample reads in *reference seconds*,
the time the work would take on this host in its fast phase.  The
kernel is this file's own code, so a change to the program never
changes it.  It mixes the kinds of work the program does on the host:
interpreted Python on small objects, numpy on a small matrix, and,
for most of its time, reads at random places of a dict and an array
larger than the caches.  Work that misses the caches slows less in a
slow phase than work that stays in them; a kernel without that part
over-corrects the simulator's iterations.  One call lasts 1.5 to 2 ms.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

#: Seconds one :func:`kernel` call takes on the reference host (a
#: 2-core x86 virtual machine at 2.0 GHz, Python 3.11, numpy 2) in its
#: fast phase, rounded: 1000 calls took 1.2 ms at least, 1.8 ms at the
#: lower decile.  A fixed constant, so scaled times of two commits
#: compare directly.
REFERENCE_S = 1.5e-3

_MATRIX = np.random.default_rng(0).standard_normal((32, 32))
_TABLE = {i: 1 + i % 7 for i in range(64)}


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


# Data larger than the caches, read at random places: the program's
# own host work is mostly such pointer chasing, and it slows less in a
# slow phase than work that stays in cache.
_resident_before = _resident_bytes()
_rng = np.random.default_rng(0)
_TABLE_BIG = {int(k): i for i, k in enumerate(_rng.integers(0, 1 << 40, 100_000))}
_PICKS = [int(k) for k in _rng.choice(list(_TABLE_BIG), 3000)]
_ARRAY = _rng.standard_normal(1_000_000)
_GATHER = _rng.integers(0, _ARRAY.size, 20_000)
#: Resident bytes of the kernel's data, which the runner leaves out of
#: the process's peak resident set.
RESIDENT_BYTES = max(_resident_bytes() - _resident_before, 0)


class _Node:
    __slots__ = ("key", "size", "next")

    def __init__(self, key, size, next_node):
        self.key = key
        self.size = size
        self.next = next_node

    def cost(self, table):
        return table.get(self.key & 63, 1) * self.size


def kernel() -> float:
    """A fixed amount of host work; returns a checksum so it is not idle."""
    head = None
    sizes: dict = {}
    for i in range(400):
        head = _Node(i * 2654435761 & 0xFFFF, i % 13 + 1, head)
        sizes[head.key & 255] = head.cost(_TABLE)
    total = sum(sorted(sizes.values())[:64])
    a = _MATRIX
    for _ in range(20):
        a = np.tanh(a @ _MATRIX * 0.1)
    for key in _PICKS:
        total += _TABLE_BIG[key]
    return total + float(a[0, 0]) + float(_ARRAY[_GATHER].sum())


def kernel_seconds() -> float:
    """Host seconds one kernel call takes now, with the kernel's code and
    data in cache (one untimed call first) and the garbage collector
    off, so the state the program left behind does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before_s: float, after_s: float) -> float:
    """Factor turning host seconds measured between two kernel calls of
    ``before_s`` and ``after_s`` seconds into reference seconds."""
    return 2.0 * REFERENCE_S / (before_s + after_s)
