"""A fixed pure-Python workload that tracks the host's speed.

The machines this benchmark runs on are shared, and their speed drifts
by tens of percent over minutes. Timing this kernel next to every world
gives the speed the world ran at; NOTES.md explains how run.py uses it.
The kernel mixes the simulator's own kinds of work (SHA-1 steps, big
modular multiplies, dict stores, float formatting) and calls no sermt code,
so no change to the simulator can move it.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

MODULUS = (1 << 127) - 1

# The kernel's time on the calibration host (2 vCPUs, CPython 3.11) when
# it ran at full speed. Fixed, so that figures from any two commits are
# scaled to the same speed.
NOMINAL_S = 0.0056


def kernel(steps: int = 4000) -> int:
    digest = b"\x00" * 20
    x = 3
    table: dict[int, str] = {}
    for i in range(steps):
        digest = hashlib.sha1(digest).digest()
        x = x * x % MODULUS
        table[i & 1023] = f"{i:.6f} | {x & 0xFFFF}"
    return len(table)


def sample(count: int) -> list[float]:
    """Seconds taken by each of `count` kernel calls, after one untimed
    call that lets the interpreter specialise the kernel's bytecode."""
    kernel()
    times = []
    for _ in range(count):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return times
