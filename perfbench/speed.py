"""The box's current speed, read from a fixed kernel, to put times on one scale.

On a shared machine the same ringlab item can take twice as long in one
ten-second window as in the next, because other tenants contend for the
cores and caches. Item times are therefore scaled to a nominal speed:

    scaled = raw * REF_S / kernel time measured next to the item

The kernel does the kind of work ringlab's layers do (closure calls,
modular arithmetic, frozensets, dict-of-dict graphs) and nothing else,
so it slows down with the box but not with changes to ringlab. REF_S is
its time on the 2-vCPU box that recorded the baseline, so scaled times
read as seconds on that box at its nominal speed. Raw times are printed
next to the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time

REF_S = 0.002       # kernel seconds at nominal speed
EVERY_S = 0.5       # re-read the speed when this much time has passed


def kernel() -> float:
    """Seconds for one pass; the collector is off so the heap around it does not count."""
    gc.disable()
    try:
        return _kernel()
    finally:
        gc.enable()


def _kernel() -> float:
    t = time.perf_counter()
    n = 61
    mul = lambda a, b: (a * b) % n  # noqa: E731
    succ: dict = {}
    ideals = set()
    for a in range(1, n):
        ideals.add(frozenset(mul(a, r) for r in range(n)))
        for b in range(0, n, 2):
            succ.setdefault(mul(a, b), {})[b] = {"label": a}
    seen, stack = set(), list(succ)
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(succ.get(v, ()))
    return time.perf_counter() - t


def factor() -> float:
    """REF_S over the median of three kernel runs: multiply raw times by this."""
    return REF_S / statistics.median(kernel() for _ in range(3))


class Gauge:
    """The speed factor, re-read at most every EVERY_S seconds."""

    def __init__(self):
        self._last = float("-inf")
        self._factor = 1.0

    def factor(self) -> float:
        now = time.perf_counter()
        if now - self._last >= EVERY_S:
            self._factor = factor()
            self._last = time.perf_counter()
        return self._factor
