"""A fixed reference computation that the benchmark times next to every pass.

The shared machine this benchmark runs on changes speed by a quarter or more
over tens of seconds, and a whole run can land in a slow or a fast stretch.
The time-based end-to-end metrics are therefore ratios: a pass's wall time
divided by the wall time of this computation, measured just before and just
after the pass on the same process. A slow stretch slows both, and the ratio
stays put.

The computation has the shape of the library's hot loops without calling
the library, so that a change to ``tpnsynth`` never changes the reference:
a backward counting attractor over the (node, time class) product of a
small graph, kept in a flat ``bytearray`` and a list of counters, plus a
dict keyed by tuples, as in the state-space explorer.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter

NODES = 300
WIDTH = 120  # time classes per node
REACHED = 23_700  # product pairs the attractor reaches; checks the run


def attractor(n: int = NODES, width: int = WIDTH) -> int:
    succ = [((v + 1) % n, (v * 7 + 3) % n) for v in range(n)]
    preds = [[] for _ in range(n)]
    for u, outs in enumerate(succ):
        for v in outs:
            preds[v].append(u)
    counts = [2] * (n * width)
    marked = bytearray(n * width)
    queue = deque()
    for v in range(0, n, 3):
        for c in range(width):
            marked[v * width + c] = 1
            queue.append((v, c))
    parent = {}
    while queue:
        v, c = queue.popleft()
        for u in preds[v]:
            for pc in (c, c - 1) if c else (c,):
                idx = u * width + pc
                if marked[idx]:
                    continue
                counts[idx] -= 1
                if counts[idx] == 0:
                    marked[idx] = 1
                    queue.append((u, pc))
                    parent[u, pc] = v, c
    return len(parent)


def reference_s() -> float:
    """Wall seconds of one reference computation."""
    t0 = perf_counter()
    reached = attractor()
    dt = perf_counter() - t0
    if reached != REACHED:
        raise RuntimeError(f"reference reached {reached} pairs, expected {REACHED}")
    return dt
