"""Calibration kernel: a fixed, stdlib-only miniature of the program's work.

The host's vCPU speed drifts by tens of percent over seconds to minutes
while process time stays equal to wall time, so raw wall times of
identical work are not comparable between runs.  The harness times this
kernel between operations and scales every timing by
REF_KERNEL_S / typical(kernel times of the run), reporting seconds "at
reference machine speed".

`typical` is a trimmed mean, not a median.  The host switches between a
normal and a fast state (kernel about 0.021 s against 0.014 s here) for
seconds at a time, and the program's time integrates over both, so the
correction must follow the share of time spent fast.  The median ignores
a fast minority entirely: over three runs of one tree seed, throughput
corrected by the median ranged over 14 %, corrected by the mean over 6 %.
Trimming 5 % at each end drops the rare stalls without dropping the fast
state.

The kernel does what the program spends its time on, at the size of a
large tree workload graph: it builds a 4000-vertex graph as a tuple of
frozensets, maps an induced subgraph through a dict, finds bridges by
iterative depth-first search, and intersects neighbour sets.  A kernel of
small in-cache loops tracked the program's speed less well: timed against
a fixed k=160 member (collector running), its correction left blocks of
30 solves varying by 1.8 % (raw 2.7 %), against 1.2 % for this kernel.
"""

from __future__ import annotations

import gc
import statistics
import time

# Typical kernel time on the reference machine (a 2-vCPU Intel Xeon
# virtual machine, Python 3.11.7).  Re-derive with
# `python3 perfbench/run.py --calibrate` on an otherwise idle machine and
# replace this constant; every calibrated figure in the README was taken
# with it.
REF_KERNEL_S = 0.0210

ORDER = 4000


def kernel() -> int:
    state = 12345
    adj: list[set] = [set() for _ in range(ORDER)]
    for _ in range(2 * ORDER):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        u = state % ORDER
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        v = state % ORDER
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    nbrs = tuple(frozenset(s) for s in adj)

    keep = list(range(0, ORDER, 2))
    index = {v: i for i, v in enumerate(keep)}
    induced = [(index[u], index[v]) for u in keep for v in nbrs[u] if u < v and v in index]

    disc = [-1] * ORDER
    low = [0] * ORDER
    clock = 0
    bridges = 0
    for root in range(ORDER):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(sorted(nbrs[root])))]
        while stack:
            v, parent, it = stack[-1]
            pushed = False
            for w in it:
                if w == parent:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, v, iter(sorted(nbrs[w]))))
                    pushed = True
                    break
                low[v] = min(low[v], disc[w])
            if pushed:
                continue
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] > disc[pv]:
                    bridges += 1

    shared = sum(len(nbrs[u] & nbrs[(u * 7) % ORDER]) for u in range(0, ORDER, 4))
    return len(induced) + bridges + shared


def time_kernel() -> float:
    """Kernel wall time with the cyclic collector paused.

    A collection pass costs in proportion to every object the process
    holds, so with the collector on the kernel would time the harness's
    heap as much as the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def typical(times: list[float]) -> float:
    """Mean of the kernel times without the fastest and slowest 5 %."""
    ordered = sorted(times)
    cut = len(ordered) // 20
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def reference(samples: int = 200) -> float:
    """Typical kernel time over `samples` back-to-back runs."""
    time_kernel()
    return typical([time_kernel() for _ in range(samples)])
