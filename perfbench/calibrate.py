"""A fixed reference workload that measures how fast this machine runs now.

On a shared VM the same work swings by up to 1.8x within a minute, and a
slow spell can cover a whole run.  Timed runs therefore scale their times by
REFERENCE_S / (the least `calibrate()` time seen in the run): a run in a slow
spell is slowed on both sides, and its figures read as they would at the
reference speed.  The reference work imitates the library's inner loops
(tuple-keyed state search, tuple-element group law, bitmask subset sums,
frozenset comparison, multiset enumeration with orbit tests) and never calls the library, so no change to the
library moves it.
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple

# calibrate() at full speed on the 2-vCPU Xeon VM the baselines come from
REFERENCE_S = 0.0045

_E = namedtuple("_E", "eps a")
_N, _S = 15, 11
_TABLE = [[((u // _N) ^ (v // _N)) * _N + ((u % _N) * (_S if v // _N else 1) + v % _N) % _N
           for v in range(2 * _N)] for u in range(2 * _N)]


def _reference_work() -> int:
    support = (1, 7, 16, 22, 29)
    start = ((2, 2, 2, 2, 2), 0)
    seen = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for counts, p in frontier:
            row = _TABLE[p]
            for i, c in enumerate(counts):
                if c:
                    st = (counts[:i] + (c - 1,) + counts[i + 1:], row[support[i]])
                    if st not in seen:
                        seen[st] = (counts, p)
                        nxt.append(st)
        frontier = nxt
    acc = _E(0, 0)
    for i in range(2000):
        v = _E(i & 1, i % _N)
        acc = _E(acc.eps ^ v.eps, (acc.a * (_S if v.eps else 1) + v.a) % _N)
    full = (1 << 30) - 1
    rows = [1] + [0] * 12
    for i in range(1, 40):
        r = i % 29 + 1
        rows = [rows[0]] + [rows[k] | (((rows[k - 1] << r) | (rows[k - 1] >> (30 - r))) & full)
                            for k in range(1, 13)]
    sets = [frozenset((e, (a * i) % _N) for e in (0, 1) for a in range(_N)) for i in range(1, 60)]
    same = sum(1 for x in sets for y in sets[:8] if x == y)
    perm = (3, 0, 7, 1, 9, 4, 11, 2, 6, 10, 5, 8)
    kept = sum(1 for combo in itertools.combinations_with_replacement(range(12), 4)
               if not tuple(sorted(perm[i] for i in combo)) < combo)
    return len(seen) + acc.a + rows[-1].bit_count() + same + kept


def calibrate() -> float:
    """Best of three timings of the reference work, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return best
