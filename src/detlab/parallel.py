"""Deterministic sharded fan-out for the brute-force oracle's enumeration.

Its one caller, `detcount._brute_histogram`, walks itertools.product with
the leading coordinate restricted to a shard [start, stop) of the ground set;
the serial path is the same walk over the whole range. Partials merge by
key-wise addition, so results never depend on scheduling. Small jobs stay
in-process whatever the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

# Brute histogram, 1 vs 2 workers on a 2-core host (medians of 7-9 runs): n = 3
# at 3^9 = 19,683 items 8 vs 25 ms, n = 2 at 20^4 = 160,000 items 35 vs 49 ms,
# n = 3 at 4^9 = 262,144 items 115 vs 91 ms; two workers pay from about 2^18.
_MIN_PARALLEL_ITEMS = 1 << 18


def resolve_threads(flag: int | None = None) -> int:
    """Worker count: explicit flag wins, then DETLAB_THREADS, then CPU count."""
    if flag is not None and flag >= 1:
        return flag
    env = os.environ.get("DETLAB_THREADS")
    if env:
        try:
            val = int(env)
            if val >= 1:
                return val
        except ValueError:
            pass
    return os.cpu_count() or 1


def run_chunked(walk, args: tuple, lead: int, total: int, threads: int) -> list:
    """Run walk(*args, start, stop) over contiguous shards of range(lead), the
    leading coordinate's values; partials in shard order. The pool is used only
    when the full enumeration size `total` is large enough to pay for it."""
    if threads <= 1 or total < _MIN_PARALLEL_ITEMS:
        return [walk(*args, 0, lead)]
    parts = min(threads, lead)
    cuts = [lead * i // parts for i in range(parts + 1)]
    with ProcessPoolExecutor(max_workers=parts) as pool:
        futures = [pool.submit(walk, *args, start, stop) for start, stop in zip(cuts, cuts[1:])]
        return [f.result() for f in futures]


def merge_tables(partials: list) -> dict:
    """Key-wise sum of partial tables, accumulated into the first partial."""
    merged = partials[0]
    for part in partials[1:]:
        for k, v in part.items():
            merged[k] = merged.get(k, 0) + v
    return merged
