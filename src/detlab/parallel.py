"""Deterministic sharded fan-out for enumeration loops.

A walk enumerates itertools.product with its leading coordinate restricted to
a shard [start, stop) of the ground set and returns a partial tally; the
serial path is the same walk over the whole range. Callers merge partials
with key-wise addition, so results never depend on scheduling. Small jobs
stay in-process regardless of the requested worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

_MIN_PARALLEL_ITEMS = 1 << 14


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


def split_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, total))
    step, extra = divmod(total, parts)
    ranges = []
    start = 0
    for i in range(parts):
        stop = start + step + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def run_chunked(walk, args: tuple, lead: int, total: int, threads: int) -> list:
    """Run walk(*args, start, stop) over contiguous shards of range(lead), the
    leading coordinate's values; partials in shard order. The pool is used only
    when the full enumeration size `total` is large enough to pay for it."""
    if threads <= 1 or total < _MIN_PARALLEL_ITEMS:
        return [walk(*args, 0, lead)]
    ranges = split_ranges(lead, threads)
    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        futures = [pool.submit(walk, *args, start, stop) for start, stop in ranges]
        return [f.result() for f in futures]


def merge_tables(partials: list) -> dict:
    """Key-wise sum of partial tables, accumulated into the first partial."""
    merged = partials[0]
    for part in partials[1:]:
        for k, v in part.items():
            merged[k] = merged.get(k, 0) + v
    return merged
