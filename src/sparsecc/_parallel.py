"""Deterministic work distribution helpers.

Parallelism never changes results: work items are independent, and outputs
are always consumed in submission order.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import chain, islice


def resolve_threads(threads: int | None = None) -> int:
    """Explicit argument, else NET_THREADS env var, else cpu count, and never
    more than the cpu count: a pool gets no more OS threads than cores."""
    if threads is None:
        env = os.environ.get("NET_THREADS")
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise ValueError(f"NET_THREADS must be an integer, got {env!r}")
        else:
            threads = os.cpu_count() or 1
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    return min(threads, os.cpu_count() or 1)


def ordered_map(fn, items, threads: int | None = None):
    """Like map(fn, items) but executed on a thread pool, yielding in order.

    ``items`` is consumed lazily: an item is drawn only when a slot in the
    submission window frees, so at most ~2x ``threads`` items are drawn and
    results buffered ahead of the consumer, also when ``items`` is a
    generator.
    """
    threads = resolve_threads(threads)
    it = iter(items)
    window = list(islice(it, 2 * threads)) if threads > 1 else []
    if len(window) <= 1:
        for item in chain(window, it):
            yield fn(item)
        return
    from concurrent.futures import ThreadPoolExecutor  # only runs that start a pool pay for it

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque(pool.submit(fn, item) for item in window)
        for item in it:
            yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
