"""Deterministic fan-out over independent work items.

Thread count comes from HESSIAN_LAB_THREADS; unset means one thread
(the checks are small-array numpy work that holds the GIL, so threads
make runs slower), 0 means one worker per CPU.  Results always come
back in input order, so report output is identical whatever the worker
count.  concurrent.futures is imported only when a pool is built.
"""

from __future__ import annotations

import os

from .errors import ConfigError

ENV_THREADS = "HESSIAN_LAB_THREADS"

__all__ = ["ENV_THREADS", "thread_count", "map_ordered"]


def thread_count() -> int:
    raw = os.environ.get(ENV_THREADS)
    if raw is None or raw.strip() == "":
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{ENV_THREADS} must be a nonnegative integer, got {raw!r}") from None
    if value < 0:
        raise ConfigError(f"{ENV_THREADS} must be a nonnegative integer, got {raw!r}")
    return value if value > 0 else (os.cpu_count() or 1)


def map_ordered(fn, items):
    items = list(items)
    workers = min(thread_count(), max(len(items), 1))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: a serial run, the default, never needs it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
