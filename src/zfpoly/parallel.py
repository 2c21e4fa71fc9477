"""Ordered fan-out of a picklable worker over a list of items."""
from __future__ import annotations

from contextlib import contextmanager
from multiprocessing import Pool
from typing import Callable, Iterator, Sequence

# A pool starts only when each process gets about BATCHES_PER_JOB tasks of
# contiguous items, so the slow tail of a sweep (large orders, dense graphs)
# spreads over the pool and the pool's start costs less than its work.
BATCHES_PER_JOB = 16

# The pools of the open run scope by size, forked on first need; None
# outside a scope.
_pools: dict | None = None


@contextmanager
def run_scope() -> Iterator[None]:
    """One run's pools: within the scope, parallel_map forks a pool of each
    size on its first pooled call and reuses it for every later one, so a
    pool's workers inherit what this process holds when it forks.  Every
    pool is terminated and joined before the scope exits, also on error.
    A scope entered within another is part of it."""
    global _pools
    if _pools is not None:
        yield
        return
    _pools = {}
    try:
        yield
    finally:
        pools, _pools = _pools, None
        for pool in pools.values():
            pool.terminate()
            pool.join()


def parallel_map(worker: Callable, items: Sequence, jobs: int) -> Iterator:
    """Yield worker(item) for each item, in item order.

    With jobs > 1 and enough items for BATCHES_PER_JOB batches per process the
    calls run in a pool of that many processes, which receive the items in
    contiguous batches: the open run_scope's pool of that size, or one for
    this call alone outside a scope.  Otherwise they run here.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and len(items) >= jobs * BATCHES_PER_JOB:
        with run_scope():
            if jobs not in _pools:
                _pools[jobs] = Pool(jobs)
            yield from _pools[jobs].imap(worker, items, len(items) // (jobs * BATCHES_PER_JOB))
    else:
        yield from map(worker, items)
