"""Ordered fan-out of a picklable worker over a list of items."""
from __future__ import annotations

from multiprocessing import Pool
from typing import Callable, Iterator, Sequence

# A pool starts only when each process gets about BATCHES_PER_JOB tasks of
# contiguous items, so the slow tail of a sweep (large orders, dense graphs)
# spreads over the pool and the pool's start costs less than its work.
BATCHES_PER_JOB = 16


def parallel_map(worker: Callable, items: Sequence, jobs: int) -> Iterator:
    """Yield worker(item) for each item, in item order.

    With jobs > 1 and enough items for BATCHES_PER_JOB batches per process the
    calls run in a pool of that many processes, which receive the items in
    contiguous batches; otherwise they run here.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and len(items) >= jobs * BATCHES_PER_JOB:
        with Pool(jobs) as pool:
            yield from pool.imap(worker, items, len(items) // (jobs * BATCHES_PER_JOB))
    else:
        yield from map(worker, items)
