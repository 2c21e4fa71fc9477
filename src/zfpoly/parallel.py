"""Ordered fan-out of a picklable worker over a list of items."""
from __future__ import annotations

from multiprocessing import Pool
from typing import Callable, Iterator, Sequence

# Items per pool task: about BATCHES_PER_JOB batches per process, so the slow
# tail of a sweep (large orders, dense graphs) spreads over the pool, but at
# most MAX_BATCH items, so a batch's items and results stay small in memory.
BATCHES_PER_JOB = 16
MAX_BATCH = 4096


def parallel_map(worker: Callable, items: Sequence, jobs: int) -> Iterator:
    """Yield worker(item) for each item, in item order.

    With jobs > 1 and enough items for BATCHES_PER_JOB batches per process the
    calls run in a pool of that many processes, which receive the items in
    contiguous batches; otherwise they run here.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and len(items) >= jobs * BATCHES_PER_JOB:
        chunksize = min(MAX_BATCH, len(items) // (jobs * BATCHES_PER_JOB))
        with Pool(jobs) as pool:
            yield from pool.imap(worker, items, chunksize)
    else:
        yield from map(worker, items)
