"""Ordered fan-out of a picklable worker over an argument list."""
from __future__ import annotations

from multiprocessing import Pool
from typing import Callable, Iterator, Sequence


def parallel_map(worker: Callable, arglist: Sequence, jobs: int) -> Iterator:
    """Yield worker(args) for each entry of arglist, in order.

    With jobs > 1 and more than one entry the calls run in a pool of that
    many processes; otherwise they run here.  Callers choose the chunking.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and len(arglist) > 1:
        with Pool(jobs) as pool:
            yield from pool.imap(worker, arglist)
    else:
        for args in arglist:
            yield worker(args)
