"""Every split of work across CPUs, one worker per CPU.

Work that releases the GIL (blob detection) runs on a thread pool, one
thread per contiguous range of range(n), while the calling thread waits.
Every worker is joined before the runner returns or raises, and the error
of the earliest failing item wins.  Memory that a run would need is
checked here too, before it is allocated.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from .errors import ConfigError


def worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        size, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return size * pages if size > 0 and pages > 0 else None


def refuse_beyond_memory(what: str, need: int) -> None:
    """Refuse, before allocating, a run that needs more than physical
    memory; `what` names the key, flag or file behind the `need` bytes."""
    memory = physical_memory()
    if memory is not None and need > memory:
        raise ConfigError(
            f"{what}, {need} bytes, more than the {memory} bytes of physical memory"
        )


def split(n: int, jobs: int) -> list[range]:
    """Split range(n) into at most `jobs` contiguous, non-empty ranges."""
    jobs = max(1, min(jobs, n))
    bounds = [n * k // jobs for k in range(jobs + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def map_threads(n: int, item: Callable[[int], object]) -> list:
    """[item(i) for i in range(n)], over contiguous ranges of range(n).

    Each range runs on its own pool thread, one per CPU.  Results are
    joined in range order, so when several ranges raise, the exception of
    the earliest one propagates.  Once a range has raised, every later
    range stops at its next item, since its result is discarded; earlier
    ranges run on, as one of them may raise first.  An interrupt of the
    waiting caller stops every range at its next item.
    """
    ranges = split(n, worker_count())
    stop = [False] * len(ranges)

    def work(k: int) -> list:
        out = []
        for i in ranges[k]:
            if stop[k]:
                break
            try:
                out.append(item(i))
            except BaseException:
                stop[k + 1 :] = [True] * (len(ranges) - k - 1)
                raise
        return out

    # n = 0 leaves no range, but a pool needs a thread, which it never starts.
    with ThreadPoolExecutor(max(1, len(ranges))) as pool:
        try:
            parts = list(pool.map(work, range(len(ranges))))
        except BaseException:  # also an interrupt of the waiting caller
            stop[:] = [True] * len(ranges)
            raise
    return [result for part in parts for result in part]
