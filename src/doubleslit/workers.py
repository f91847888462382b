"""Every split of work across CPUs: range(n) as contiguous ranges, one per CPU.

The calling thread or process takes the first range, results join in range
order, every worker is joined before a runner returns or raises, and the
error of the earliest failing range wins.  Work that releases the GIL (blob
detection) runs on threads; work that holds it (number formatting) runs in
forked processes.  Memory that a run would need is checked here too, before
it is allocated.
"""
from __future__ import annotations

import multiprocessing
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

    The ranges run on one thread per CPU, the calling thread taking the
    first.  Results are joined in range order, so when several ranges
    raise, the exception of the earliest one propagates.  Once a range has
    raised, every later range stops at its next item, since its result is
    discarded; earlier ranges run on, as one of them may raise first.
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
                for later in range(k + 1, len(ranges)):
                    stop[later] = True
                raise
        return out

    if len(ranges) > 1:
        with ThreadPoolExecutor(len(ranges) - 1) as pool:
            rest = [pool.submit(work, k) for k in range(1, len(ranges))]
            parts = [work(0)] + [f.result() for f in rest]
    else:
        parts = [work(k) for k in range(len(ranges))]
    return [result for part in parts for result in part]


def run_forked(n: int, work: Callable[[int], None], name: Callable[[int], str]) -> None:
    """work(i) for i in range(n): the calling process runs the first range,
    and one forked child runs each other range.

    A child inherits `work` and all it reads, so nothing is pickled on the
    way in; `work` must take no lock that a thread of the parent might hold.
    A range stops at its first OSError.  A child lost without one becomes an
    OSError naming its first and last item through `name`.  With one CPU,
    or without the fork start method, every item runs here.
    """

    def run(part: range) -> OSError | None:
        try:
            for i in part:
                work(i)
        except OSError as exc:
            return exc
        return None

    def child_main(part: range, send) -> None:
        send.send(run(part))

    jobs = worker_count() if "fork" in multiprocessing.get_all_start_methods() else 1
    ranges = split(n, jobs)
    children = []
    try:
        for part in ranges[1:]:
            context = multiprocessing.get_context("fork")
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=child_main, args=(part, send))
            try:
                child.start()
            finally:
                # Only the child holds the sending end, so a child that dies
                # before sending ends the parent's recv with EOFError.
                send.close()
            children.append((part, child, receive))
        first = run(ranges[0]) if ranges else None
    finally:
        later = [_join(*c, name) for c in children]
    for error in [first, *later]:
        if error is not None:
            raise error


def _join(part: range, child, receive, name: Callable[[int], str]) -> OSError | None:
    """Wait for a forked child; its OSError, or one for a lost child."""
    try:
        error = receive.recv()
    except EOFError:
        error = None
    child.join()
    receive.close()
    if error is None and child.exitcode != 0:
        code = child.exitcode
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        error = OSError(f"the writer of {name(part[0])} to {name(part[-1])} {how}")
    return error
