"""Every split of work across CPUs, one worker per CPU.

Work that releases the GIL (blob detection) runs on threads, over
contiguous ranges of range(n) of which the calling thread takes the first.
Work that holds it (number formatting) runs in forked processes, which
take their items in turn from the calling process as it computes them.
Every worker is joined before a runner returns or raises, and the error of
the earliest failing item wins.  Memory that a run would need is checked
here too, before it is allocated.
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


def fork_count(n: int) -> int:
    """The processes run_forked(n, ...) forks: one per CPU, at most n, and
    none with one CPU or without the fork start method."""
    jobs = worker_count() if "fork" in multiprocessing.get_all_start_methods() else 1
    jobs = min(jobs, n)
    return jobs if jobs > 1 else 0


def run_forked(
    n: int,
    item: Callable[[int], object],
    work: Callable[[int, object], None],
    name: Callable[[int], str],
) -> None:
    """work(i, item(i)) for i in range(n): `item` runs in the calling
    process, in order, and `work` in a forked child.

    `item` returns a C-contiguous buffer, which reaches its child as bytes
    through a pipe; `work` reads it as a buffer, since without children it
    gets the buffer itself.  The w children (`fork_count`) are forked once
    item(0) is ready, so they inherit what it built.  Child k takes items
    k, k + w, k + 2w, ... and gets each once it has reported the one
    before, so the calling process holds one item and each child one.  A
    child inherits `work` and all it reads; `work` must take no lock that
    a thread of the parent might hold.

    The calling process stops at the first OSError a child reports, and a
    child lost while it works becomes an OSError naming its item through
    `name`.  Every child is joined, and the error of the earliest item is
    raised.  Without children every item runs here.
    """
    jobs = fork_count(n)
    if not jobs:
        for i in range(n):
            work(i, item(i))
        return
    context = multiprocessing.get_context("fork")
    children: list[list] = []  # [process, connection, item it works on]
    errors: list[tuple[int, OSError]] = []
    try:
        for i in range(n):
            data = item(i)
            while len(children) < jobs:
                here, there = context.Pipe()
                # The child closes every parent end it inherits, so that it
                # sees EOF once the parent closes its own.
                ends = [slot[1] for slot in children] + [here]
                args = (len(children), jobs, n, work, there, ends)
                child = context.Process(target=_serve, args=args)
                try:
                    child.start()
                finally:
                    there.close()
                children.append([child, here, None])
            slot = children[i % jobs]
            errors += _report(slot, name)
            if errors:
                break
            try:
                slot[1].send_bytes(data)
            except OSError:
                pass  # the child is lost; _report names it
            slot[2] = i
            del data
    finally:
        for slot in children:
            errors += _report(slot, name)
            slot[1].close()
            slot[0].join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]


def _serve(k: int, jobs: int, n: int, work, connection, ends) -> None:
    """A forked child: work(i, data) on items k, k + jobs, ... as they
    arrive, reporting None or the OSError of each; stop at EOF or at an
    OSError."""
    for end in ends:
        end.close()
    for i in range(k, n, jobs):
        try:
            data = connection.recv_bytes()
        except EOFError:
            return
        try:
            work(i, data)
        except OSError as exc:
            connection.send(exc)
            return
        connection.send(None)
        del data


def _report(slot: list, name: Callable[[int], str]) -> list[tuple[int, OSError]]:
    """Wait for a child's report on the item it works on, if any; its
    OSError, or one for a child lost while it worked, with the item."""
    child, connection, i = slot
    if i is None:
        return []
    slot[2] = None
    try:
        error = connection.recv()
    except EOFError:
        child.join()
        code = child.exitcode
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        error = OSError(f"the writer of {name(i)} {how}")
    return [] if error is None else [(i, error)]
