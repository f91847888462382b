"""The CPU runner's contiguous ranges."""
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from doubleslit import workers


@pytest.mark.parametrize("n,jobs", [(0, 2), (1, 4), (31, 2), (31, 3), (30, 2), (5, 8)])
def test_split_covers_in_order(n, jobs):
    ranges = workers.split(n, jobs)
    assert [i for r in ranges for i in r] == list(range(n))
    assert all(len(r) > 0 for r in ranges)
    assert len(ranges) == min(jobs, n)
    sizes = [len(r) for r in ranges]
    assert not sizes or max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("n,jobs", [(0, 2), (1, 2), (7, 1), (7, 3)])
def test_map_threads_runs_every_range_on_its_pool(monkeypatch, n, jobs):
    # Results come back in item order, and the calling thread runs none.
    monkeypatch.setattr(workers, "worker_count", lambda: jobs)
    caller = threading.get_ident()
    results = workers.map_threads(n, lambda i: (i, threading.get_ident()))
    assert [i for i, _ in results] == list(range(n))
    assert all(thread != caller for _, thread in results)


# 2 ranges of 1000 items of 10 ms each; prints once the ranges have started,
# and on an interrupt prints how many items ran.
INTERRUPTED_RUN = """
import time
from doubleslit import workers
workers.worker_count = lambda: 2
done = []
def item(i):
    if i == 0:
        print("started", flush=True)
    time.sleep(0.01)
    done.append(i)
try:
    workers.map_threads(2000, item)
except KeyboardInterrupt:
    print(len(done), flush=True)
"""


def test_interrupt_of_the_waiting_caller_stops_every_range():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_RUN], env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        assert proc.stdout.readline() == "started\n"
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    # Left to run, the ranges would finish all 2000 items in about 10 s.
    assert int(out) < 200, out
