"""The CPU runners: contiguous ranges, earliest error, every worker joined."""
import multiprocessing
import os
import time

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


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_run_forked_runs_every_item_once(tmp_path, monkeypatch, jobs):
    monkeypatch.setattr(workers, "worker_count", lambda: jobs)
    workers.run_forked(7, lambda i: (tmp_path / f"{i}").write_text(str(os.getpid())), str)
    assert sorted(p.name for p in tmp_path.iterdir()) == [str(i) for i in range(7)]
    # The calling process ran the first range itself.
    assert (tmp_path / "0").read_text() == str(os.getpid())
    workers.run_forked(0, lambda i: None, str)
    assert multiprocessing.active_children() == []


def test_run_forked_names_a_lost_child(monkeypatch):
    # At 3 workers the ranges are 0..2, 3..5 and 6..8.
    monkeypatch.setattr(workers, "worker_count", lambda: 3)

    def work(i):
        if i == 4:
            os._exit(7)

    with pytest.raises(OSError, match="the writer of item3 to item5 exited with code 7"):
        workers.run_forked(9, work, lambda i: f"item{i}")
    assert multiprocessing.active_children() == []


def test_run_forked_joins_started_children_when_a_start_fails(tmp_path, monkeypatch):
    # At 3 workers the first child (items 3..5) starts, and the second
    # child's start fails; the parent's own range never runs.
    monkeypatch.setattr(workers, "worker_count", lambda: 3)
    process = multiprocessing.get_context("fork").Process
    real_start = process.start
    starts = []

    def start(child):
        starts.append(child)
        if len(starts) == 2:
            raise OSError("no more processes")
        real_start(child)

    def work(i):
        # Slow enough that an unjoined child would still be running.
        time.sleep(0.1)
        (tmp_path / f"{i}").touch()

    monkeypatch.setattr(process, "start", start)
    with pytest.raises(OSError, match="no more processes"):
        workers.run_forked(9, work, str)
    assert multiprocessing.active_children() == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["3", "4", "5"]
