"""The CPU runners: contiguous ranges, earliest error, every worker joined."""
import multiprocessing
import os
import time

import numpy as np
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
    items = []

    def item(i):
        items.append(i)
        return np.full(3, float(i))

    def work(i, data):
        assert np.frombuffer(data).tolist() == [float(i)] * 3
        (tmp_path / f"{i}").write_text(str(os.getpid()))

    workers.run_forked(7, item, work, str)
    assert items == list(range(7))
    assert sorted(p.name for p in tmp_path.iterdir()) == [str(i) for i in range(7)]
    # One CPU runs every item here; otherwise `jobs` children take them in
    # turn and the calling process writes none.
    pids = [(tmp_path / f"{i}").read_text() for i in range(7)]
    if jobs == 1:
        assert set(pids) == {str(os.getpid())}
    else:
        assert str(os.getpid()) not in pids
        assert all(pids[i] == pids[i % jobs] for i in range(7))
        assert len(set(pids)) == jobs
    workers.run_forked(0, item, work, str)
    assert multiprocessing.active_children() == []


def test_run_forked_names_a_lost_child(monkeypatch):
    # At 3 workers the second child takes items 1, 4 and 7.
    monkeypatch.setattr(workers, "worker_count", lambda: 3)

    def work(i, data):
        if i == 4:
            os._exit(7)

    with pytest.raises(OSError, match="the writer of item4 exited with code 7"):
        workers.run_forked(9, lambda i: b"", work, lambda i: f"item{i}")
    assert multiprocessing.active_children() == []


def test_run_forked_joins_started_children_when_a_start_fails(tmp_path, monkeypatch):
    # At 3 workers the first child starts and the second child's start
    # fails; no item reaches a child, and the first child is joined.
    monkeypatch.setattr(workers, "worker_count", lambda: 3)
    process = multiprocessing.get_context("fork").Process
    real_start = process.start
    starts = []

    def start(child):
        starts.append(child)
        if len(starts) == 2:
            raise OSError("no more processes")
        real_start(child)

    def work(i, data):
        (tmp_path / f"{i}").touch()

    monkeypatch.setattr(process, "start", start)
    with pytest.raises(OSError, match="no more processes"):
        workers.run_forked(9, lambda i: b"", work, str)
    assert multiprocessing.active_children() == []
    assert starts[0].exitcode == 0
    assert list(tmp_path.iterdir()) == []


def test_run_forked_raises_the_earliest_error_and_stops(tmp_path, monkeypatch):
    # At 2 workers items 3 and 4 fail.  Item 4's writer reports first, as
    # item 3's is slow; item 3's error is still the one raised, and no item
    # after the first error reported reaches a child.
    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    items = []

    def item(i):
        items.append(i)
        return b""

    def work(i, data):
        if i == 3:
            time.sleep(0.2)
        if i in (3, 4):
            raise OSError(f"cannot write {i}")
        (tmp_path / f"{i}").touch()

    with pytest.raises(OSError, match="cannot write 3"):
        workers.run_forked(9, item, work, str)
    assert multiprocessing.active_children() == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "1", "2"]
    assert items == [0, 1, 2, 3, 4, 5]


def test_run_forked_joins_children_when_an_item_raises(tmp_path, monkeypatch):
    # At 2 workers item 3 raises in the calling process: items 0..2 are
    # written, their children joined, and the item's own error is raised.
    monkeypatch.setattr(workers, "worker_count", lambda: 2)

    def item(i):
        if i == 3:
            raise ValueError("no item 3")
        return b""

    def work(i, data):
        (tmp_path / f"{i}").touch()

    with pytest.raises(ValueError, match="no item 3"):
        workers.run_forked(9, item, work, str)
    assert multiprocessing.active_children() == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "1", "2"]
