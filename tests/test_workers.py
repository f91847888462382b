"""The CPU runner's contiguous ranges."""
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
