"""The build-up pipeline: parallel frame ranges reproduce a sequential loop."""
import dataclasses

import numpy as np
import pytest

from doubleslit import buildup
from doubleslit.blobdetect import accumulate_buildup, detect_blobs, geometric_scales
from doubleslit.buildup import _frame_ranges, restrict_profile, run_buildup
from doubleslit.config import load_config
from doubleslit.propagation import simulate_beamline
from doubleslit.sampler import make_events, render_frame

# The mini config of tests/test_cli.py.
MINI_CONFIG = """\
sampler.n_events = 30
buildup.checkpoints = 2, 7, 30
run.seed = 7
"""


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mini.cfg"
    path.write_text(MINI_CONFIG)
    return load_config(str(path))


def sequential_rows(config):
    """The frame loop written out plainly: render, then detect, event by event."""
    full = simulate_beamline(config.layout(), config.beam(), 0.0, config.grid())
    source = restrict_profile(full, 2.5 * config.fringe_period())
    events = make_events(
        source, config.pattern_rate, config.height_band(), config.n_events, config.seed
    )
    scales = geometric_scales(config.blob_t_min, config.blob_t_max, config.blob_ratio)
    rows = []
    for i, event in enumerate(events):
        t1 = events[i + 1].t if i + 1 < len(events) else event.t + 1.0 / config.pattern_rate
        frame = render_frame(
            [event],
            (event.t, t1),
            config.psf_sigma,
            config.background,
            config.seed,
            frame_index=i,
            width=config.frame_width,
            height=config.frame_height,
            pitch=config.frame_pitch,
            amplitude=config.amplitude,
        )
        for blob in detect_blobs(frame.counts, scales, config.blob_threshold):
            rows.append((i, event.t, blob))
    return events, rows


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("n_events", [31, 1])
def test_run_buildup_matches_sequential_loop(mini, monkeypatch, jobs, n_events):
    config = dataclasses.replace(mini, n_events=n_events, checkpoints=(1, 7, 31))
    monkeypatch.setattr(buildup, "_worker_count", lambda: jobs)
    run = run_buildup(config)
    events, rows = sequential_rows(config)
    assert run.events == events
    assert run.rows == rows
    expected = accumulate_buildup(
        [blob for _, _, blob in rows],
        config.frame_width,
        config.frame_height,
        checkpoints=config.checkpoints,
    )
    assert run.result.image.canvas.tobytes() == expected.image.canvas.tobytes()
    assert sorted(run.result.snapshots) == sorted(expected.snapshots)
    for count, image in expected.snapshots.items():
        assert run.result.snapshots[count].canvas.tobytes() == image.canvas.tobytes()
    assert run.metrics["n_events"] == n_events
    assert run.metrics["n_blobs"] == len(rows)


@pytest.mark.parametrize("n,jobs", [(0, 2), (1, 4), (31, 2), (31, 3), (30, 2), (5, 8)])
def test_frame_ranges_cover_in_order(n, jobs):
    ranges = _frame_ranges(n, jobs)
    assert [i for r in ranges for i in r] == list(range(n))
    assert all(len(r) > 0 for r in ranges)
    assert len(ranges) == min(jobs, n)
    sizes = [len(r) for r in ranges]
    assert not sizes or max(sizes) - min(sizes) <= 1


def test_restrict_profile_renormalizes(mini):
    full = simulate_beamline(mini.layout(), mini.beam(), 0.0, mini.grid())
    half = 2.5 * mini.fringe_period()
    source = restrict_profile(full, half)
    assert np.all(np.abs(source.x) <= half)
    assert float(source.values.sum()) * source.dx == pytest.approx(1.0)
