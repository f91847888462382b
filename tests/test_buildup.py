"""The frame pipelines: parallel frame ranges reproduce a sequential loop."""
import dataclasses
import time

import numpy as np
import pytest

from doubleslit import blobdetect, pgm, sampler, workers
from doubleslit.blobdetect import accumulate_buildup, detect_blobs, geometric_scales
from doubleslit.buildup import restrict_profile, run_buildup, run_detect
from doubleslit.cli import _row_templates, _write_profile
from doubleslit.config import load_config
from doubleslit.errors import FrameFileError
from doubleslit.pgm import read_pgm, write_pgm
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
    monkeypatch.setattr(workers, "worker_count", lambda: jobs)
    run = run_buildup(config)
    events, rows = sequential_rows(config)
    assert run.events == events
    assert run.rows == rows
    expected_canvas, expected_snapshots = accumulate_buildup(
        [blob for _, _, blob in rows],
        config.frame_width,
        config.frame_height,
        checkpoints=config.checkpoints,
    )
    assert run.canvas.tobytes() == expected_canvas.tobytes()
    assert sorted(run.snapshots) == sorted(expected_snapshots)
    for count, canvas in expected_snapshots.items():
        assert run.snapshots[count].tobytes() == canvas.tobytes()
    assert run.metrics["n_events"] == n_events
    assert run.metrics["n_blobs"] == len(rows)


def test_events_arriving_together_each_get_a_frame(mini, monkeypatch):
    # Every frame is exposed for one mean inter-arrival period from its
    # event's arrival, so a gap of exactly zero still renders and detects
    # each event in a frame of its own.
    config = dataclasses.replace(mini, n_events=3, checkpoints=(1, 2, 3))
    monkeypatch.setattr(
        sampler, "sample_arrival_times", lambda rate, n, seed: np.array([1.0, 1.0, 2.0])
    )
    real_render, real_detect = sampler.render_frame, blobdetect.detect_blobs
    peaks, detected = {}, []

    def render(events, window, *args, frame_index, **kwargs):
        frame = real_render(events, window, *args, frame_index=frame_index, **kwargs)
        peaks[frame_index] = int(frame.counts.max())
        return frame

    def detect(*args):
        detected.append(args)
        return real_detect(*args)

    monkeypatch.setattr(sampler, "render_frame", render)
    monkeypatch.setattr(blobdetect, "detect_blobs", detect)
    run = run_buildup(config)
    assert [event.t for event in run.events] == [1.0, 1.0, 2.0]
    assert sorted(peaks) == [0, 1, 2] and len(detected) == 3
    # Each frame holds its event's spot, of peak amplitude 1000.
    assert min(peaks.values()) > 0.9 * config.amplitude


def spot_frame(spots, shape=(32, 64)):
    y, x = np.mgrid[0 : shape[0], 0 : shape[1]]
    img = np.full(shape, 20.0)
    for cx, cy, sigma in spots:
        img += 1000.0 * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma**2))
    return np.rint(img).astype(np.uint16)


@pytest.fixture(scope="module")
def frame_files(tmp_path_factory):
    """Seven frame files; the fourth holds no spot."""
    folder = tmp_path_factory.mktemp("frames")
    spots = [
        [(20, 16, 3.0), (45, 10, 2.5)],
        [(32, 16, 3.0)],
        [(8, 8, 2.0), (30, 20, 4.0), (55, 12, 3.0)],
        [],
        [(50, 22, 2.5)],
        [(12, 24, 3.5), (40, 8, 2.0)],
        [(33, 15, 3.0)],
    ]
    paths = []
    for k, frame_spots in enumerate(spots):
        path = folder / f"f{k}.pgm"
        write_pgm(path, spot_frame(frame_spots))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("count", [7, 1])
def test_run_detect_matches_sequential_loop(mini, frame_files, monkeypatch, jobs, count):
    paths = frame_files[:count]
    monkeypatch.setattr(workers, "worker_count", lambda: jobs)
    scales = geometric_scales(mini.blob_t_min, mini.blob_t_max, mini.blob_ratio)
    expected = [detect_blobs(read_pgm(p), scales, mini.blob_threshold) for p in paths]
    assert run_detect(paths, mini) == expected
    if count > 3:
        assert expected[3] == []
        assert all(expected[k] for k in range(count) if k != 3)


def test_later_range_stops_after_earlier_range_raises(mini, frame_files, monkeypatch, tmp_path):
    # At 2 workers the first range fails on its first file at once; the
    # second range's result would be discarded, so it should stop reading.
    paths = [str(tmp_path / "missing.pgm")] + (frame_files * 6)[:41]
    second = len(workers.split(len(paths), 2)[1])
    real_read = pgm.read_pgm
    reads = []

    def slow_read(path):
        reads.append(path)
        image = real_read(path)
        time.sleep(0.005)
        return image

    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    monkeypatch.setattr(pgm, "read_pgm", slow_read)
    with pytest.raises(FrameFileError, match="missing.pgm"):
        run_detect(paths, mini)
    assert len(reads) - 1 < second // 4


def test_restrict_profile_renormalizes(mini, tmp_path):
    # The last two half-widths are the |x| of the first and the last row
    # the first keeps: restrict_profile and the profile CSV both keep that
    # row, since they clip by one rule, |x| <= half-width.
    full = simulate_beamline(mini.layout(), mini.beam(), 0.0, mini.grid())
    half = 2.5 * mini.fringe_period()
    edges = np.abs(full.x[np.abs(full.x) <= half][[0, -1]]).tolist()
    for half_width in (half, *edges):
        keep = np.abs(full.x) <= half_width
        source = restrict_profile(full, half_width)
        assert (source.n, source.x0) == (np.count_nonzero(keep), full.x[keep][0])
        assert float(source.values.sum()) * source.dx == pytest.approx(1.0)
        kept, blocks = _row_templates(full, half_width)
        _write_profile(tmp_path / "profile.csv", full, kept, blocks)
        rows = (tmp_path / "profile.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == full.x[keep].tolist()
