"""Event sampling and frame rendering: determinism, distributions, PSF."""
import csv

import numpy as np
import pytest

from doubleslit.blobdetect import detect_blobs, geometric_scales
from doubleslit.errors import DomainError
from doubleslit.propagation import IntensityProfile
from doubleslit.sampler import (
    CHUNK,
    DetectionEvent,
    _chunk_generator,
    _uniforms,
    make_events,
    pixel_offsets,
    render_frame,
    sample_arrival_times,
    sample_heights,
    sample_positions,
    write_events_csv,
)

SEED = 12345


def uniform_profile(lo=-1.0, hi=1.0, n=256):
    dx = (hi - lo) / n
    values = np.full(n, 1.0 / (hi - lo))
    return IntensityProfile(x0=lo + dx / 2, dx=dx, values=values, normalized=True)


# --- RNG pinning -------------------------------------------------------------

def test_rng_pin_vectors():
    # Generator contract: PCG64 seeded with SeedSequence((seed, stream,
    # chunk_index)), consumed in chunks of 1024 doubles.  These vectors
    # freeze the contract; any change to it must fail here.
    assert CHUNK == 1024
    got = _uniforms(12345, 0, 4)
    assert got == pytest.approx(
        [0.22733602246716966, 0.31675833970975287,
         0.79736545733273412, 0.67625467075097456], abs=0.0)
    got = _uniforms(12345, 1, 2)
    assert got == pytest.approx(
        [0.47774941235295809, 0.2091006743637982], abs=0.0)


def test_rng_chunk_boundary_is_seamless():
    # A prefix read crosses the 1024-draw boundary from the end of chunk 0
    # straight into the start of chunk 1, each drawn on its own from its key.
    straight = _uniforms(SEED, 0, CHUNK + 3)[CHUNK - 2 : CHUNK + 3]
    chunk0 = _chunk_generator(SEED, 0, 0).random(CHUNK)
    chunk1 = _chunk_generator(SEED, 0, 1).random(CHUNK)
    assert np.array_equal(straight, np.concatenate([chunk0[-2:], chunk1[:3]]))


@pytest.mark.parametrize("draw", [
    lambda n: sample_positions(uniform_profile(), n, SEED),
    lambda n: sample_arrival_times(1.0, n, SEED),
    lambda n: sample_heights(1.0, n, SEED),
], ids=["positions", "arrival_times", "heights"])
def test_negative_event_count_is_refused(draw):
    with pytest.raises(DomainError, match="event count must be nonnegative, got -1"):
        draw(-1)
    assert draw(0).shape == (0,)


def test_prefix_stability():
    # Drawing more events never changes the earlier ones.
    prof = uniform_profile()
    long = sample_positions(prof, 2000, SEED)
    short = sample_positions(prof, 700, SEED)
    assert np.array_equal(long[:700], short)
    t_long = sample_arrival_times(2.0, 1500, SEED)
    t_short = sample_arrival_times(2.0, 400, SEED)
    assert np.array_equal(t_long[:400], t_short)


def test_streams_are_independent():
    xs = sample_positions(uniform_profile(), 100, SEED)
    ts = sample_arrival_times(1.0, 100, SEED)
    ys = sample_heights(1.0, 100, SEED)
    # Same seed, different streams: no pairwise correlation by construction.
    assert abs(np.corrcoef(xs, ys)[0, 1]) < 0.3
    assert not np.array_equal(np.sort(xs), np.sort(ys))
    assert ts.shape == (100,)


# --- position sampling -------------------------------------------------------

def test_positions_follow_uniform_profile():
    prof = uniform_profile(-2.0, 2.0)
    xs = sample_positions(prof, 20000, SEED)
    assert xs.min() >= -2.0 and xs.max() <= 2.0
    assert np.mean(xs) == pytest.approx(0.0, abs=0.05)
    assert np.var(xs) == pytest.approx(4.0 / 3.0, rel=0.05)


def test_positions_concentrate_where_profile_does():
    # All mass in one interior cell: samples stay within that cell.
    n, dx = 64, 0.1
    values = np.zeros(n)
    values[40] = 1.0 / dx
    prof = IntensityProfile(x0=-3.15, dx=dx, values=values, normalized=True)
    xs = sample_positions(prof, 500, SEED)
    center = prof.x[40]
    assert np.all(np.abs(xs - center) <= dx)


def test_positions_require_normalized_profile():
    prof = IntensityProfile(x0=0.0, dx=1.0, values=np.ones(8), normalized=False)
    with pytest.raises(DomainError):
        sample_positions(prof, 10, SEED)


def test_arrival_times_are_exponential_gaps():
    ts = sample_arrival_times(2.0, 20000, SEED)
    gaps = np.diff(np.concatenate([[0.0], ts]))
    assert np.all(gaps > 0)
    # Mean gap 1/rate; std error 1/(rate sqrt(n)) ~ 0.0035.
    assert np.mean(gaps) == pytest.approx(0.5, abs=0.02)
    with pytest.raises(DomainError):
        sample_arrival_times(0.0, 5, SEED)


def test_heights_fill_band_uniformly():
    ys = sample_heights(4e-5, 20000, SEED)
    assert ys.min() >= -2e-5 and ys.max() <= 2e-5
    assert np.mean(ys) == pytest.approx(0.0, abs=3e-7)


def test_make_events_is_deterministic():
    prof = uniform_profile()
    a = make_events(prof, 1.0, 4e-5, 50, SEED)
    b = make_events(prof, 1.0, 4e-5, 50, SEED)
    assert a == b
    c = make_events(prof, 1.0, 4e-5, 50, SEED + 1)
    assert a != c
    ts = [e.t for e in a]
    assert ts == sorted(ts)


# --- frame rendering ---------------------------------------------------------

def one_event(x, t=0.5, y=0.0):
    return DetectionEvent(t=t, x=x, y=y)


def test_render_places_spot_at_subpixel_position():
    # Event at x = 3 pixels right of center, no background.
    pitch = 12e-6
    ev = one_event(3 * pitch)
    frame = render_frame([ev], (0.0, 1.0), 2.0, 0.0, SEED,
                         width=33, height=11, pitch=pitch, amplitude=1000.0)
    assert frame.counts.dtype == np.uint16
    peak = np.unravel_index(np.argmax(frame.counts), frame.counts.shape)
    assert peak == (5, 19)  # center row 5, center col 16 + 3
    assert frame.counts[peak] == 1000


@pytest.mark.parametrize("width, height", [(47, 31), (48, 32), (47, 32), (48, 31)])
def test_pixel_convention_round_trips_through_detection(width, height):
    # Pixel k sits k - (size - 1) / 2 pitches from the axis, on both axes.
    assert pixel_offsets(np.arange(width), width)[[0, -1]].tolist() == [
        -(width - 1) / 2, (width - 1) / 2
    ]
    pitch = 12e-6
    ladder = geometric_scales(2.0, 30.0, 1.3)
    for kx, ky in [(-5, -3), (0, 0), (4, 2), (2.37, 1.61), (-0.5, -0.81)]:
        ev = one_event(kx * pitch, y=ky * pitch)
        frame = render_frame([ev], (0.0, 1.0), 3.0, 0.0, SEED,
                             width=width, height=height, pitch=pitch, amplitude=1000.0)
        (blob,) = detect_blobs(frame.counts, ladder)
        assert pixel_offsets(blob.x, width) * pitch == pytest.approx(ev.x, abs=0.01 * pitch)
        assert pixel_offsets(blob.y, height) * pitch == pytest.approx(ev.y, abs=0.01 * pitch)


def test_render_spot_mass_matches_gaussian_integral():
    ev = one_event(0.0)
    frame = render_frame([ev], (0.0, 1.0), 3.0, 0.0, SEED,
                         width=65, height=33, pitch=12e-6, amplitude=500.0)
    total = float(frame.counts.sum())
    expected = 500.0 * 2 * np.pi * 9.0
    assert total == pytest.approx(expected, rel=0.01)


def test_render_window_selects_events():
    pitch = 12e-6
    evs = [DetectionEvent(t=0.2, x=-5 * pitch, y=0.0),
           DetectionEvent(t=1.2, x=+5 * pitch, y=0.0)]
    fr0 = render_frame(evs, (0.0, 1.0), 2.0, 0.0, SEED, width=33, height=11,
                       pitch=pitch, amplitude=1000.0)
    fr1 = render_frame(evs, (1.0, 2.0), 2.0, 0.0, SEED, frame_index=0,
                       width=33, height=11, pitch=pitch, amplitude=1000.0)
    # The spot has full-frame Gaussian support, so compare peak columns.
    assert np.unravel_index(np.argmax(fr0.counts), fr0.counts.shape)[1] == 11
    assert np.unravel_index(np.argmax(fr1.counts), fr1.counts.shape)[1] == 21
    assert fr0.counts.max() == fr1.counts.max() == 1000


def test_render_saturates_at_16_bits():
    ev = one_event(0.0)
    frame = render_frame([ev], (0.0, 1.0), 2.0, 0.0, SEED,
                         width=33, height=11, pitch=12e-6, amplitude=1e7)
    assert frame.counts.max() == 65535


def test_background_keyed_by_frame_index():
    frame_a = render_frame([], (0.0, 1.0), 2.0, 0.5, SEED, frame_index=0,
                           width=64, height=16, pitch=12e-6, amplitude=1000.0)
    frame_a2 = render_frame([], (0.0, 1.0), 2.0, 0.5, SEED, frame_index=0,
                            width=64, height=16, pitch=12e-6, amplitude=1000.0)
    frame_b = render_frame([], (0.0, 1.0), 2.0, 0.5, SEED, frame_index=1,
                           width=64, height=16, pitch=12e-6, amplitude=1000.0)
    assert np.array_equal(frame_a.counts, frame_a2.counts)
    assert not np.array_equal(frame_a.counts, frame_b.counts)
    # Poisson(0.5) over 1024 pixels: mean count close to 512.
    assert int(frame_a.counts.sum()) == pytest.approx(512, abs=120)


def test_render_rejects_bad_arguments():
    camera = dict(width=416, height=32, pitch=12e-6, amplitude=1000.0)
    with pytest.raises(DomainError):
        render_frame([], (1.0, 1.0), 2.0, 0.0, SEED, **camera)
    with pytest.raises(DomainError):
        render_frame([], (0.0, 1.0), -2.0, 0.0, SEED, **camera)
    with pytest.raises(DomainError):
        render_frame([], (0.0, 1.0), 2.0, -0.1, SEED, **camera)
    # A negative peak would render as counts wrapped up to 65535, and NaN as
    # zeros with a cast warning.
    ev = DetectionEvent(t=0.5, x=0.0, y=0.0)
    for amplitude in (-5.0, 0.0, float("nan"), -float("inf")):
        camera["amplitude"] = amplitude
        with pytest.raises(DomainError, match="spot amplitude must be positive"):
            render_frame([ev], (0.0, 1.0), 2.0, 0.0, SEED, **camera)
    # A negative pitch would mirror the spot, zero divide by zero, NaN render
    # zeros with a cast warning and infinity centre every spot; a width below
    # 1 would fail inside numpy or return an empty frame.
    camera["amplitude"] = 1000.0
    for pitch in (-12e-6, 0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="pixel pitch must be finite and positive"):
            render_frame([ev], (0.0, 1.0), 2.0, 0.0, SEED, **{**camera, "pitch": pitch})
    for size in ({"width": -3}, {"width": 0}, {"height": 0}):
        with pytest.raises(DomainError, match="frame must be at least 1 x 1 pixels"):
            render_frame([ev], (0.0, 1.0), 2.0, 0.0, SEED, **{**camera, **size})


# --- CSV round trip ----------------------------------------------------------

def test_events_csv_round_trip(tmp_path):
    events = make_events(uniform_profile(), 1.5, 4e-5, 25, SEED)
    path = tmp_path / "events.csv"
    write_events_csv(events, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["index", "t_s", "x_m", "y_m"]
    assert [int(row[0]) for row in rows] == list(range(25))
    back = [DetectionEvent(float(t), float(x), float(y)) for _, t, x, y in rows]
    assert back == events
