"""Scale-space blob detection and build-up accumulation."""
import numpy as np
import pytest

from doubleslit.blobdetect import (
    MAX_SCALES,
    BlobDescriptor,
    accumulate_buildup,
    detect_blobs,
    geometric_scales,
    scale_space_response,
    write_blobs_csv,
)
from doubleslit.errors import DomainError

LADDER = geometric_scales(2.0, 30.0, 1.3)


def gaussian_spot(shape, y, x, sigma, amplitude=1000.0):
    rows = np.arange(shape[0])[:, None]
    cols = np.arange(shape[1])[None, :]
    return amplitude * np.exp(-((cols - x) ** 2 + (rows - y) ** 2) / (2 * sigma**2))


def test_scale_ladder_default():
    assert LADDER[0] == 2.0
    assert LADDER[-1] <= 30.0
    assert len(LADDER) == 11
    ratios = np.diff(np.log(np.array(LADDER)))
    assert np.allclose(ratios, np.log(1.3))
    with pytest.raises(DomainError):
        geometric_scales(5.0, 2.0, 1.3)
    with pytest.raises(DomainError):
        geometric_scales(2.0, 30.0, 1.0)
    # The ladder holds 3 to MAX_SCALES scales.
    assert geometric_scales(1.0, 4.0, 2.0) == (1.0, 2.0, 4.0)
    assert len(geometric_scales(1.0, 2.0 ** (MAX_SCALES - 1), 2.0)) == MAX_SCALES
    for t_max in (1.0, 3.9):  # one and two rungs
        with pytest.raises(DomainError, match="fewer than 3 scales"):
            geometric_scales(1.0, t_max, 2.0)
    # One rung past the bound, a t_max whose slack overflows to inf, and a
    # ratio that asks for ~10^9 rungs: each is refused at rung MAX_SCALES + 1.
    for t_min, t_max, ratio in (
        (1.0, 2.0**MAX_SCALES, 2.0),
        (2.0, 1.7976931348623157e308, 1.3),
        (2.0, 30.0, 1.000000001),
    ):
        with pytest.raises(DomainError, match=f"more than MAX_SCALES = {MAX_SCALES}"):
            geometric_scales(t_min, t_max, ratio)


def test_response_peaks_at_matched_scale():
    # Scale-normalized response of a Gaussian spot peaks at t = sigma^2
    # with magnitude amplitude/2 (continuous theory; discrete within 5%).
    frame = gaussian_spot((48, 96), 20.0, 45.0, 3.0)
    resp = scale_space_response(frame, LADDER)
    assert resp.shape == (11, 48, 96)
    k, i, j = np.unravel_index(np.argmax(np.abs(resp)), resp.shape)
    assert (i, j) == (20, 45)
    assert LADDER[k] == pytest.approx(9.0, rel=0.35)  # nearest ladder rung
    assert np.abs(resp).max() == pytest.approx(500.0, rel=0.05)


def test_scale_normalization_equalizes_sizes():
    # Same amplitude, different sizes: peak |response| nearly equal.
    peaks = []
    for sigma in (2.0, 3.0, 4.0):
        frame = gaussian_spot((64, 64), 32.0, 32.0, sigma)
        peaks.append(np.abs(scale_space_response(frame, LADDER)).max())
    assert max(peaks) / min(peaks) < 1.1


def test_detect_single_spot_subpixel():
    frame = gaussian_spot((48, 96), 20.3, 45.7, 3.0)
    blobs = detect_blobs(frame, LADDER)
    assert len(blobs) == 1
    b = blobs[0]
    assert abs(b.x - 45.7) < 0.1
    assert abs(b.y - 20.3) < 0.1
    assert 0.8 <= b.scale_t / 9.0 <= 1.2


def test_detect_requires_three_scales():
    frame = gaussian_spot((32, 32), 16.0, 16.0, 3.0)
    with pytest.raises(DomainError):
        detect_blobs(frame, (4.0, 9.0))


@pytest.mark.parametrize("threshold", [None, 50.0])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_detect_refuses_non_finite_frames(bad, threshold):
    frame = gaussian_spot((32, 64), 16.0, 40.0, 3.0)
    assert len(detect_blobs(frame, LADDER, threshold)) == 1
    frame[5, 5] = bad
    with pytest.raises(DomainError, match="finite frame"):
        detect_blobs(frame, LADDER, threshold)


def test_detect_multiple_spots_with_sizes():
    frame = (
        gaussian_spot((48, 96), 24.0, 25.0, 2.5)
        + gaussian_spot((48, 96), 24.0, 70.0, 4.0, amplitude=800.0)
    )
    blobs = detect_blobs(frame, LADDER)
    assert len(blobs) == 2
    blobs.sort(key=lambda b: b.x)
    assert abs(blobs[0].x - 25.0) < 0.1 and 0.8 <= blobs[0].scale_t / 6.25 <= 1.2
    assert abs(blobs[1].x - 70.0) < 0.1 and 0.8 <= blobs[1].scale_t / 16.0 <= 1.2


def test_detect_under_noise_snr10():
    rng = np.random.default_rng(7)
    clean = gaussian_spot((48, 96), 20.3, 45.7, 3.0)
    blobs = detect_blobs(clean + rng.normal(0.0, 100.0, clean.shape), LADDER)
    assert len(blobs) == 1
    assert abs(blobs[0].x - 45.7) < 0.5
    assert abs(blobs[0].y - 20.3) < 0.5


def test_no_blobs_in_pure_noise():
    rng = np.random.default_rng(11)
    for _ in range(5):
        frame = rng.normal(0.0, 50.0, (48, 96))
        assert detect_blobs(frame, LADDER) == []


def test_overlapping_detections_are_merged():
    # Two spots 4 px apart at sigma 3 overlap far inside the suppression
    # radius; only the joint structure is reported.
    frame = (
        gaussian_spot((48, 96), 24.0, 40.0, 3.0)
        + gaussian_spot((48, 96), 24.0, 44.0, 3.0, amplitude=800.0)
    )
    assert len(detect_blobs(frame, LADDER)) == 1


def test_border_spot_discarded():
    frame = gaussian_spot((48, 96), 24.0, 1.0, 3.0)
    assert detect_blobs(frame, LADDER) == []


def test_large_spot_needs_extended_ladder():
    # sigma = 6 peaks at t = 36, beyond the default top rung 27.6; the
    # detector must not report a truncated scale, and an extended ladder
    # recovers the spot.
    frame = gaussian_spot((64, 96), 32.0, 48.0, 6.0)
    extended = geometric_scales(2.0, 60.0, 1.3)
    blobs = detect_blobs(frame, extended)
    assert len(blobs) == 1
    assert 0.8 <= blobs[0].scale_t / 36.0 <= 1.2


def test_explicit_threshold_filters_weak_spots():
    frame = (
        gaussian_spot((48, 96), 24.0, 25.0, 3.0, amplitude=1000.0)
        + gaussian_spot((48, 96), 24.0, 70.0, 3.0, amplitude=100.0)
    )
    assert len(detect_blobs(frame, LADDER)) == 2
    strong_only = detect_blobs(frame, LADDER, threshold=200.0)
    assert len(strong_only) == 1
    assert abs(strong_only[0].x - 25.0) < 0.1


def test_accumulate_buildup_snapshots():
    blobs = [
        BlobDescriptor(x=10.0 + 3 * k, y=8.0, scale_t=9.0, response=-500.0)
        for k in range(10)
    ]
    result = accumulate_buildup(blobs, width=64, height=16, checkpoints=(2, 7, 10))
    assert sorted(result.snapshots) == [2, 7, 10]
    assert result.skipped == 0
    # Unit-integral stamps: canvas mass grows with the count (minus what
    # leaks off the canvas edges).
    m2 = result.snapshots[2].sum()
    m7 = result.snapshots[7].sum()
    assert m2 == pytest.approx(2.0, rel=0.15)
    assert m7 == pytest.approx(7.0, rel=0.15)
    assert np.array_equal(result.snapshots[10], result.canvas)


def test_accumulate_skips_out_of_canvas_blobs():
    blobs = [
        BlobDescriptor(x=-5.0, y=8.0, scale_t=9.0, response=-500.0),
        BlobDescriptor(x=30.0, y=8.0, scale_t=9.0, response=-500.0),
        BlobDescriptor(x=30.0, y=99.0, scale_t=9.0, response=-500.0),
    ]
    # One blob stamped: the count reaches checkpoint 1 but not 2.
    result = accumulate_buildup(blobs, width=64, height=16, checkpoints=(1, 2))
    assert sorted(result.snapshots) == [1]
    assert np.array_equal(result.snapshots[1], result.canvas)
    assert result.skipped == 2


def test_accumulate_rejects_bad_canvas():
    with pytest.raises(DomainError):
        accumulate_buildup([], width=0, height=16)
    with pytest.raises(DomainError):
        accumulate_buildup([], width=16, height=16, checkpoints=(0,))


def test_blobs_csv_format(tmp_path):
    rows = [(3, 1.25, BlobDescriptor(x=10.5, y=8.25, scale_t=9.0, response=-488.5))]
    path = tmp_path / "blobs.csv"
    write_blobs_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "frame,t_s,x_px,y_px,scale_t,response"
    fields = lines[1].split(",")
    assert fields[0] == "3"
    assert float(fields[2]) == 10.5
    assert float(fields[5]) == -488.5
