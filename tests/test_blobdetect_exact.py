"""The cropped minimum filter and in-place MAD agree exactly with the full-stack forms."""
import numpy as np
import pytest
from scipy import ndimage

from doubleslit import blobdetect
from doubleslit.blobdetect import (
    _mad,
    _thresholded_minima,
    detect_blobs,
    geometric_scales,
    scale_space_response,
)
from doubleslit.errors import DomainError

LADDER = geometric_scales(2.0, 30.0, 1.3)
SHAPE = (40, 96)


def reference_mad(stack):
    return np.median(np.abs(stack - np.median(stack)))


def reference_minima(stack, threshold):
    is_min = stack == ndimage.minimum_filter(stack, size=3, mode="nearest")
    extremal = is_min & (stack < -threshold)
    extremal[0] = False
    extremal[-1] = False
    return extremal


def reference_detect(frame, threshold):
    """detect_blobs with both kernels swapped for their full-stack forms."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blobdetect, "_mad", reference_mad)
        mp.setattr(blobdetect, "_thresholded_minima", reference_minima)
        return detect_blobs(frame, LADDER, threshold)


def spots(centres, sigma, shape=SHAPE, amplitude=1000.0):
    rows = np.arange(shape[0])[:, None]
    cols = np.arange(shape[1])[None, :]
    img = np.zeros(shape)
    for y, x in centres:
        img += amplitude * np.exp(-((cols - x) ** 2 + (rows - y) ** 2) / (2 * sigma**2))
    return img


def same_value(a, b):
    """Bit-identical."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_minima_on_random_stacks_with_plateaus_and_ties(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in rng.integers(3, 10, size=3))
    # Few distinct levels give ties everywhere; a constant sub-box and a
    # sparse variant give plateaus and candidates touching the borders.
    stack = rng.integers(-4, 3, size=shape).astype(np.float64)
    lo = [int(rng.integers(0, s)) for s in shape]
    hi = [int(rng.integers(a, s)) + 1 for a, s in zip(lo, shape)]
    stack[tuple(slice(a, b) for a, b in zip(lo, hi))] = -3.0
    sparse = np.where(rng.random(shape) < 0.05, stack, 0.0)
    for s in (stack, sparse):
        before = s.copy()
        for threshold in (0.5, 1.5, 2.5, 3.5, 10.0):
            np.testing.assert_array_equal(
                _thresholded_minima(s, threshold), reference_minima(s, threshold)
            )
        np.testing.assert_array_equal(s, before)
        assert same_value(_mad(s), reference_mad(s))


@pytest.mark.parametrize("size", [1, 2, 7, 10, 1001, 1002])
def test_mad_matches_median_on_odd_and_even_sizes(size):
    stack = np.random.default_rng(size).normal(size=size)
    before = stack.copy()
    assert same_value(_mad(stack), reference_mad(stack))
    np.testing.assert_array_equal(stack, before)


def border_frames():
    h, w = SHAPE
    frames = {
        "top": spots([(0.5, 30)], 3.0),
        "bottom": spots([(h - 1.5, 60)], 3.0),
        "left": spots([(20, 0.0)], 3.0),
        "right": spots([(15, w - 1.0)], 3.0),
        "corners": spots([(0, 0), (h - 1, w - 1), (0, w - 1), (h - 1, 0)], 2.5),
        "layer_1": spots([(12, 20), (30, 70)], np.sqrt(LADDER[1])),
        "layer_n-2": spots([(20, 48)], np.sqrt(LADDER[-2])),
        "zero": np.zeros(SHAPE),
    }
    noisy = spots([(10, 10), (25, 50), (5, 90)], 3.0)
    noisy += np.random.default_rng(11).poisson(3.0, SHAPE)
    frames["noisy"] = noisy
    with_nan = spots([(20, 70)], 3.0)
    with_nan[5, 5] = np.nan
    frames["nan"] = with_nan
    return frames


def test_border_frames_reach_the_inner_scale_layers():
    frames = border_frames()
    for name, k in (("layer_1", 1), ("layer_n-2", len(LADDER) - 2)):
        stack = scale_space_response(frames[name], LADDER)
        assert reference_minima(stack, 50.0)[k].any(), name


@pytest.mark.parametrize("threshold", [None, 50.0])
@pytest.mark.parametrize("name", sorted(border_frames()))
def test_detect_matches_full_stack_reference(name, threshold):
    frame = border_frames()[name]
    if name == "nan":
        # A non-finite frame is refused before either form of the kernels runs.
        for detect in (lambda f, t: detect_blobs(f, LADDER, t), reference_detect):
            with pytest.raises(DomainError, match="finite frame"):
                detect(frame, threshold)
        return
    assert detect_blobs(frame, LADDER, threshold) == reference_detect(frame, threshold)
