"""The detector's fast kernels agree exactly with their full-stack forms:
the cropped minimum filter, the in-place MAD, the counting proof of the
auto threshold and the in-place response stack."""
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from doubleslit import blobdetect, workers
from doubleslit.blobdetect import (
    _auto_threshold,
    _finite_peak,
    _mad,
    _thresholded_minima,
    detect_blobs,
    geometric_scales,
    scale_space_response,
)
from doubleslit.buildup import (
    refuse_kernels_beyond_memory,
    refuse_stacks_beyond_memory,
    run_buildup,
)
from doubleslit.config import load_config
from doubleslit.errors import ConfigError, DomainError

LADDER = geometric_scales(2.0, 30.0, 1.3)
SHAPE = (40, 96)
CONFIG_PATH = str(Path(__file__).resolve().parents[1] / "configs" / "default.cfg")
# The auto threshold's MAD multiplier, written as in the threshold formula.
SIGMAS = 7.0 * 1.4826


def reference_mad(stack):
    return np.median(np.abs(stack - np.median(stack)))


def reference_threshold(stack):
    return max(7.0 * 1.4826 * reference_mad(stack), 1e-3 * np.max(np.abs(stack)))


def reference_minima(stack, threshold):
    is_min = stack == ndimage.minimum_filter(stack, size=3, mode="nearest")
    extremal = is_min & (stack < -threshold)
    extremal[0] = False
    extremal[-1] = False
    return extremal


def reference_detect(frame, threshold):
    """detect_blobs with the auto threshold and the minima search swapped
    for their full-stack forms."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blobdetect, "_auto_threshold", lambda stack, peak: reference_threshold(stack))
        mp.setattr(
            blobdetect,
            "_thresholded_minima",
            lambda stack, threshold: np.nonzero(reference_minima(stack, threshold)),
        )
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
            found = _thresholded_minima(s, threshold)
            expected = np.nonzero(reference_minima(s, threshold))
            assert len(found) == len(expected) == 3
            for a, b in zip(found, expected):
                np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(s, before)
        assert same_value(_mad(s), reference_mad(s))


@pytest.mark.parametrize("size", [1, 2, 7, 10, 1001, 1002])
def test_mad_matches_median_on_odd_and_even_sizes(size):
    stack = np.random.default_rng(size).normal(size=size)
    before = stack.copy()
    assert same_value(_mad(stack), reference_mad(stack))
    np.testing.assert_array_equal(stack, before)


def threshold_case(kind, size, seed, detail):
    """A flat stack of `size` voxels of one kind, built from a seed."""
    rng = np.random.default_rng(seed)
    if kind == "levels":
        # Few distinct values: ties at the median, its bracket and c.
        stack = rng.integers(-3, 4, size=size).astype(np.float64)
        stack[rng.integers(0, size)] = 4e4 * detail
    elif kind == "constant":
        stack = np.full(size, [0.0, -0.0, 1.5, -2.0][seed % 4])
    elif kind == "noise":
        # The MAD term wins.
        stack = rng.normal(size=size)
    elif kind == "spike":
        # The floor wins unless the spike is small.
        stack = 1e-3 * rng.normal(size=size)
        stack[rng.integers(0, size)] = -50.0 * detail
    else:
        # near_c: a MAD within 1e-12 of c = floor / SIGMAS, on either side,
        # around a median far from zero, whose ulp is up to about 1e-12 of c.
        peak = 1e3
        c = 1e-3 * peak / SIGMAS * (1.0 + (detail - 0.5) * 2e-12)
        centre = peak * rng.uniform(-0.9, 0.9)
        stack = np.full(size, centre)
        side = rng.random(size)
        stack[side < 0.4] = centre - c
        stack[side >= 0.6] = centre + 10 * c
        stack[rng.integers(0, size)] = peak
    return stack


@settings(max_examples=400)
@given(
    kind=st.sampled_from(["levels", "constant", "noise", "spike", "near_c"]),
    # Samples of 1 to 7 voxels and of 99 to 263, odd and even sizes.
    size=st.one_of(st.integers(1, 400), st.integers(6000, 16000)),
    seed=st.integers(0, 2**32 - 1),
    detail=st.floats(0.0, 1.0),
)
def test_auto_threshold_matches_reference(kind, size, seed, detail):
    stack = threshold_case(kind, size, seed, detail)
    before = stack.copy()
    found = _auto_threshold(stack, _finite_peak(stack))
    assert same_value(found, reference_threshold(stack))
    np.testing.assert_array_equal(stack, before)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_auto_threshold_checks_that_the_sample_brackets_the_median(sign):
    """Every 61st voxel is 0, so the sample says the median is 0; more than
    half of the stack lies within c of 0, but the MAD is 1.8 c.  The median
    lies above the sample's bracket, and below it in the negated stack."""
    n = 61 * 200
    peak = 1e6
    c = 1e-3 * peak / SIGMAS
    rest = np.full(n - 200, 100 * c)
    rest[: int(0.3 * n)] = -0.9 * c
    rest[int(0.3 * n) : int(0.55 * n)] = 0.9 * c
    rest[-1] = peak
    stack = np.zeros(n)
    stack[np.arange(n) % 61 != 0] = np.random.default_rng(0).permutation(rest)
    stack *= sign
    assert same_value(reference_mad(stack), 1.8 * c)
    assert same_value(_auto_threshold(stack, _finite_peak(stack)), reference_threshold(stack))
    assert reference_threshold(stack) > 1e-3 * peak


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_auto_threshold_keeps_its_count_bounds_inside_the_proof(sign):
    """A voxel at the rounded bound fl(median - c) lies just over c from the
    median when the subtraction rounds down, so the MAD term wins by a few
    parts in 1e13: the bound must be moved one ulp inward.  The negated
    stack puts the voxel at the upper bound."""
    n = 20000
    # Within a binade the rounding of centre - c depends on c alone.
    for peak in np.linspace(1000.0, 1001.0, 101):
        c = 1e-3 * peak / SIGMAS
        centre = 0.45 * peak
        low = centre - c
        ulp = np.spacing(centre)
        if 0.1 * ulp <= (centre - low) - c <= 0.4 * ulp:
            break
    else:
        pytest.fail("no peak found whose lower count bound rounds down")
    # Every 61st voxel holds the median, so the sample brackets it exactly.
    sampled = np.arange(n) % 61 == 0
    rest = np.full(n - np.count_nonzero(sampled), centre)
    rest[: int(0.4 * n)] = low
    rest[-int(0.4 * n) :] = centre + 10 * c
    rest[-1] = peak
    stack = np.full(n, centre)
    stack[~sampled] = np.random.default_rng(1).permutation(rest)
    stack *= sign
    assert same_value(reference_mad(stack), centre - low)
    assert reference_threshold(stack) > 1e-3 * peak
    assert same_value(_auto_threshold(stack, _finite_peak(stack)), reference_threshold(stack))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_peak_refuses_a_non_finite_stack(value):
    stack = np.zeros((3, 4, 5))
    stack[1, 2, 3] = value
    with pytest.raises(DomainError, match="finite frame"):
        _finite_peak(stack)


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


def stack_cases():
    """(frame, ladder) by name: border frames, frames with axes of length 1
    to 7, and a ladder whose top kernel is wider than its 32-row frame."""
    frames = border_frames()
    cases = {name: (frames[name], LADDER) for name in ("noisy", "corners", "zero")}
    rng = np.random.default_rng(29)
    for shape in ((1, 1), (1, 7), (7, 1), (2, 2), (3, 5)):
        cases["x".join(map(str, shape))] = (rng.normal(100.0, 30.0, shape), LADDER)
    wide = geometric_scales(7.5, 60.0, 2.0)
    # At t = 60 scipy's radius is int(4 sqrt(60) + 0.5) = 31: 63 taps.
    assert wide[-1] == 60.0 and 2 * int(4.0 * np.sqrt(60.0) + 0.5) + 1 > 32
    frame = spots([(8, 20), (25, 70)], 3.0, shape=(32, 96)) + rng.poisson(3.0, (32, 96))
    cases["t60"] = (frame, wide)
    return cases


@pytest.mark.parametrize("name", list(stack_cases()))
def test_response_stack_matches_per_scale_products(name):
    frame, ladder = stack_cases()[name]
    expected = np.stack(
        [
            t * ndimage.laplace(
                ndimage.gaussian_filter(frame, sigma=np.sqrt(t), mode="mirror"), mode="mirror"
            )
            for t in ladder
        ]
    )
    assert scale_space_response(frame, ladder).tobytes() == expected.tobytes()


def spy(monkeypatch, name):
    """Record the arguments and result of every call to blobdetect.<name>."""
    calls = []
    real = getattr(blobdetect, name)

    def record(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(blobdetect, name, record)
    return calls


def test_default_buildup_frames_take_the_proof(monkeypatch):
    mads = spy(monkeypatch, "_mad")
    thresholds = spy(monkeypatch, "_auto_threshold")
    config = dataclasses.replace(load_config(CONFIG_PATH), n_events=20, checkpoints=())
    assert len(run_buildup(config).rows) == 20
    assert len(thresholds) == 20
    assert mads == []
    for (stack, _), found in thresholds:
        assert same_value(found, reference_threshold(stack))
        assert same_value(found, 1e-3 * np.max(np.abs(stack)))


def test_noisy_frame_takes_the_exact_mad(monkeypatch):
    mads = spy(monkeypatch, "_mad")
    stack = scale_space_response(border_frames()["noisy"], LADDER)
    found = _auto_threshold(stack, _finite_peak(stack))
    assert len(mads) == 1
    assert same_value(found, reference_threshold(stack))
    assert found > 1e-3 * np.max(np.abs(stack))


def default_frame():
    """Frame 0 of a default build-up, as run_buildup hands it to detect_blobs."""
    frames = []
    real = blobdetect.detect_blobs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            blobdetect,
            "detect_blobs",
            lambda frame, scales, threshold: frames.append(frame) or real(frame, scales, threshold),
        )
        run_buildup(dataclasses.replace(load_config(CONFIG_PATH), n_events=1, checkpoints=()))
    return frames[0]


@pytest.mark.parametrize("name,threshold", [("default", None), ("noisy", None), ("noisy", 0.0)])
def test_detection_peak_stays_within_the_memory_refusal(monkeypatch, name, threshold):
    # The refusal counts, per thread, what one detect_blobs call holds at its
    # peak: the stack with its scratch layers and a float64 copy of the frame
    # (the default frame is uint16), the exact MAD's copy (the noisy frame
    # takes it), or the minimum filter over the whole stack (threshold 0).
    frame = default_frame() if name == "default" else border_frames()["noisy"]
    assert geometric_scales(2.0, 30.0, 1.3) == LADDER  # the default ladder
    mads = spy(monkeypatch, "_mad")
    detect_blobs(frame, LADDER, threshold)  # imports scipy and caches the weights
    tracemalloc.start()
    try:
        detect_blobs(frame, LADDER, threshold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mads) == (2 if name == "noisy" and threshold is None else 0)
    h, w = frame.shape
    assert peak > len(LADDER) * 8 * w * h
    # One thread: a memory one byte below the peak is refused.
    monkeypatch.setattr(workers, "worker_count", lambda: 1)
    monkeypatch.setattr(workers, "physical_memory", lambda: peak - 1)
    with pytest.raises(ConfigError):
        refuse_stacks_beyond_memory("frames", w, h, len(LADDER))


@pytest.mark.parametrize("args", [(1.0, 2.0**30, 2.0), (2.0, 2.0e6, 1.3)])
def test_kernel_peak_stays_within_the_memory_refusal(monkeypatch, args):
    # The refusal counts what building a ladder's weights holds at its peak:
    # every rung's taps and KERNEL_TEMPORARIES arrays of the widest rung's
    # length.  On these ladders, of 2.6e5 and 1.1e4 taps at the top rung,
    # the arrays outweigh their headers.
    ladder = geometric_scales(*args)
    blobdetect._ladder_weights.cache_clear()
    tracemalloc.start()
    try:
        blobdetect._ladder_weights(ladder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        blobdetect._ladder_weights.cache_clear()
    # One thread: a memory one byte below the peak is refused, and the count
    # is within a fifth of the peak.
    monkeypatch.setattr(workers, "worker_count", lambda: 1)
    monkeypatch.setattr(workers, "physical_memory", lambda: peak - 1)
    with pytest.raises(ConfigError, match="Gaussian kernels"):
        refuse_kernels_beyond_memory(ladder)
    monkeypatch.setattr(workers, "physical_memory", lambda: int(1.2 * peak))
    refuse_kernels_beyond_memory(ladder)
