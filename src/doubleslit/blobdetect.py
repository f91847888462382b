"""Scale-space blob detection and build-up accumulation.

Detection pipeline: scale-normalized Laplacian-of-Gaussian responses on a
geometric scale ladder, 3D local extrema over (x, y, scale), robust noise
threshold, border rejection, overlap suppression, and per-axis quadratic
sub-pixel/sub-scale refinement.  A Gaussian spot of variance sigma^2 gives
the extremal normalized response |R| = amplitude / 2 at scale t = sigma^2,
which is what ties detected scales to spot widths.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DomainError


def __getattr__(name: str):
    """`ndimage` is scipy.ndimage, imported on first use and then kept as a
    module global that a tracer may replace, so that commands which never
    detect never import scipy."""
    if name != "ndimage":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import ndimage

    globals()["ndimage"] = ndimage
    return ndimage


def _ndimage():
    """The module's `ndimage` as it is at call time: a bare global name in a
    function would not reach the module `__getattr__`."""
    return sys.modules[__name__].ndimage


@dataclass(frozen=True)
class BlobDescriptor:
    """One detected spot: sub-pixel position, characteristic scale, response."""

    x: float
    y: float
    scale_t: float
    response: float


# What one detect_blobs call holds at its peak, in frame-sized float64
# layers.  Per scale: the response stack, and then either the exact MAD's
# flattened copy or the minimum filter's output with two boolean masks of up
# to an eighth of a layer each; the auto threshold makes the copy only when
# its counting proof fails, and the filter's box may span the whole stack,
# but the memory refusals count these worst cases.  Besides them, while the
# stack is built: the float64 frame and three scratch layers.  The default
# ladder has 11 scales.
LAYERS_PER_SCALE = 2.25
FRAME_LAYERS = 4
MAX_SCALES = 64


def geometric_scales(t_min: float, t_max: float, ratio: float) -> tuple[float, ...]:
    """Scale ladder t_min * ratio^k, stopping at t_max.

    The 3D extremum search needs at least 3 scales; more than MAX_SCALES
    are refused before the ladder grows further.
    """
    if not 0 < t_min <= t_max or not ratio > 1:
        raise DomainError("scale ladder needs 0 < t_min <= t_max and ratio > 1")
    scales = []
    t = t_min
    while t <= t_max * (1 + 1e-12):
        if len(scales) == MAX_SCALES:
            raise DomainError(f"scale ladder has more than MAX_SCALES = {MAX_SCALES} scales")
        scales.append(t)
        t *= ratio
    if len(scales) < 3:
        raise DomainError(
            f"scale ladder has fewer than 3 scales ({len(scales)}); "
            "blob detection needs at least 3"
        )
    return tuple(scales)


def _validate_scales(scales) -> np.ndarray:
    arr = np.asarray(scales, dtype=np.float64)
    if arr.size == 0:
        raise DomainError("scale list must not be empty")
    if np.any(arr <= 0) or np.any(np.diff(arr) <= 0):
        raise DomainError("scales must be positive and strictly increasing")
    return arr


def _detection_ladder(scales) -> np.ndarray:
    """The scales as an array, refused unless they are a geometric ladder
    of at least 3 rungs: the 3D extremum search needs a scale on each side
    of a candidate, and the sub-scale refinement steps log t by one ratio.
    """
    arr = _validate_scales(scales)
    if arr.size < 3:
        raise DomainError("blob detection needs at least 3 scales")
    ratios = arr[1:] / arr[:-1]
    if np.any(np.abs(ratios - ratios[0]) > 1e-9 * ratios[0]):
        raise DomainError(
            "blob detection needs a geometric scale ladder; consecutive scale "
            f"ratios run from {ratios.min():.6g} to {ratios.max():.6g}"
        )
    return arr


@lru_cache(maxsize=1)
def _ladder_weights(scales: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """Per scale t, the weights scipy's `gaussian_filter1d` correlates with
    at sigma = sqrt(t), by its own formula: radius int(4 sigma + 0.5), then
    exp(-0.5 / sigma^2 * x^2) normalised by its sum, then reversed; stored
    contiguous, so that `correlate1d` uses them without a copy, and
    read-only.  One command detects on one ladder, so the last ladder's
    weights are kept."""
    weights = []
    for t in scales:
        sigma = np.sqrt(t)
        radius = int(4.0 * float(sigma) + 0.5)
        x = np.arange(-radius, radius + 1)
        phi = np.exp(-0.5 / (sigma * sigma) * x**2)
        kernel = np.ascontiguousarray((phi / phi.sum())[::-1])
        kernel.flags.writeable = False
        weights.append(kernel)
    return tuple(weights)


def _neighbour_sum(s: np.ndarray, out: np.ndarray, axis: int) -> None:
    """out = s[i - 1] + s[i + 1] along `axis` of a C-contiguous frame, with
    scipy's mirror border: s[-1] is s[1], s[n] is s[n - 2], and a single
    sample mirrors itself.  The interior is one add over the flattened
    frame, so numpy needs no buffers for strided views; the sums it forms
    across the ends of a line land on the border, which is then rewritten."""
    step = s.strides[axis] // s.itemsize
    flat = s.reshape(-1)
    np.add(flat[: -2 * step], flat[2 * step :], out=out.reshape(-1)[step:-step])
    s, out = s.swapaxes(0, axis), out.swapaxes(0, axis)
    e = min(1, len(s) - 1)
    np.add(s[e], s[e], out=out[0])
    np.add(s[-1 - e], s[-1 - e], out=out[-1])


def scale_space_response(frame, scales) -> np.ndarray:
    """Stack of t * Laplacian(Gaussian(image, sqrt(t))) over the ladder.

    Mirror padding at the borders.  Output shape (len(scales), H, W).
    Bit for bit what `gaussian_filter` and `laplace` give in mirror mode:
    the Gaussian is scipy's two `correlate1d` passes, axis 0 then axis 1,
    with the ladder's cached weights, and the Laplacian takes
    -2 s + (s[i - 1] + s[i + 1]) along axis 0, adds the same along axis 1,
    and scales by t, in scipy's order.  Besides the stack, a call holds the
    float64 frame and three frame-sized scratch layers (FRAME_LAYERS).
    """
    arr = _validate_scales(scales)
    nd = _ndimage()
    img = np.asarray(frame, dtype=np.float64)
    stack = np.empty((arr.size,) + img.shape)
    smoothed = np.empty(img.shape)
    twice = np.empty(img.shape)
    across = np.empty(img.shape)
    # scipy's filters overflow to inf and form NaN without a warning, and
    # detect_blobs refuses a non-finite stack; the Laplacian does the same.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, weights, layer in zip(arr, _ladder_weights(tuple(arr.tolist())), stack):
            nd.correlate1d(img, weights, 0, smoothed, "mirror")
            nd.correlate1d(smoothed, weights, 1, smoothed, "mirror")
            np.multiply(smoothed, -2.0, out=twice)
            _neighbour_sum(smoothed, layer, 0)
            layer += twice
            _neighbour_sum(smoothed, across, 1)
            across += twice
            layer += across
            layer *= t
    return stack


def _refine(values: np.ndarray, idx: int) -> tuple[float, float]:
    """Quadratic vertex offset (clamped to +-0.5) and refined value."""
    v0, v1, v2 = values[idx - 1], values[idx], values[idx + 1]
    denom = v0 - 2 * v1 + v2
    if denom == 0:
        return 0.0, float(v1)
    d = 0.5 * (v0 - v2) / denom
    d = float(np.clip(d, -0.5, 0.5))
    return d, float(v1 - 0.25 * (v0 - v2) * d)


def _mad(stack: np.ndarray) -> float:
    """Median absolute deviation from the median, from one flattened copy."""
    flat = stack.ravel().copy()
    center = np.median(flat, overwrite_input=True)
    np.abs(np.subtract(flat, center, out=flat), out=flat)
    return np.median(flat, overwrite_input=True)


def _finite_peak(stack: np.ndarray) -> float:
    """max |stack|, refused unless finite (NaN and inf reach max or min)."""
    # abs() only turns a peak of -0.0 into +0.0, as np.abs would.
    peak = abs(max(stack.max(), -stack.min()))
    if not np.isfinite(peak):
        raise DomainError("blob detection needs a finite frame; its response has NaN or inf")
    return peak


# Multiplier of the MAD in the auto threshold, and the floor's share of the peak.
_MAD_SIGMAS = 7.0 * 1.4826
_PEAK_FLOOR = 1e-3
# The median bracket comes from every _SAMPLE_STRIDE-th voxel; 61 is coprime
# with the frame width, so the sample does not line up with columns.
_SAMPLE_STRIDE = 61
# Below this peak no sum or difference that `_mad` forms can overflow.
_NO_OVERFLOW_PEAK = np.finfo(np.float64).max / 4


def _auto_threshold(stack: np.ndarray, peak: float) -> float:
    """max(_MAD_SIGMAS * MAD, _PEAK_FLOOR * peak), bit for bit, where MAD is
    `_mad(stack)` and peak is `_finite_peak(stack)`.

    Before paying for the two full partitions of `_mad`, try to prove by
    counting that the floor wins.  The 48 % and 52 % order statistics
    a <= b of a strided sample are checked, by counting, to hold both
    middle order statistics of the stack, so the median, and the float
    mean `_mad` takes of them, lies in [a, b].  Then every voxel in
    [b - c, a + c] is within c of that median, and if more than half of
    the voxels are there, the MAD is at most c.  c steps down from
    floor / _MAD_SIGMAS until _MAD_SIGMAS * c <= floor holds in floating
    point, and each rounded count bound is moved one ulp inward, so the
    proof holds for the values `_mad` computes.  The counts check the
    bracket, so any sample size will do; any failed step, as on a zero
    peak (c is 0 and the bounds cross), falls back to the exact `_mad`.
    """
    floor = _PEAK_FLOOR * peak
    flat = stack.ravel()
    n = flat.size
    sample = flat[::_SAMPLE_STRIDE]
    if peak <= _NO_OVERFLOW_PEAK:
        ia, ib = (sample.size * 48) // 100, (sample.size * 52) // 100
        part = np.partition(sample, [ia, ib])
        a, b = part[ia], part[ib]
        c = floor / _MAD_SIGMAS
        while _MAD_SIGMAS * c > floor:
            c = np.nextafter(c, 0.0)
        lo = np.nextafter(b - c, np.inf)
        hi = np.nextafter(a + c, -np.inf)
        if (
            lo <= hi
            and np.count_nonzero(flat < a) <= (n - 1) // 2
            and np.count_nonzero(flat <= b) >= n // 2 + 1
            and np.count_nonzero(flat <= hi) - np.count_nonzero(flat < lo) >= n // 2 + 1
        ):
            return floor
    return max(_MAD_SIGMAS * _mad(stack), floor)


def _thresholded_minima(stack: np.ndarray, threshold: float) -> tuple[np.ndarray, ...]:
    """Indices (k, i, j), in C order, of the voxels below -threshold that
    are minima of their 3x3x3 neighbourhood.

    The first and last scale layers are excluded: a spot larger than the
    ladder top must not alias into the boundary layer.  The bounding box of
    the voxels below -threshold is found by `any` reductions; the minimum
    filter (nearest-mode borders) runs only on that box plus a one-voxel
    halo, which holds every neighbourhood those voxels need, and only the
    box is searched for indices.  The stack must be finite: NaN would make
    the running minimum depend on values outside the box.
    """
    below = stack[1:-1] < -threshold
    layers = np.flatnonzero(below.reshape(below.shape[0], -1).any(axis=1))
    if layers.size == 0:
        return tuple(np.empty(0, dtype=np.intp) for _ in stack.shape)
    rows = np.flatnonzero(below.any(axis=(0, 2)))
    cols = np.flatnonzero(below.any(axis=(0, 1)))
    # The hits' box in stack coordinates, and the same box with its halo.
    first = (int(layers[0]) + 1, int(rows[0]), int(cols[0]))
    last = (int(layers[-1]) + 1, int(rows[-1]), int(cols[-1]))
    halo = tuple(
        slice(max(a - 1, 0), min(b + 2, size)) for a, b, size in zip(first, last, stack.shape)
    )
    sub = stack[halo]
    is_min = sub == _ndimage().minimum_filter(sub, size=3, mode="nearest")
    box = tuple(slice(a, b + 1) for a, b in zip(first, last))
    inner = tuple(slice(a - h.start, b + 1 - h.start) for a, b, h in zip(first, last, halo))
    hits = (stack[box] < -threshold) & is_min[inner]
    return tuple(index + offset for index, offset in zip(np.nonzero(hits), first))


def detect_blobs(frame, scales, threshold: float | None = None) -> list[BlobDescriptor]:
    """Locate bright spots as thresholded 3D minima of the response stack.

    Detector flashes are always brighter than their surroundings and a
    bright Gaussian has a negative normalized-Laplacian response, so only
    minima are considered; the positive side-lobe rings (amplified near
    borders by the mirror padding) are never candidates.

    threshold=None uses a robust default: 7 x the MAD-based noise estimate
    of the response stack, floored at 1e-3 of the peak response so exactly
    noiseless frames do not admit arbitrarily weak side-lobe structure.
    The multiplier covers the multiple-comparison volume: a default stack
    holds 11 x 32 x 416 = 146 432 voxels, so a 5-sigma cut still admits a
    few noise minima per hundred frames while 7 sigma keeps the expected
    count far below one.
    The value is max(7 * 1.4826 * MAD, 1e-3 * peak) bit for bit, but the
    MAD is computed only when a counting proof on the stack cannot show
    that the floor wins (`_auto_threshold`); on a default build-up frame
    the proof holds and the floor is the threshold.
    Detections within 2*sqrt(t) of an image border are dropped; of two
    detections closer than 1.5*(sqrt(t1)+sqrt(t2)) only the stronger
    survives.

    The scales must be a geometric ladder (`geometric_scales`) of at least
    3 rungs, and the frame must be finite: a response stack holding NaN or
    inf is refused, since its threshold and extrema would mean nothing.
    """
    arr = _detection_ladder(scales)
    stack = scale_space_response(frame, arr)
    peak = _finite_peak(stack)
    if threshold is None:
        threshold = _auto_threshold(stack, peak)
    n_s, n_y, n_x = stack.shape
    # ladder is geometric, so the scale is refined on log t
    log_ratio = np.log(arr[1] / arr[0])
    candidates = []
    for k, i, j in zip(*_thresholded_minima(stack, threshold)):
        t = arr[k]
        margin = 2 * np.sqrt(t)
        if i < margin or i > n_y - 1 - margin or j < margin or j > n_x - 1 - margin:
            continue
        dy, _ = _refine(stack[k, :, j], i)
        dx, _ = _refine(stack[k, i, :], j)
        dk, resp = _refine(stack[:, i, j], k)
        t_ref = float(t * np.exp(dk * log_ratio))
        candidates.append(BlobDescriptor(x=j + dx, y=i + dy, scale_t=t_ref, response=resp))
    candidates.sort(key=lambda b: abs(b.response), reverse=True)
    kept: list[BlobDescriptor] = []
    for cand in candidates:
        radius = 1.5 * np.sqrt(cand.scale_t)
        clear = True
        for other in kept:
            limit = radius + 1.5 * np.sqrt(other.scale_t)
            if (cand.x - other.x) ** 2 + (cand.y - other.y) ** 2 < limit**2:
                clear = False
                break
        if clear:
            kept.append(cand)
    kept.sort(key=lambda b: (b.y, b.x))
    return kept


def accumulate_buildup(
    blobs,
    width: int,
    height: int,
    checkpoints=(),
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Stamp each blob as a unit-integral Gaussian of its detected scale.

    Returns `(canvas, snapshots)`: the final canvas, the long-exposure
    stand-in, and a copy of it at each checkpoint count that was reached.
    A blob whose center lies outside the canvas is refused: `detect_blobs`
    keeps every blob of a frame inside that frame, so such a blob was
    found on another canvas.
    """
    if width < 1 or height < 1:
        raise DomainError(f"canvas dimensions must be positive, got {width}x{height}")
    marks = sorted(set(int(c) for c in checkpoints))
    if any(c < 1 for c in marks):
        raise DomainError(f"checkpoint counts must be >= 1, got {checkpoints}")
    canvas = np.zeros((height, width))
    cols = np.arange(width)
    rows = np.arange(height)
    snapshots: dict[int, np.ndarray] = {}
    n = 0
    for blob in blobs:
        if not (0 <= blob.x <= width - 1 and 0 <= blob.y <= height - 1):
            raise DomainError(
                f"blob at ({blob.x}, {blob.y}) px lies outside the {width}x{height} canvas"
            )
        t = blob.scale_t
        gx = np.exp(-((cols - blob.x) ** 2) / (2 * t))
        gy = np.exp(-((rows - blob.y) ** 2) / (2 * t))
        canvas += gy[:, None] * gx[None, :] / (2 * np.pi * t)
        n += 1
        if n in marks:
            snapshots[n] = canvas.copy()
    return canvas, snapshots


def write_blobs_csv(rows, path: str | Path) -> None:
    """Rows are (frame_index, t_s, blob) triples."""
    with open(path, "w", newline="") as fh:
        fh.write("frame,t_s,x_px,y_px,scale_t,response\n")
        for frame_index, t_s, blob in rows:
            fh.write(
                f"{frame_index},{t_s:.17g},{blob.x:.17g},{blob.y:.17g},"
                f"{blob.scale_t:.17g},{blob.response:.17g}\n"
            )
