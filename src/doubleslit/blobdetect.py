"""Scale-space blob detection and build-up accumulation.

Detection pipeline: scale-normalized Laplacian-of-Gaussian responses on a
geometric scale ladder, 3D local extrema over (x, y, scale), robust noise
threshold, border rejection, overlap suppression, and per-axis quadratic
sub-pixel/sub-scale refinement.  A Gaussian spot of variance sigma^2 gives
the extremal normalized response |R| = amplitude / 2 at scale t = sigma^2,
which is what ties detected scales to spot widths.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import DomainError


@dataclass(frozen=True)
class BlobDescriptor:
    """One detected spot: sub-pixel position, characteristic scale, response."""

    x: float
    y: float
    scale_t: float
    response: float


@dataclass(frozen=True, eq=False)
class BuildUpResult:
    """Final canvas (the long-exposure stand-in) and a copy of it at each
    reached checkpoint count."""

    canvas: np.ndarray
    snapshots: dict[int, np.ndarray]


# Each scale is one frame-sized float64 layer of the response stack, and the
# MAD holds a flattened copy of the stack, so a frame in flight costs
# LAYERS_PER_SCALE layers per scale; the default ladder has 11.
LAYERS_PER_SCALE = 2
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


def scale_space_response(frame, scales) -> np.ndarray:
    """Stack of t * Laplacian(Gaussian(image, sqrt(t))) over the ladder.

    Mirror padding at the borders.  Output shape (len(scales), H, W).
    """
    arr = _validate_scales(scales)
    img = np.asarray(frame, dtype=np.float64)
    stack = np.empty((arr.size,) + img.shape)
    for k, t in enumerate(arr):
        smoothed = ndimage.gaussian_filter(img, sigma=np.sqrt(t), mode="mirror")
        stack[k] = t * ndimage.laplace(smoothed, mode="mirror")
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


def _median_in_place(flat: np.ndarray) -> float:
    """np.median of a finite 1D array, partitioning the array in place."""
    n = flat.size
    lo, hi = (n - 1) // 2, n // 2
    flat.partition([lo, hi])
    return flat[lo : hi + 1].mean()


def _mad(stack: np.ndarray) -> float:
    """Median absolute deviation from the median, from one flattened copy."""
    flat = stack.ravel().copy()
    center = _median_in_place(flat)
    np.abs(np.subtract(flat, center, out=flat), out=flat)
    return _median_in_place(flat)


def _thresholded_minima(stack: np.ndarray, threshold: float) -> np.ndarray:
    """Voxels below -threshold that are minima of their 3x3x3 neighbourhood.

    The first and last scale layers are excluded: a spot larger than the
    ladder top must not alias into the boundary layer.  The minimum filter
    (nearest-mode borders) runs only on the bounding box of the voxels below
    -threshold plus a one-voxel halo, which holds every neighbourhood those
    voxels need.  The stack must be finite: NaN would make the running
    minimum depend on values outside the box.
    """
    extremal = stack < -threshold
    extremal[0] = False
    extremal[-1] = False
    hits = np.nonzero(extremal)
    if hits[0].size == 0:
        return extremal
    box = tuple(
        slice(max(int(h.min()) - 1, 0), min(int(h.max()) + 2, size))
        for h, size in zip(hits, stack.shape)
    )
    sub = stack[box]
    extremal[box] &= sub == ndimage.minimum_filter(sub, size=3, mode="nearest")
    return extremal


def detect_blobs(frame, scales, threshold: float | None = None) -> list[BlobDescriptor]:
    """Locate bright spots as thresholded 3D minima of the response stack.

    Detector flashes are always brighter than their surroundings and a
    bright Gaussian has a negative normalized-Laplacian response, so only
    minima are considered; the positive side-lobe rings (amplified near
    borders by the mirror padding) are never candidates.

    threshold=None uses a robust default: 7 x the MAD-based noise estimate
    of the response stack, floored at 1e-3 of the peak response so exactly
    noiseless frames do not admit arbitrarily weak side-lobe structure.
    The multiplier covers the multiple-comparison volume: a stack holds
    ~1e7 voxels, so a 5-sigma cut still admits a few noise minima per
    hundred frames while 7 sigma keeps the expected count far below one.
    Detections within 2*sqrt(t) of an image border are dropped; of two
    detections closer than 1.5*(sqrt(t1)+sqrt(t2)) only the stronger
    survives.

    The scales must be a geometric ladder (`geometric_scales`) of at least
    3 rungs, and the frame must be finite: a response stack holding NaN or
    inf is refused, since its threshold and extrema would mean nothing.
    """
    arr = _detection_ladder(scales)
    stack = scale_space_response(frame, arr)
    if not np.isfinite(stack).all():
        raise DomainError("blob detection needs a finite frame; its response has NaN or inf")
    if threshold is None:
        threshold = max(7.0 * 1.4826 * _mad(stack), 1e-3 * np.max(np.abs(stack)))
    extremal = _thresholded_minima(stack, threshold)
    n_s, n_y, n_x = stack.shape
    # ladder is geometric, so the scale is refined on log t
    log_ratio = np.log(arr[1] / arr[0])
    candidates = []
    for k, i, j in zip(*np.nonzero(extremal)):
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
) -> BuildUpResult:
    """Stamp each blob as a unit-integral Gaussian of its detected scale.

    Snapshots of the canvas are recorded when the accumulated count reaches
    each configured checkpoint.  A blob whose center lies outside the
    canvas is refused: `detect_blobs` keeps every blob of a frame inside
    that frame, so such a blob was found on another canvas.
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
    return BuildUpResult(canvas=canvas, snapshots=snapshots)


def write_blobs_csv(rows, path: str | Path) -> None:
    """Rows are (frame_index, t_s, blob) triples."""
    with open(path, "w", newline="") as fh:
        fh.write("frame,t_s,x_px,y_px,scale_t,response\n")
        for frame_index, t_s, blob in rows:
            fh.write(
                f"{frame_index},{t_s:.17g},{blob.x:.17g},{blob.y:.17g},"
                f"{blob.scale_t:.17g},{blob.response:.17g}\n"
            )
