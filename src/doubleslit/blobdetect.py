"""Scale-space blob detection and build-up accumulation.

Detection pipeline: scale-normalized Laplacian-of-Gaussian responses on a
geometric scale ladder, 3D local extrema over (x, y, scale), robust noise
threshold, border rejection, overlap suppression, and per-axis quadratic
sub-pixel/sub-scale refinement.  A Gaussian spot of variance sigma^2 gives
the extremal normalized response |R| = amplitude / 2 at scale t = sigma^2,
which is what ties detected scales to spot widths.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import DomainError
from .sampler import Frame


@dataclass(frozen=True)
class BlobDescriptor:
    """One detected spot: sub-pixel position, characteristic scale, response."""

    x: float
    y: float
    scale_t: float
    response: float


@dataclass(frozen=True, eq=False)
class BuildUpImage:
    """Accumulated blob canvas standing in for the long-exposure pattern."""

    width: int
    height: int
    canvas: np.ndarray
    n_events: int

    def __post_init__(self) -> None:
        if self.canvas.shape != (self.height, self.width):
            raise DomainError(
                f"canvas shape {self.canvas.shape} does not match "
                f"{self.height} x {self.width}"
            )


@dataclass(frozen=True)
class BuildUpResult:
    """Final canvas plus checkpoint snapshots and the out-of-canvas tally."""

    image: BuildUpImage
    snapshots: dict[int, BuildUpImage]
    skipped: int


def geometric_scales(
    t_min: float = 2.0, t_max: float = 30.0, ratio: float = 1.3
) -> tuple[float, ...]:
    """Scale ladder t_min * ratio^k, stopping at t_max."""
    if not 0 < t_min <= t_max or not ratio > 1:
        raise DomainError("scale ladder needs 0 < t_min <= t_max and ratio > 1")
    scales = []
    t = t_min
    while t <= t_max * (1 + 1e-12):
        scales.append(t)
        t *= ratio
    return tuple(scales)


def _validate_scales(scales) -> np.ndarray:
    arr = np.asarray(scales, dtype=np.float64)
    if arr.size == 0:
        raise DomainError("scale list must not be empty")
    if np.any(arr <= 0) or np.any(np.diff(arr) <= 0):
        raise DomainError("scales must be positive and strictly increasing")
    return arr


def _image_of(frame) -> np.ndarray:
    if isinstance(frame, Frame):
        return frame.counts.astype(np.float64)
    return np.asarray(frame, dtype=np.float64)


def scale_space_response(frame, scales) -> np.ndarray:
    """Stack of t * Laplacian(Gaussian(image, sqrt(t))) over the ladder.

    Mirror padding at the borders.  Output shape (len(scales), H, W).
    """
    arr = _validate_scales(scales)
    img = _image_of(frame)
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
    """np.median of a 1D array, partitioning the array in place.

    Any NaN makes the result NaN, as with np.median (partition sorts NaN
    to the end).
    """
    n = flat.size
    lo, hi = (n - 1) // 2, n // 2
    flat.partition([lo, hi, n - 1])
    if np.isnan(flat[-1]):
        return np.nan
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
    voxels need; a NaN anywhere in the stack falls back to the whole stack,
    because NaN makes the running minimum depend on values outside the
    window.
    """
    extremal = stack < -threshold
    extremal[0] = False
    extremal[-1] = False
    hits = np.nonzero(extremal)
    if hits[0].size == 0:
        return extremal
    if np.isnan(stack).any():
        box = (slice(None),) * stack.ndim
    else:
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
    """
    arr = _validate_scales(scales)
    if arr.size < 3:
        raise DomainError("blob detection needs at least 3 scales")
    stack = scale_space_response(frame, arr)
    if threshold is None:
        threshold = max(7.0 * 1.4826 * _mad(stack), 1e-3 * np.max(np.abs(stack)))
    extremal = _thresholded_minima(stack, threshold)
    n_s, n_y, n_x = stack.shape
    candidates = []
    for k, i, j in zip(*np.nonzero(extremal)):
        t = arr[k]
        margin = 2 * np.sqrt(t)
        if i < margin or i > n_y - 1 - margin or j < margin or j > n_x - 1 - margin:
            continue
        dy, _ = _refine(stack[k, :, j], i)
        dx, _ = _refine(stack[k, i, :], j)
        dk, resp = _refine(stack[:, i, j], k)
        # ladder is geometric, so refine the scale on log t
        log_ratio = np.log(arr[1] / arr[0]) if arr.size > 1 else 0.0
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
    each configured checkpoint.  Blobs whose center lies outside the canvas
    are tallied and skipped.
    """
    if width < 1 or height < 1:
        raise DomainError(f"canvas dimensions must be positive, got {width}x{height}")
    marks = sorted(set(int(c) for c in checkpoints))
    if any(c < 1 for c in marks):
        raise DomainError(f"checkpoint counts must be >= 1, got {checkpoints}")
    canvas = np.zeros((height, width))
    cols = np.arange(width)
    rows = np.arange(height)
    snapshots: dict[int, BuildUpImage] = {}
    n = 0
    skipped = 0
    for blob in blobs:
        if not (0 <= blob.x <= width - 1 and 0 <= blob.y <= height - 1):
            skipped += 1
            continue
        t = blob.scale_t
        gx = np.exp(-((cols - blob.x) ** 2) / (2 * t))
        gy = np.exp(-((rows - blob.y) ** 2) / (2 * t))
        canvas += gy[:, None] * gx[None, :] / (2 * np.pi * t)
        n += 1
        if n in marks:
            snapshots[n] = BuildUpImage(
                width=width, height=height, canvas=canvas.copy(), n_events=n
            )
    image = BuildUpImage(width=width, height=height, canvas=canvas, n_events=n)
    return BuildUpResult(image=image, snapshots=snapshots, skipped=skipped)


def write_blobs_csv(rows, path: str | Path) -> None:
    """Rows are (frame_index, t_s, blob) triples."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "t_s", "x_px", "y_px", "scale_t", "response"])
        for frame_index, t_s, blob in rows:
            writer.writerow(
                [
                    frame_index,
                    f"{t_s:.17g}",
                    f"{blob.x:.17g}",
                    f"{blob.y:.17g}",
                    f"{blob.scale_t:.17g}",
                    f"{blob.response:.17g}",
                ]
            )
