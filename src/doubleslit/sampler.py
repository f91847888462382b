"""Single-electron Monte Carlo: detection positions, arrival times, frames.

Randomness contract: every draw comes from PCG64 seeded with
SeedSequence((master_seed, stream, chunk_index)), where `stream` labels the
kind of variate and draws are consumed in fixed chunks of 1024.  A run of
n events reads the first n variates of each stream, so event i always uses
variate i % 1024 of chunk i // 1024: a longer run extends a shorter one bit
for bit, and any one chunk can be drawn on its own from its key.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError
from .propagation import IntensityProfile

CHUNK = 1024

# Stream labels; one independent PCG64 lineage per variate kind.
STREAM_POSITION = 0
STREAM_GAP = 1
STREAM_HEIGHT = 2
STREAM_BACKGROUND = 3


def _chunk_generator(seed: int, stream: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, stream, chunk_index)))
    )


def _uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """The first `count` uniform variates of a stream, chunk by chunk."""
    if count < 0:
        raise DomainError(f"event count must be nonnegative, got {count}")
    out = np.empty(count)
    for lo in range(0, count, CHUNK):
        block = _chunk_generator(seed, stream, lo // CHUNK).random(CHUNK)
        out[lo : lo + CHUNK] = block[: count - lo]
    return out


@dataclass(frozen=True)
class DetectionEvent:
    """One detected electron: arrival order, time and detector position."""

    index: int
    t: float
    x: float
    y: float


@dataclass(frozen=True, eq=False)
class Frame:
    """Synthetic camera frame with saturating 16-bit counts."""

    counts: np.ndarray


def profile_cdf(profile: IntensityProfile) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-linear CDF of a normalized profile at its cell edges.

    Cell i spans [x_i - dx/2, x_i + dx/2] and carries probability
    proportional to its sample; returns the n + 1 edges and the CDF there,
    pinned to exactly 0 and 1 at the ends.
    """
    if not profile.normalized:
        raise DomainError("profile must be normalized to unit integral")
    p = profile.values * profile.dx
    p = p / p.sum()
    edges = profile.x0 - 0.5 * profile.dx + np.arange(profile.n + 1) * profile.dx
    cdf = np.concatenate(([0.0], np.cumsum(p)))
    cdf[-1] = 1.0
    return edges, cdf


def sample_positions(profile: IntensityProfile, n_events: int, seed: int) -> np.ndarray:
    """Draw detection positions from a normalized profile by inverse CDF.

    Within each grid cell the density is taken as constant, so the inverse
    CDF is piecewise linear.
    """
    edges, cdf = profile_cdf(profile)
    u = _uniforms(seed, STREAM_POSITION, n_events)
    idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, profile.n - 1)
    width = cdf[idx + 1] - cdf[idx]
    frac = np.where(width > 0, (u - cdf[idx]) / np.where(width > 0, width, 1.0), 0.0)
    return edges[idx] + frac * profile.dx


def sample_arrival_times(rate: float, n_events: int, seed: int) -> np.ndarray:
    """Cumulative arrival times of a Poisson process with the given rate.

    Gaps are -log(1 - u) / rate.
    """
    if not rate > 0:
        raise DomainError(f"detection rate must be positive, got {rate}")
    u = _uniforms(seed, STREAM_GAP, n_events)
    gaps = -np.log1p(-u) / rate
    return np.cumsum(gaps)


def sample_heights(band: float, n_events: int, seed: int) -> np.ndarray:
    """Vertical positions, uniform over the magnified slit-height band."""
    if not band > 0:
        raise DomainError(f"height band must be positive, got {band}")
    u = _uniforms(seed, STREAM_HEIGHT, n_events)
    return (u - 0.5) * band


def make_events(
    profile: IntensityProfile, rate: float, height_band: float, n_events: int, seed: int
) -> list[DetectionEvent]:
    """Full event stream: positions, arrival times and heights, one seed."""
    xs = sample_positions(profile, n_events, seed)
    ts = sample_arrival_times(rate, n_events, seed)
    ys = sample_heights(height_band, n_events, seed)
    return [
        DetectionEvent(index=i, t=float(ts[i]), x=float(xs[i]), y=float(ys[i]))
        for i in range(n_events)
    ]


def render_frame(
    events: list[DetectionEvent],
    window: tuple[float, float],
    psf_sigma: float,
    background_rate: float,
    seed: int,
    frame_index: int = 0,
    *,
    width: int,
    height: int,
    pitch: float,
    amplitude: float,
) -> Frame:
    """Expose one camera frame over the time window [t0, t1).

    Each in-window event deposits a Gaussian spot of peak `amplitude` and
    width `psf_sigma` (pixels) at its sub-pixel position; Poisson background
    is added per pixel; the total saturates at 65535.  `frame_index` keys
    the background noise stream so frames are independent but reproducible.
    """
    t0, t1 = window
    if t0 >= t1:
        raise DomainError(f"empty exposure window ({t0}, {t1})")
    if not psf_sigma > 0:
        raise DomainError(f"psf width must be positive, got {psf_sigma}")
    if background_rate < 0:
        raise DomainError(f"background rate must be nonnegative, got {background_rate}")
    cols = np.arange(width) - (width - 1) / 2
    rows = np.arange(height) - (height - 1) / 2
    canvas = np.zeros((height, width))
    for ev in events:
        if not t0 <= ev.t < t1:
            continue
        px = ev.x / pitch
        py = ev.y / pitch
        gx = np.exp(-((cols - px) ** 2) / (2 * psf_sigma**2))
        gy = np.exp(-((rows - py) ** 2) / (2 * psf_sigma**2))
        canvas += amplitude * gy[:, None] * gx[None, :]
    if background_rate > 0:
        rng = _chunk_generator(seed, STREAM_BACKGROUND, frame_index)
        canvas += rng.poisson(background_rate, size=(height, width))
    counts = np.minimum(np.rint(canvas), 65535.0).astype(np.uint16)
    return Frame(counts=counts)


def write_events_csv(events: list[DetectionEvent], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "t_s", "x_m", "y_m"])
        for ev in events:
            writer.writerow([ev.index, f"{ev.t:.17g}", f"{ev.x:.17g}", f"{ev.y:.17g}"])
