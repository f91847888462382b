"""One-electron-at-a-time build-up: events, frames, blobs, accumulated image.

Frames are independent: frame i holds event i alone and its background
noise is keyed by i (see `sampler`).  The frame loop therefore runs as
contiguous index ranges on one thread per available CPU, the calling
thread taking the first range, and joining the ranges in frame order
reproduces the sequential output bit for bit.

The library calls go through their module attributes so that a tracer
that swaps module attributes sees every call.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analysis, blobdetect, propagation, sampler
from .blobdetect import BlobDescriptor, BuildUpResult
from .config import RunConfig
from .errors import DomainError
from .propagation import IntensityProfile
from .sampler import DetectionEvent


@dataclass(frozen=True)
class BuildUpRun:
    """Everything one build-up produces, before any file is written.

    `rows` are (frame_index, t_s, blob) triples in frame order; `metrics`
    are the deterministic summary values, in output order.
    """

    source: IntensityProfile
    events: list[DetectionEvent]
    rows: list[tuple[int, float, BlobDescriptor]]
    result: BuildUpResult
    metrics: dict


def restrict_profile(profile: IntensityProfile, half_width: float) -> IntensityProfile:
    """Clip to |x| <= half_width and renormalize to unit integral."""
    keep = np.abs(profile.x) <= half_width
    if not keep.any():
        raise DomainError("restriction window excludes the whole profile")
    i0 = int(np.argmax(keep))
    i1 = profile.n - int(np.argmax(keep[::-1]))
    values = profile.values[i0:i1]
    total = float(values.sum()) * profile.dx
    if total <= 0:
        raise DomainError("restricted profile carries no intensity")
    return IntensityProfile(
        x0=float(profile.x[i0]), dx=profile.dx, values=values / total, normalized=True
    )


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _frame_ranges(n: int, jobs: int) -> list[range]:
    """Split range(n) into at most `jobs` contiguous, non-empty ranges."""
    jobs = max(1, min(jobs, n))
    bounds = [n * k // jobs for k in range(jobs + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def run_buildup(config: RunConfig) -> BuildUpRun:
    """Sample events, render one frame per event, detect, accumulate."""
    # The analyzed pattern is the central five interference orders; events
    # are drawn from the both-open distribution restricted to that window.
    full = propagation.simulate_beamline(config.layout(), config.beam(), 0.0, config.grid())
    source = restrict_profile(full, 2.5 * config.fringe_period())
    events = sampler.make_events(
        source,
        config.pattern_rate,
        config.height_band(),
        config.n_events,
        config.seed,
    )
    scales = blobdetect.geometric_scales(
        config.blob_t_min, config.blob_t_max, config.blob_ratio
    )

    def detect_frames(indices: range) -> list:
        # One frame per event: frame i spans [t_i, t_{i+1}); the last frame
        # gets one mean inter-arrival period.  Events are time-ordered, so
        # the slice events[i:i+1] is exactly the in-window subset.
        rows = []
        for i in indices:
            event = events[i]
            if i + 1 < len(events):
                window = (event.t, events[i + 1].t)
            else:
                window = (event.t, event.t + 1.0 / config.pattern_rate)
            frame = sampler.render_frame(
                events[i : i + 1],
                window,
                config.psf_sigma,
                config.background,
                config.seed,
                frame_index=i,
                width=config.frame_width,
                height=config.frame_height,
                pitch=config.frame_pitch,
                amplitude=config.amplitude,
            )
            blobs = blobdetect.detect_blobs(frame.counts, scales, config.blob_threshold)
            rows.extend((i, event.t, blob) for blob in blobs)
        return rows

    ranges = _frame_ranges(len(events), _worker_count())
    if len(ranges) > 1:
        with ThreadPoolExecutor(len(ranges) - 1) as pool:
            rest = [pool.submit(detect_frames, r) for r in ranges[1:]]
            parts = [detect_frames(ranges[0])] + [f.result() for f in rest]
    else:
        parts = [detect_frames(r) for r in ranges]
    rows = [row for part in parts for row in part]
    blobs = [blob for _, _, blob in rows]

    result = blobdetect.accumulate_buildup(
        blobs, config.frame_width, config.frame_height, checkpoints=config.checkpoints
    )
    # Recovered positions in meters, for the end-to-end consistency metric.
    xs_px = np.array([b.x for b in blobs])
    xs_m = (xs_px - (config.frame_width - 1) / 2) * config.frame_pitch
    ks_events = analysis.ks_distance([e.x for e in events], source)
    ks_final = analysis.ks_distance(xs_m, source) if blobs else float("nan")
    metrics = {
        "n_events": len(events),
        "n_blobs": len(blobs),
        "blobs_outside_canvas": result.skipped,
        "ks_events": ks_events,
        "ks_final": ks_final,
    }
    return BuildUpRun(source=source, events=events, rows=rows, result=result, metrics=metrics)
