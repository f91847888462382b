"""Frame pipelines: the one-electron-at-a-time build-up, and blob
detection on existing frame files.

Frames are independent: in a build-up, frame i holds event i alone and its
background noise is keyed by i (see `sampler`); a frame file is read and
searched on its own.  Both frame loops therefore run on one thread per
available CPU (`workers.map_threads`), and the results, joined in frame
order, reproduce the sequential output bit for bit.

The library calls go through their module attributes so that a tracer
that swaps module attributes sees every call.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import analysis, blobdetect, pgm, propagation, sampler, workers
from .blobdetect import BlobDescriptor, BuildUpResult
from .config import RunConfig
from .errors import ConfigError, DomainError
from .propagation import IntensityProfile
from .sampler import DetectionEvent


@dataclass(frozen=True)
class BuildUpRun:
    """Everything one build-up produces, before any file is written.

    `rows` are (frame_index, t_s, blob) triples in frame order; `metrics`
    are the deterministic summary values, in output order.
    """

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


def refuse_stacks_beyond_memory(frames: str, w: int, h: int, scales: int) -> None:
    """Refuse w x h frames whose response stacks would exceed physical
    memory: each detection thread holds one frame's stack, a float64 layer
    per scale, and the stack's flattened copy for the MAD."""
    jobs = workers.worker_count()
    workers.refuse_beyond_memory(
        f"{frames} with the {scales} scales of blob.t_min, blob.t_max and "
        f"blob.ratio need 2 x {scales} frame layers of float64 on each of {jobs} threads",
        2 * 8 * scales * w * h * jobs,
    )


def run_buildup(config: RunConfig) -> BuildUpRun:
    """Sample events, render one frame per event, detect, accumulate.

    Refused before any propagation: frames whose response stacks exceed
    physical memory, and an event count whose three float64 draws per
    event do; the draws are a lower bound on what the events need.
    """
    w, h, scales = config.frame_width, config.frame_height, config.blob_scales()
    refuse_stacks_beyond_memory(f"frame.width = {w} and frame.height = {h}", w, h, len(scales))
    n = config.n_events
    if n < 1:
        raise ConfigError(f"buildup needs sampler.n_events >= 1, got {n}")
    workers.refuse_beyond_memory(
        f"sampler.n_events = {n} needs 3 x {n} float64 draws", 3 * 8 * n
    )
    # Events are drawn from the both-open distribution restricted to the
    # analyzed pattern.
    full = propagation.simulate_beamline(config.layout(), config.beam(), 0.0, config.grid())
    source = restrict_profile(full, config.sampling_half_width())
    events = sampler.make_events(
        source,
        config.pattern_rate,
        config.height_band(),
        config.n_events,
        config.seed,
    )

    def detect_frame(i: int) -> list[BlobDescriptor]:
        # One frame per event: frame i spans [t_i, t_{i+1}); the last frame
        # gets one mean inter-arrival period.  Events are time-ordered, so
        # the slice events[i:i+1] is exactly the in-window subset.
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
        return blobdetect.detect_blobs(frame.counts, scales, config.blob_threshold)

    per_frame = workers.map_threads(len(events), detect_frame)
    rows = [
        (i, event.t, blob)
        for i, (event, blobs) in enumerate(zip(events, per_frame))
        for blob in blobs
    ]
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
    return BuildUpRun(events=events, rows=rows, result=result, metrics=metrics)


def run_detect(
    paths: Sequence[str | Path], config: RunConfig
) -> list[list[BlobDescriptor]]:
    """Read each frame file and detect its blobs; one list per path, in order.

    Each worker reads its own frames, so only one frame per thread is held
    at a time.  A bad file, or a frame whose response stacks would exceed
    physical memory, raises the error of the first such path in input
    order, and nothing is returned.
    """
    scales = config.blob_scales()

    def detect_file(i: int) -> list[BlobDescriptor]:
        frame = pgm.read_pgm(paths[i])
        h, w = frame.shape
        refuse_stacks_beyond_memory(f"{paths[i]}: {w}x{h} frames", w, h, len(scales))
        return blobdetect.detect_blobs(frame, scales, config.blob_threshold)

    return workers.map_threads(len(paths), detect_file)
