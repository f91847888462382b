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

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import analysis, blobdetect, pgm, propagation, sampler, workers
from .blobdetect import BlobDescriptor
from .config import RunConfig
from .errors import ConfigError, DomainError
from .propagation import IntensityProfile
from .sampler import DetectionEvent


@dataclass(frozen=True)
class BuildUpRun:
    """Everything one build-up produces, before any file is written.

    `rows` are (frame_index, t_s, blob) triples in frame order; `canvas`
    and `snapshots` are what `accumulate_buildup` returns; `metrics` are
    the deterministic summary values, in output order.
    """

    events: list[DetectionEvent]
    rows: list[tuple[int, float, BlobDescriptor]]
    canvas: np.ndarray
    snapshots: dict[int, np.ndarray]
    metrics: dict


def restrict_profile(profile: IntensityProfile, half_width: float) -> IntensityProfile:
    """Clip to |x| <= half_width and renormalize to unit integral."""
    kept = profile.rows_within(half_width)
    values = profile.values[kept]
    if not values.size:
        raise DomainError("restriction window excludes the whole profile")
    total = float(values.sum()) * profile.dx
    if total <= 0:
        raise DomainError("restricted profile carries no intensity")
    x0 = profile.x0 + kept.start * profile.dx  # the first kept row's x, as profile.x has it
    return IntensityProfile(x0=x0, dx=profile.dx, values=values / total, normalized=True)


def refuse_stacks_beyond_memory(frames: str, w: int, h: int, scales: int) -> None:
    """Refuse w x h frames whose response stacks would exceed physical
    memory: each detection thread holds blobdetect.LAYERS_PER_SCALE float64
    frame layers per scale and blobdetect.FRAME_LAYERS more."""
    jobs = workers.worker_count()
    per_scale, fixed = blobdetect.LAYERS_PER_SCALE, blobdetect.FRAME_LAYERS
    workers.refuse_beyond_memory(
        f"{frames} with the {scales} scales of blob.t_min, blob.t_max and blob.ratio "
        f"need {per_scale} x {scales} + {fixed} frame layers of float64 on each of "
        f"{jobs} threads",
        math.ceil((per_scale * scales + fixed) * 8 * w * h) * jobs,
    )


def run_buildup(config: RunConfig) -> BuildUpRun:
    """Sample events, render one frame per event, detect, accumulate.

    Refused before any propagation: frames whose response stacks exceed
    physical memory, an event count whose float64 draws per event do (the
    draws are a lower bound on what the events need), and a background
    or PSF width that the frame renderer cannot draw or square.
    """
    w, h, scales = config.frame_width, config.frame_height, config.blob_scales()
    refuse_stacks_beyond_memory(f"frame.width = {w} and frame.height = {h}", w, h, len(scales))
    n = config.n_events
    if n < 1:
        raise ConfigError(f"buildup needs sampler.n_events >= 1, got {n}")
    # Above MAXVAL the background alone saturates about half of all pixels.
    if config.background > pgm.MAXVAL:
        raise ConfigError(
            f"buildup needs sampler.background <= {pgm.MAXVAL}, got {config.background}"
        )
    sigma = config.psf_sigma
    if not math.isfinite(sigma * sigma):
        raise ConfigError(f"buildup needs sampler.psf_sigma squared to be finite, got {sigma}")
    draws = sampler.DRAWS_PER_EVENT
    workers.refuse_beyond_memory(
        f"sampler.n_events = {n} needs {draws} x {n} float64 draws", draws * 8 * n
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
        # Frame i holds event i alone, exposed for one mean inter-arrival
        # period from its arrival, so events that arrive together get one each.
        frame = sampler.render_frame(
            events[i : i + 1],
            (events[i].t, events[i].t + 1.0 / config.pattern_rate),
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

    canvas, snapshots = blobdetect.accumulate_buildup(
        blobs, config.frame_width, config.frame_height, checkpoints=config.checkpoints
    )
    # Recovered positions in meters, for the end-to-end consistency metric.
    xs_px = np.array([b.x for b in blobs])
    xs_m = sampler.pixel_offsets(xs_px, config.frame_width) * config.frame_pitch
    ks_events = analysis.ks_distance([e.x for e in events], source)
    ks_final = analysis.ks_distance(xs_m, source) if blobs else float("nan")
    metrics = {
        "n_events": len(events),
        "n_blobs": len(blobs),
        "ks_events": ks_events,
        "ks_final": ks_final,
    }
    return BuildUpRun(events, rows, canvas, snapshots, metrics)


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
