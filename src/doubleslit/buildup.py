"""Frame pipelines: the one-electron-at-a-time build-up, and blob
detection on existing frame files.

Frames are independent: in a build-up, frame i holds event i alone and its
background noise is keyed by i (see `sampler`); a frame file is read and
searched on its own.  Both frame loops therefore run as contiguous index
ranges on one thread per available CPU (`_run_ranges`), the calling thread
taking the first range, and joining the ranges in frame order reproduces
the sequential output bit for bit.

The library calls go through their module attributes so that a tracer
that swaps module attributes sees every call.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import analysis, blobdetect, pgm, propagation, sampler
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


def _run_ranges(n: int, item: Callable[[int], object]) -> list:
    """[item(i) for i in range(n)], over contiguous ranges of range(n).

    The ranges run on one thread per CPU, the calling thread taking the
    first.  Results are joined in range order, so when several ranges
    raise, the exception of the earliest one propagates.  Once a range has
    raised, every later range stops at its next item, since its result is
    discarded; earlier ranges run on, as one of them may raise first.
    """
    ranges = _frame_ranges(n, _worker_count())
    stop = [False] * len(ranges)

    def work(k: int) -> list:
        out = []
        for i in ranges[k]:
            if stop[k]:
                break
            try:
                out.append(item(i))
            except BaseException:
                for later in range(k + 1, len(ranges)):
                    stop[later] = True
                raise
        return out

    if len(ranges) > 1:
        with ThreadPoolExecutor(len(ranges) - 1) as pool:
            rest = [pool.submit(work, k) for k in range(1, len(ranges))]
            parts = [work(0)] + [f.result() for f in rest]
    else:
        parts = [work(k) for k in range(len(ranges))]
    return [result for part in parts for result in part]


def run_buildup(config: RunConfig) -> BuildUpRun:
    """Sample events, render one frame per event, detect, accumulate."""
    if config.n_events < 1:
        raise ConfigError(f"buildup needs sampler.n_events >= 1, got {config.n_events}")
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
    scales = config.blob_scales()

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

    per_frame = _run_ranges(len(events), detect_frame)
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
    at a time.  A bad file raises the `FrameFileError` of the first bad
    path in input order, and nothing is returned.
    """
    scales = config.blob_scales()

    def detect_file(i: int) -> list[BlobDescriptor]:
        return blobdetect.detect_blobs(pgm.read_pgm(paths[i]), scales, config.blob_threshold)

    return _run_ranges(len(paths), detect_file)
