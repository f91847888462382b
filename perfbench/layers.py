"""The layers of doubleslit, how to trace them, and their per-layer metrics.

A layer is a module of `src/doubleslit/`; `geometry` counts as part of
`analysis`, and `core` and `errors` do no measurable work, so they are not
traced.  Every public function of a traced module is wrapped, plus two
library calls as seen from the module that makes them: the FFTs of
`propagation` and the 3D `minimum_filter` of `blobdetect`.
"""
from __future__ import annotations

import importlib
import inspect
import math
import os
import statistics

import numpy as np

from spans import Proxy, Tracer, self_times

MODULE_LAYER = {
    "config": "config",
    "propagation": "propagation",
    "analysis": "analysis",
    "geometry": "analysis",
    "sampler": "sampler",
    "blobdetect": "blobdetect",
    "pgm": "pgm",
    "cli": "cli",
}
LAYERS = ("config", "propagation", "analysis", "sampler", "blobdetect", "pgm", "cli")


def _file_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    return {"bytes": os.path.getsize(path)}


def _fft_points(args, kwargs, result):
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    return {"points": int(n if n is not None else np.size(args[0]))}


NOTES = {
    "blobdetect.scale_space_response": lambda a, k, r: {"voxels": int(r.size)},
    "blobdetect.detect_blobs": lambda a, k, r: {"blobs": len(r)},
    "pgm.write_pgm": _file_bytes,
    "pgm.read_pgm": _file_bytes,
}


def install(tracer: Tracer) -> None:
    """Replace every traced callable with a timing wrapper; undo with restore()."""
    package = importlib.import_module("doubleslit")
    modules = {m: importlib.import_module(f"doubleslit.{m}") for m in MODULE_LAYER}
    namespaces = [package, *modules.values()]
    for short, mod in modules.items():
        for name, fn in list(vars(mod).items()):
            if (
                inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not name.startswith("_")
            ):
                span = f"{short}.{name}"
                tracer.patch(namespaces, fn, tracer.wrap(span, fn, NOTES.get(span)))
    blob = modules["blobdetect"]
    nd = blob.ndimage
    tracer.patch(
        [blob],
        nd,
        Proxy(nd, minimum_filter=tracer.wrap("blobdetect.minimum_filter", nd.minimum_filter)),
    )
    # Every transform numpy offers, so that a change of transform type in
    # `propagation` still counts its points.
    prop = modules["propagation"]
    npm = prop.np
    ffts = {
        name: tracer.wrap("propagation.fft", getattr(npm.fft, name), _fft_points)
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "fft2", "ifft2")
    }
    tracer.patch([prop], npm, Proxy(npm, fft=Proxy(npm.fft, **ffts)))


def layer_of(span_name: str) -> str:
    return MODULE_LAYER[span_name.split(".", 1)[0]]


def summarize(spans) -> dict:
    """Per-invocation view: spans by name, self times, layer self totals."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        layer_self[layer_of(s.name)] += selfs[s.id]
    return {"by_name": by_name, "self": selfs, "layer_self": layer_self}


def missing(summary: dict, required) -> list[str]:
    """Required span names that recorded no call."""
    return [name for name in required if not summary["by_name"].get(name)]


def _p99(values) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traced invocations of one run.

    `_ms`/`_s` times are medians per call pooled over the invocations
    (`_p99_ms` the 99th percentile per call); `self_s` is a layer's total
    self time per invocation; counts and ratios are medians per invocation.
    """

    def spans_of(sm, name):
        return sm["by_name"].get(name, ())

    def per_call_ms(name, pick=_median):
        durations = [s.duration for sm in summaries for s in spans_of(sm, name)]
        return 1e3 * pick(durations) if durations else 0.0

    def per_invocation(fn):
        return _median(fn(sm) for sm in summaries)

    def total(sm, name, key=None):
        spans = spans_of(sm, name)
        return sum(s.counts.get(key, 0) for s in spans) if key else len(spans)

    def per_total(name, key, per):
        return per_invocation(lambda sm: _ratio(total(sm, name, key), total(sm, per)))

    def parallelism(sm):
        sweeps = spans_of(sm, "analysis.run_sweep")
        ids = {s.id for s in sweeps}
        busy = sum(
            s.duration for s in spans_of(sm, "propagation.simulate_beamline") if s.parent in ids
        )
        return _ratio(busy, sum(s.duration for s in sweeps))

    detect = "blobdetect.detect_blobs"
    out = {
        "config.load_ms": per_call_ms("config.load_config"),
        "propagation.simulate_beamline_ms": per_call_ms("propagation.simulate_beamline"),
        "propagation.simulate_beamline_calls": per_invocation(
            lambda sm: total(sm, "propagation.simulate_beamline")
        ),
        "propagation.angular_spectrum_step_ms": per_call_ms("propagation.angular_spectrum_step"),
        "propagation.fresnel_transform_step_ms": per_call_ms("propagation.fresnel_transform_step"),
        "propagation.apply_aperture_ms": per_call_ms("propagation.apply_aperture"),
        "propagation.fft_points": per_total(
            "propagation.fft", "points", "propagation.simulate_beamline"
        ),
        "analysis.run_sweep_s": per_call_ms("analysis.run_sweep") / 1e3,
        "analysis.sweep_parallelism": per_invocation(parallelism),
        "sampler.make_events_ms": per_call_ms("sampler.make_events"),
        "sampler.render_frame_ms": per_call_ms("sampler.render_frame"),
        "sampler.render_frame_p99_ms": per_call_ms("sampler.render_frame", _p99),
        "sampler.write_events_csv_ms": per_call_ms("sampler.write_events_csv"),
        "blobdetect.detect_blobs_ms": per_call_ms(detect),
        "blobdetect.detect_blobs_p99_ms": per_call_ms(detect, _p99),
        "blobdetect.scale_space_response_ms": per_call_ms("blobdetect.scale_space_response"),
        "blobdetect.minimum_filter_ms": per_call_ms("blobdetect.minimum_filter"),
        "blobdetect.detect_self_ms": 1e3
        * _median(sm["self"][s.id] for sm in summaries for s in spans_of(sm, detect)),
        "blobdetect.voxels_per_frame": per_total(
            "blobdetect.scale_space_response", "voxels", detect
        ),
        "blobdetect.blobs_per_frame": per_total(detect, "blobs", detect),
        "blobdetect.accumulate_buildup_ms": per_call_ms("blobdetect.accumulate_buildup"),
        "blobdetect.write_blobs_csv_ms": per_call_ms("blobdetect.write_blobs_csv"),
        "pgm.write_pgm_ms": per_call_ms("pgm.write_pgm"),
        "pgm.read_pgm_ms": per_call_ms("pgm.read_pgm"),
        "pgm.bytes": per_invocation(
            lambda sm: total(sm, "pgm.write_pgm", "bytes") + total(sm, "pgm.read_pgm", "bytes")
        ),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_invocation(lambda sm: sm["layer_self"][layer])
    return out
