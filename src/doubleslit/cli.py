"""Command-line driver.

Four subcommands: `pattern` (one detector profile), `sweep` (profiles over
a list of mask centers), `buildup` (sample events, render frames, detect
blobs, accumulate the build-up image), `detect` (blob detection on existing
frame files).  All outputs are deterministic for a given config and seed;
no artifact contains a timestamp, so identical runs are byte-identical.

Exit codes: 0 success, 2 configuration problem, 3 I/O problem.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import blobdetect, sampler
from .analysis import run_sweep
from .buildup import run_buildup
from .config import (
    ASSUMED_KEYS,
    RunConfig,
    config_text,
    load_config,
    parse_length,
)
from .core import mean_interelectron_distance
from .errors import ConfigError, DomainError, FrameFileError, GridConfigError
from .pgm import MAXVAL, read_pgm, write_pgm
from .propagation import IntensityProfile, simulate_beamline


def _write_profile_csv(path: Path, profile: IntensityProfile) -> None:
    x = profile.x
    with open(path, "w", newline="") as fh:
        fh.write("x_m,intensity\n")
        for i in range(profile.n):
            fh.write(f"{x[i]:.17g},{profile.values[i]:.17g}\n")


def _write_meta(path: Path, config: RunConfig, extras: dict) -> None:
    lines = ["# effective configuration", config_text(config).rstrip("\n")]
    if ASSUMED_KEYS:
        lines.append("# keys marked 'assumed' are free choices, not measured values")
    if extras:
        lines.append("# derived quantities")
        for key, value in extras.items():
            if isinstance(value, float):
                lines.append(f"{key} = {value:.17g}")
            else:
                lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")


def _derived(config: RunConfig) -> dict:
    beam = config.beam()
    return {
        "derived.wavelength_m": beam.wavelength,
        "derived.speed_m_s": beam.speed,
        "derived.fringe_period_m": config.fringe_period(),
        "derived.envelope_scale_m": config.envelope_scale(),
        "derived.mean_interelectron_distance_m": mean_interelectron_distance(
            beam.speed, config.total_rate
        ),
    }


def _out_dir(args, config: RunConfig) -> Path:
    out = Path(args.out) if args.out else Path(config.output_directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _to_pgm_scaled(canvas: np.ndarray) -> np.ndarray:
    top = float(canvas.max())
    if top <= 0:
        return np.zeros(canvas.shape, dtype=np.uint16)
    return np.rint(canvas / top * MAXVAL).astype(np.uint16)


def _profile_image(profile: IntensityProfile, config: RunConfig) -> np.ndarray:
    # Resample onto the camera pixel grid and repeat over the sensor height.
    cols = (np.arange(config.frame_width) - (config.frame_width - 1) / 2)
    px = cols * config.frame_pitch
    row = np.interp(px, profile.x, profile.values, left=0.0, right=0.0)
    return _to_pgm_scaled(np.tile(row, (config.frame_height, 1)))


def cmd_pattern(args) -> int:
    config = load_config(args.config, args.seed)
    out = _out_dir(args, config)
    if args.mask_center.strip().lower() == "none":
        center = None
    else:
        center = parse_length(args.mask_center, "--mask-center")
    profile = simulate_beamline(config.layout(), config.beam(), center, config.grid())
    _write_profile_csv(out / "pattern.csv", profile)
    extras = _derived(config)
    extras["pattern.mask_center_m"] = "none" if center is None else float(center)
    _write_meta(out / "pattern.meta", config, extras)
    if args.image:
        write_pgm(out / "pattern.pgm", _profile_image(profile, config))
    print(f"pattern: {profile.n} samples -> {out / 'pattern.csv'}")
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config, args.seed)
    out = _out_dir(args, config)
    lo = parse_length(args.start, "--from")
    hi = parse_length(args.stop, "--to")
    if args.steps < 2:
        raise ConfigError(f"--steps must be at least 2, got {args.steps}")
    if lo == hi:
        raise ConfigError("--from and --to must differ (centers must be monotone)")
    centers = np.linspace(lo, hi, args.steps)
    jobs = min(8, os.cpu_count() or 1)
    result = run_sweep(config.layout(), config.beam(), centers, config.grid(), jobs=jobs)
    with open(out / "manifest.csv", "w", newline="") as fh:
        fh.write("index,center_m,fraction_slit1,fraction_slit2,label,file\n")
        for i, entry in enumerate(result.entries):
            name = f"sweep_{i:03d}.csv"
            _write_profile_csv(out / name, entry.profile)
            f1, f2 = entry.fractions
            fh.write(
                f"{i},{entry.mask_center:.17g},{f1:.17g},{f2:.17g},"
                f"{entry.label},{name}\n"
            )
    _write_meta(out / "sweep.meta", config, _derived(config))
    print(f"sweep: {len(result.entries)} mask positions -> {out / 'manifest.csv'}")
    return 0


def cmd_buildup(args) -> int:
    config = load_config(args.config, args.seed)
    if args.checkpoints:
        try:
            marks = tuple(int(tok) for tok in args.checkpoints.split(","))
        except ValueError:
            raise ConfigError("--checkpoints must be a comma-separated integer list")
        if any(b <= a for a, b in zip(marks, marks[1:])) or any(c < 1 for c in marks):
            raise ConfigError("--checkpoints must be strictly increasing and >= 1")
        config = dataclasses.replace(config, checkpoints=marks)
    out = _out_dir(args, config)
    run = run_buildup(config)
    sampler.write_events_csv(run.events, out / "events.csv")
    blobdetect.write_blobs_csv(run.rows, out / "blobs.csv")
    for count in sorted(run.result.snapshots):
        image = run.result.snapshots[count]
        write_pgm(out / f"buildup_{count:06d}.pgm", _to_pgm_scaled(image.canvas))
    write_pgm(out / "buildup_final.pgm", _to_pgm_scaled(run.result.image.canvas))
    with open(out / "metrics.txt", "w") as fh:
        for key, value in run.metrics.items():
            if isinstance(value, float):
                fh.write(f"{key}={value:.17g}\n")
            else:
                fh.write(f"{key}={value}\n")
    extras = _derived(config)
    extras["buildup.sampling_half_width_m"] = 2.5 * config.fringe_period()
    _write_meta(out / "buildup.meta", config, extras)
    m = run.metrics
    print(
        f"buildup: {m['n_events']} events, {m['n_blobs']} blobs, "
        f"ks_final={m['ks_final']:.4g} -> {out}"
    )
    return 0


def cmd_detect(args) -> int:
    config = load_config(args.config, args.seed)
    out = _out_dir(args, config)
    scales = blobdetect.geometric_scales(
        config.blob_t_min, config.blob_t_max, config.blob_ratio
    )
    total = 0
    for name in args.files:
        counts = read_pgm(name)
        blobs = blobdetect.detect_blobs(counts, scales, config.blob_threshold)
        rows = [(0, float("nan"), blob) for blob in blobs]
        target = out / (Path(name).stem + "_blobs.csv")
        blobdetect.write_blobs_csv(rows, target)
        total += len(blobs)
        print(f"{name}: {len(blobs)} blobs -> {target}")
    print(f"total: {total} blobs in {len(args.files)} frames")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="config file path")
    sub.add_argument("--seed", type=int, default=None, help="RNG seed override")
    sub.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doubleslit",
        description="Electron double-slit simulator: wave propagation, "
        "mask sweeps, single-event sampling and blob detection.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("pattern", help="detector-plane intensity profile")
    _add_common(p)
    p.add_argument(
        "--mask-center",
        default="0",
        help="mask center, e.g. '0', '-2520 nm', or 'none' for no mask",
    )
    p.add_argument("--image", action="store_true", help="also render a graymap")
    p.set_defaults(handler=cmd_pattern)

    p = commands.add_parser("sweep", help="profiles over a range of mask centers")
    _add_common(p)
    p.add_argument("--from", dest="start", required=True, help="first mask center")
    p.add_argument("--to", dest="stop", required=True, help="last mask center")
    p.add_argument("--steps", type=int, required=True, help="number of centers (>= 2)")
    p.set_defaults(handler=cmd_sweep)

    p = commands.add_parser("buildup", help="event sampling through blob detection")
    _add_common(p)
    p.add_argument(
        "--checkpoints",
        default=None,
        help="comma-separated snapshot counts (overrides config)",
    )
    p.set_defaults(handler=cmd_buildup)

    p = commands.add_parser("detect", help="blob detection on existing frames")
    _add_common(p)
    p.add_argument("files", nargs="+", help="frame files (binary graymap)")
    p.set_defaults(handler=cmd_detect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, GridConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FrameFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
