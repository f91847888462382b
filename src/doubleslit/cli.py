"""Command-line driver.

Four subcommands: `pattern` (one detector profile), `sweep` (profiles over
a list of mask centers), `buildup` (sample events, render frames, detect
blobs, accumulate the build-up image), `detect` (blob detection on existing
frame files).  All outputs are deterministic for a given config and seed;
no artifact contains a timestamp, so identical runs are byte-identical.

The CLI parses arguments, checks them and writes files; every pipeline it
runs, and every split of work across CPUs (`workers`), is in the library.

Exit codes: 0 success, 2 configuration problem, 3 I/O problem.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import blobdetect, sampler, workers
from .analysis import run_sweep
from .buildup import run_buildup, run_detect
from .config import RunConfig, config_text, load_config, parse_length
from .core import mean_interelectron_distance
from .errors import ConfigError, DomainError, GridConfigError
from .geometry import make_mask
from .pgm import MAXVAL, write_pgm
from .propagation import IntensityProfile, forget_kept, simulate_beamline


_BLOCK_ROWS = 4096  # rows per x-column template, filled by one % call


def _x_column(profile: IntensityProfile) -> list[str]:
    """The first column of a profile CSV as row templates `"<x>,%.17g\n"`,
    _BLOCK_ROWS rows each (the last block may hold fewer)."""
    x = profile.x.tolist()
    return [
        "".join([f"{v:.17g},%.17g\n" for v in x[lo : lo + _BLOCK_ROWS]])
        for lo in range(0, len(x), _BLOCK_ROWS)
    ]


def _write_profile_csv(
    path: Path, profile: IntensityProfile, xs: list[str] | None = None
) -> None:
    """Write `x_m,intensity` rows with 17 significant digits.

    xs is _x_column(profile), passed in when many profiles share one grid
    so that the column is formatted once.  A column of another length is
    refused before the file is opened.
    """
    if xs is None:
        xs = _x_column(profile)
    rows = _BLOCK_ROWS * (len(xs) - 1) + xs[-1].count("\n") if xs else 0
    if rows != profile.n:
        raise DomainError(f"x column of {rows} rows for a profile of {profile.n} values")
    with open(path, "w", newline="") as fh:
        fh.write("x_m,intensity\n")
        for lo, block in zip(range(0, rows, _BLOCK_ROWS), xs):
            fh.write(block % tuple(profile.values[lo : lo + _BLOCK_ROWS].tolist()))


def _value_text(value) -> str:
    """A .meta or metrics.txt value: floats to 17 significant digits."""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _write_meta(path: Path, config: RunConfig, extras: dict) -> None:
    lines = [
        "# effective configuration",
        config_text(config).rstrip("\n"),
        "# keys marked 'assumed' are free choices, not measured values",
        "# derived quantities",
    ]
    lines += [f"{key} = {_value_text(value)}" for key, value in extras.items()]
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


def _out_dir(args) -> Path:
    """The --out directory, created on the spot: call it just before the
    first write, so that a run that fails earlier leaves nothing behind."""
    out = Path(args.out)
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


def _beamline_config(args) -> RunConfig:
    """The config of a command that propagates, refused when one complex128
    field of grid.n values would not fit in physical memory."""
    config = load_config(args.config, args.seed)
    n = config.grid_n
    workers.refuse_beyond_memory(
        f"grid.n = {n} needs one field of {n} complex128 values", 16 * n
    )
    return config


def cmd_pattern(args) -> int:
    config = _beamline_config(args)
    if args.mask_center.strip().lower() == "none":
        center = None
    else:
        center = parse_length(args.mask_center, "--mask-center")
        try:
            make_mask(config.mask_opening_width, center)
        except DomainError as exc:
            raise ConfigError(f"argument: --mask-center: {exc}") from exc
    if args.image:
        w, h = config.frame_width, config.frame_height
        workers.refuse_beyond_memory(
            f"--image with frame.width = {w} and frame.height = {h} needs "
            f"one frame of {w} x {h} float64 values",
            8 * w * h,
        )
    profile = simulate_beamline(config.layout(), config.beam(), center, config.grid())
    out = _out_dir(args)
    _write_profile_csv(out / "pattern.csv", profile)
    extras = _derived(config)
    extras["pattern.mask_center_m"] = "none" if center is None else float(center)
    _write_meta(out / "pattern.meta", config, extras)
    if args.image:
        write_pgm(out / "pattern.pgm", _profile_image(profile, config))
    print(f"pattern: {profile.n} samples -> {out / 'pattern.csv'}")
    return 0


def _sweep_name(i: int) -> str:
    return f"sweep_{i:03d}.csv"


def _write_sweep_profiles(out: Path, profiles: list[IntensityProfile]) -> None:
    """Write profiles[i] to out/sweep_NNN.csv on every CPU.

    The x column is formatted once, before the fork, into blocks of row
    templates (`_x_column`); each file then takes one `%` per block of
    values.  Formatting holds the GIL, so the files are written by forked
    processes (`workers.run_forked`), which inherit the profiles and the
    templates; pickling them to a spawned pool costs peak memory, and so
    does a template of a whole file.
    """
    # SweepResult holds one grid for all profiles.
    xs = _x_column(profiles[0])

    def write(i: int) -> None:
        _write_profile_csv(out / _sweep_name(i), profiles[i], xs)

    workers.run_forked(len(profiles), write, _sweep_name)


def cmd_sweep(args) -> int:
    config = _beamline_config(args)
    lo = parse_length(args.start, "--from")
    hi = parse_length(args.stop, "--to")
    if args.steps < 2:
        raise ConfigError(f"--steps must be at least 2, got {args.steps}")
    if not lo < hi:
        raise ConfigError(f"--from ({args.start}) must be below --to ({args.stop})")
    # A sweep holds every profile's float64 values until it writes them.
    grid = config.grid()
    workers.refuse_beyond_memory(
        f"--steps {args.steps} needs {args.steps} profiles of grid.n = {grid.n} float64 values",
        args.steps * grid.n * 8,
    )
    centers = np.linspace(lo, hi, args.steps)
    try:
        result = run_sweep(config.layout(), config.beam(), centers, grid)
    except DomainError as exc:
        raise ConfigError(f"argument: --from, --to and --steps: {exc}") from exc
    out = _out_dir(args)
    _write_sweep_profiles(out, [entry.profile for entry in result.entries])
    with open(out / "manifest.csv", "w", newline="") as fh:
        fh.write("index,center_m,fraction_slit1,fraction_slit2,label,file\n")
        for i, entry in enumerate(result.entries):
            f1, f2 = entry.fractions
            fh.write(
                f"{i},{entry.mask_center:.17g},{f1:.17g},{f2:.17g},"
                f"{entry.label},{_sweep_name(i)}\n"
            )
    _write_meta(out / "sweep.meta", config, _derived(config))
    print(f"sweep: {len(result.entries)} mask positions -> {out / 'manifest.csv'}")
    return 0


def cmd_buildup(args) -> int:
    config = _beamline_config(args)
    run = run_buildup(config)
    out = _out_dir(args)
    sampler.write_events_csv(run.events, out / "events.csv")
    blobdetect.write_blobs_csv(run.rows, out / "blobs.csv")
    for count, canvas in sorted(run.result.snapshots.items()):
        write_pgm(out / f"buildup_{count:06d}.pgm", _to_pgm_scaled(canvas))
    write_pgm(out / "buildup_final.pgm", _to_pgm_scaled(run.result.canvas))
    with open(out / "metrics.txt", "w") as fh:
        fh.writelines(f"{key}={_value_text(value)}\n" for key, value in run.metrics.items())
    extras = _derived(config)
    extras["buildup.sampling_half_width_m"] = config.sampling_half_width()
    _write_meta(out / "buildup.meta", config, extras)
    m = run.metrics
    print(
        f"buildup: {m['n_events']} events, {m['n_blobs']} blobs, "
        f"ks_final={m['ks_final']:.4g} -> {out}"
    )
    return 0


def cmd_detect(args) -> int:
    config = load_config(args.config, args.seed)
    # Every output lands in one directory, named after its input's stem.
    targets = [Path(name).stem + "_blobs.csv" for name in args.files]
    first = {}
    for name, target in zip(args.files, targets):
        if target in first:
            raise ConfigError(f"{first[target]} and {name} would both write {target}")
        first[target] = name
    found = run_detect(args.files, config)
    out = _out_dir(args)
    for name, target, blobs in zip(args.files, targets, found):
        rows = [(0, float("nan"), blob) for blob in blobs]
        blobdetect.write_blobs_csv(rows, out / target)
        print(f"{name}: {len(blobs)} blobs -> {out / target}")
    total = sum(map(len, found))
    print(f"total: {total} blobs in {len(args.files)} frames")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="config file path")
    sub.add_argument("--seed", type=int, default=None, help="RNG seed override")
    sub.add_argument("--out", default="out", help="output directory (default: out)")


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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        forget_kept()  # a command keeps no propagation result once it returns


if __name__ == "__main__":
    sys.exit(main())
