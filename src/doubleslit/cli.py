"""Command-line driver.

Four subcommands: `pattern` (one detector profile), `sweep` (profiles over
a list of mask centers), `buildup` (sample events, render frames, detect
blobs, accumulate the build-up image), `detect` (blob detection on existing
frame files).  All outputs are deterministic for a given config and seed;
no artifact contains a timestamp, so identical runs are byte-identical.

The CLI parses arguments, checks them and writes files; every pipeline it
runs, and every split of work across CPUs (`workers`), is in the library.
A profile file holds only the rows inside the window the sampling guard
covers (`RunConfig.published_half_width`).

Exit codes: 0 success, 2 configuration problem, 3 I/O problem.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import blobdetect, propagation, sampler, workers
from .analysis import run_sweep
from .buildup import run_buildup, run_detect
from .config import RunConfig, config_text, load_config, parse_integer, parse_length
from .core import mean_interelectron_distance
from .errors import ConfigError, DomainError, GridConfigError
from .pgm import MAXVAL, write_pgm
from .propagation import PASS_FIELDS, IntensityProfile, forget_kept, simulate_beamline


_BLOCK_ROWS = 4096  # rows per x-column template, filled by one % call
# Template bytes per row: an x of at most 24 characters and ",%.17g\n".
_TEMPLATE_BYTES = 32


def _row_templates(profile: IntensityProfile, half_width: float) -> tuple[slice, list[str]]:
    """The rows of the profile with |x| <= half_width, and their x column
    as `%` templates of _BLOCK_ROWS rows each; formatted once, they serve
    every profile on the same grid."""
    kept = profile.rows_within(half_width)
    x = profile.x[kept]
    blocks = [
        "".join([f"{v:.17g},%.17g\n" for v in x[lo : lo + _BLOCK_ROWS].tolist()])
        for lo in range(0, x.size, _BLOCK_ROWS)
    ]
    return kept, blocks


def _write_profile(
    path: Path, profile: IntensityProfile, kept: slice, blocks: list[str]
) -> float:
    """Write the kept rows of the profile to path as `x_m,intensity` rows
    with 17 significant digits, one `%` per block of values (a template of
    a whole file would cost peak memory), and return their flux, the sum
    of the kept values times dx."""
    values = profile.values[kept]
    with open(path, "w", newline="") as fh:
        fh.write("x_m,intensity\n")
        for lo, block in zip(range(0, values.size, _BLOCK_ROWS), blocks):
            fh.write(block % tuple(values[lo : lo + _BLOCK_ROWS].tolist()))
    return float(np.sum(values)) * profile.dx


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
    w = config.frame_width
    px = sampler.pixel_offsets(np.arange(w), w) * config.frame_pitch
    row = np.interp(px, profile.x, profile.values, left=0.0, right=0.0)
    return _to_pgm_scaled(np.tile(row, (config.frame_height, 1)))


def _config(args) -> RunConfig:
    """--config with --seed, read by the config keys' integer grammar."""
    seed = None if args.seed is None else parse_integer(args.seed, "--seed")
    return load_config(args.config, seed)


def _beamline_config(args) -> RunConfig:
    """The config of a command that propagates, refused when one beamline
    pass, PASS_FIELDS complex128 fields of grid.n values, would not fit in
    physical memory, or when every pass would refuse its sampling
    (`propagation.check_beamline`)."""
    config = _config(args)
    n = config.grid_n
    workers.refuse_beyond_memory(
        f"grid.n = {n} needs {PASS_FIELDS} fields of {n} complex128 values for one pass",
        PASS_FIELDS * 16 * n,
    )
    try:
        propagation.check_beamline(config.layout(), config.beam(), config.grid())
    except GridConfigError as exc:
        keys = "beam.energy, slits.width, slits.separation, grid.window and grid.n"
        raise ConfigError(f"{keys}: {exc}") from exc
    return config


def cmd_pattern(args) -> int:
    config = _beamline_config(args)
    if args.mask_center.strip().lower() == "none":
        center = None
    else:
        center = parse_length(args.mask_center, "--mask-center")
        try:
            propagation.clipped_mask(config.layout(), config.grid(), center)
        except DomainError as exc:
            keys = "--mask-center, mask.opening_width and grid.window"
            raise ConfigError(f"argument: {keys}: {exc}") from exc
    if args.image:
        w, h = config.frame_width, config.frame_height
        workers.refuse_beyond_memory(
            f"--image with frame.width = {w} and frame.height = {h} needs "
            f"one frame of {w} x {h} float64 values",
            8 * w * h,
        )
    profile = simulate_beamline(config.layout(), config.beam(), center, config.grid())
    out = _out_dir(args)
    half_width = config.published_half_width()
    kept, blocks = _row_templates(profile, half_width)
    kept_flux = _write_profile(out / "pattern.csv", profile, kept, blocks)
    extras = _derived(config)
    extras["pattern.mask_center_m"] = "none" if center is None else float(center)
    extras["pattern.published_half_width_m"] = half_width
    extras["pattern.kept_flux"] = kept_flux
    _write_meta(out / "pattern.meta", config, extras)
    if args.image:
        write_pgm(out / "pattern.pgm", _profile_image(profile, config))
    print(f"pattern: {kept.stop - kept.start} rows -> {out / 'pattern.csv'}")
    return 0


def _sweep_name(i: int) -> str:
    return f"sweep_{i:03d}.csv"


def cmd_sweep(args) -> int:
    """`run_sweep` checks every center before `--out` exists; then each
    entry is drawn, its file written and the entry let go before the next
    pass.  The manifest follows once every file is written."""
    config = _beamline_config(args)
    lo = parse_length(args.start, "--from")
    hi = parse_length(args.stop, "--to")
    steps = parse_integer(args.steps, "--steps")
    if steps < 2:
        raise ConfigError(f"--steps must be at least 2, got {steps}")
    if not lo < hi:
        raise ConfigError(f"--from ({args.start}) must be below --to ({args.stop})")
    # A center, its two slit fractions, its kept flux and its label
    # reference take 40 bytes; checked here, since linspace would allocate
    # the centers.  Per grid sample, the sweep holds one pass, the x-column
    # templates and one profile.
    grid = config.grid()
    workers.refuse_beyond_memory(
        f"--steps {steps} needs 40 bytes per center, and for each of grid.n = "
        f"{grid.n} samples one pass of {PASS_FIELDS} complex128 fields, "
        f"{_TEMPLATE_BYTES} bytes of row templates and one float64 profile",
        40 * steps + (PASS_FIELDS * 16 + _TEMPLATE_BYTES + 8) * grid.n,
    )
    centers = np.linspace(lo, hi, steps)
    try:
        entries = run_sweep(config.layout(), config.beam(), centers, grid)
    except DomainError as exc:
        keys = "--from, --to, --steps, mask.opening_width and grid.window"
        raise ConfigError(f"argument: {keys}: {exc}") from exc
    fractions = np.empty((steps, 2))
    labels = [""] * steps
    fluxes = np.empty(steps)
    out = _out_dir(args)
    half_width = config.published_half_width()
    # next() in a range loop holds no entry while the next pass runs;
    # enumerate(entries) would keep the last one in its reused result tuple.
    for i in range(steps):
        entry = next(entries)
        if i == 0:
            kept, blocks = _row_templates(entry.profile, half_width)
        fractions[i] = entry.fractions
        labels[i] = entry.label
        fluxes[i] = _write_profile(out / _sweep_name(i), entry.profile, kept, blocks)
        del entry
    with open(out / "manifest.csv", "w", newline="") as fh:
        fh.write("index,center_m,fraction_slit1,fraction_slit2,label,file,kept_flux\n")
        rows = zip(centers.tolist(), fractions.tolist(), labels, fluxes.tolist())
        for i, (c, (f1, f2), label, flux) in enumerate(rows):
            fh.write(
                f"{i},{c:.17g},{f1:.17g},{f2:.17g},{label},{_sweep_name(i)},{flux:.17g}\n"
            )
    extras = _derived(config)
    extras["sweep.published_half_width_m"] = half_width
    _write_meta(out / "sweep.meta", config, extras)
    print(f"sweep: {steps} mask positions -> {out / 'manifest.csv'}")
    return 0


def cmd_buildup(args) -> int:
    config = _beamline_config(args)
    run = run_buildup(config)
    out = _out_dir(args)
    sampler.write_events_csv(run.events, out / "events.csv")
    blobdetect.write_blobs_csv(run.rows, out / "blobs.csv")
    for count, canvas in sorted(run.snapshots.items()):
        write_pgm(out / f"buildup_{count:06d}.pgm", _to_pgm_scaled(canvas))
    write_pgm(out / "buildup_final.pgm", _to_pgm_scaled(run.canvas))
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
    config = _config(args)
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
    sub.add_argument("--seed", default=None, help="RNG seed override")
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
    # argparse takes a value such as -2.8um for an option unless '=' joins it.
    center = "mask center; join a negative value with no space by '=', as in {}=-2.8um"
    p.add_argument("--from", dest="start", required=True, help="first " + center.format("--from"))
    p.add_argument("--to", dest="stop", required=True, help="last " + center.format("--to"))
    p.add_argument("--steps", required=True, help="number of centers (>= 2)")
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
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        forget_kept()  # a command keeps no propagation result once it returns


if __name__ == "__main__":
    sys.exit(main())
