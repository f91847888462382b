"""The three workloads: their inputs, output checks and detector scores.

Each workload makes its inputs from the seed in `prepare`, names the CLI
arguments of one invocation, checks an invocation's output directory, and
scores detected blobs against the true electron positions.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from doubleslit import (
    IntensityProfile,
    load_config,
    make_events,
    render_frame,
    simulate_beamline,
    write_pgm,
)

# Centres of a detected blob and a true electron closer than this, in
# pixels, count as a match; the acceptance battery's detector check uses
# the same radius.
MATCH_RADIUS_PX = 2.0

COMMON_SPANS = ("cli.main", "config.load_config")
PROPAGATION_SPANS = (
    "propagation.simulate_beamline",
    "propagation.angular_spectrum_step",
    "propagation.fresnel_transform_step",
    "propagation.apply_aperture",
    "propagation.fft",
)
DETECT_SPANS = (
    "blobdetect.detect_blobs",
    "blobdetect.scale_space_response",
    "blobdetect.minimum_filter",
    "blobdetect.write_blobs_csv",
)


@dataclass
class Prepared:
    argv: list[str]
    items: int
    config_path: Path
    truth: list[list[tuple[float, float]]] = field(default_factory=list)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _match(truth, found) -> int:
    """Greedy one-to-one matching by distance within MATCH_RADIUS_PX."""
    pairs = sorted(
        (math.hypot(tx - fx, ty - fy), i, j)
        for i, (tx, ty) in enumerate(truth)
        for j, (fx, fy) in enumerate(found)
        if math.hypot(tx - fx, ty - fy) < MATCH_RADIUS_PX
    )
    used_t, used_f = set(), set()
    for _, i, j in pairs:
        if i not in used_t and j not in used_f:
            used_t.add(i)
            used_f.add(j)
    return len(used_t)


def _score(truth, found) -> tuple[float, float]:
    """Recall and precision over frames; an empty set scores 1 (none missed)."""
    n_true = sum(len(t) for t in truth)
    n_found = sum(len(f) for f in found)
    matched = sum(_match(t, f) for t, f in zip(truth, found))
    return (matched / n_true if n_true else 1.0, matched / n_found if n_found else 1.0)


def _pixel(config, x_m: float, y_m: float) -> tuple[float, float]:
    """Detector-plane metres to the column/row coordinates blobs are given in."""
    return (
        x_m / config.frame_pitch + (config.frame_width - 1) / 2,
        y_m / config.frame_pitch + (config.frame_height - 1) / 2,
    )


class Buildup:
    """`doubleslit buildup` at the default config on a prefix of the events."""

    name = "buildup"
    item = "events"
    # The chunked RNG makes any prefix a valid sample of the full run.
    N_EVENTS = 250
    required = COMMON_SPANS + PROPAGATION_SPANS + DETECT_SPANS + (
        "sampler.make_events",
        "sampler.render_frame",
        "sampler.write_events_csv",
        "blobdetect.accumulate_buildup",
        "pgm.write_pgm",
    )

    def prepare(self, default_cfg: Path, work: Path, seed: int) -> Prepared:
        lines = [
            line
            for line in default_cfg.read_text().splitlines()
            if not line.split("#")[0].strip().startswith("sampler.n_events")
        ]
        cfg = work / "buildup.cfg"
        cfg.write_text("\n".join(lines + [f"sampler.n_events = {self.N_EVENTS}"]) + "\n")
        return Prepared(
            argv=["buildup", "--config", str(cfg), "--seed", str(seed)],
            items=self.N_EVENTS,
            config_path=cfg,
        )

    def check(self, out: Path, prep: Prepared) -> list[str]:
        problems = []
        metrics = {}
        for line in (out / "metrics.txt").read_text().splitlines():
            key, _, value = line.partition("=")
            metrics[key] = value
        if metrics.get("n_events") != str(self.N_EVENTS):
            problems.append(f"metrics.txt n_events={metrics.get('n_events')}, want {self.N_EVENTS}")
        if len(_rows(out / "events.csv")) != self.N_EVENTS:
            problems.append("events.csv does not hold one row per event")
        if not (out / "buildup_final.pgm").is_file():
            problems.append("buildup_final.pgm missing")
        return problems

    def score(self, out: Path, prep: Prepared) -> tuple[float, float]:
        config = load_config(str(prep.config_path))
        events = _rows(out / "events.csv")
        truth = [[_pixel(config, float(e["x_m"]), float(e["y_m"]))] for e in events]
        found = [[] for _ in events]
        for b in _rows(out / "blobs.csv"):
            found[int(b["frame"])].append((float(b["x_px"]), float(b["y_px"])))
        return _score(truth, found)


class Sweep:
    """`doubleslit sweep` over 41 mask centres at the default config."""

    name = "sweep"
    item = "mask positions"
    STEPS = 41
    # Acceptance criterion 3: the collapsed label sequence of this sweep.
    LABELS = ["blocked", "mixed", "slit1", "mixed", "both", "mixed", "slit2", "mixed", "blocked"]
    required = COMMON_SPANS + PROPAGATION_SPANS + ("analysis.run_sweep",)

    def prepare(self, default_cfg: Path, work: Path, seed: int) -> Prepared:
        argv = ["sweep", "--from", "-2.8 um", "--to", "2.8 um", "--steps", str(self.STEPS)]
        argv += ["--config", str(default_cfg), "--seed", str(seed)]
        return Prepared(argv=argv, items=self.STEPS, config_path=default_cfg)

    def check(self, out: Path, prep: Prepared) -> list[str]:
        rows = _rows(out / "manifest.csv")
        problems = []
        if len(rows) != self.STEPS:
            problems.append(f"manifest.csv has {len(rows)} rows, want {self.STEPS}")
        collapsed = [r["label"] for i, r in enumerate(rows) if i == 0 or r["label"] != rows[i - 1]["label"]]
        if collapsed != self.LABELS:
            problems.append(f"collapsed labels {collapsed}")
        problems += [f"{r['file']} missing" for r in rows if not (out / r["file"]).is_file()]
        return problems

    def score(self, out: Path, prep: Prepared) -> tuple[float, float]:
        return _score([], [])


class DetectDense:
    """`doubleslit detect` over frames holding several electrons each."""

    name = "detect-dense"
    item = "frames"
    N_FRAMES = 250
    PER_FRAME = 6
    required = COMMON_SPANS + DETECT_SPANS + ("pgm.read_pgm",)

    def prepare(self, default_cfg: Path, work: Path, seed: int) -> Prepared:
        """Render the frames and keep the true positions, as `buildup` would
        sample them but with PER_FRAME consecutive electrons per exposure."""
        config = load_config(str(default_cfg), seed)
        full = simulate_beamline(config.layout(), config.beam(), 0.0, config.grid())
        keep = np.abs(full.x) <= 2.5 * config.fringe_period()
        values = full.values[keep]
        source = IntensityProfile(
            x0=float(full.x[keep][0]),
            dx=full.dx,
            values=values / (float(values.sum()) * full.dx),
            normalized=True,
        )
        n = self.N_FRAMES * self.PER_FRAME
        events = make_events(source, config.pattern_rate, config.height_band(), n, seed)
        frames_dir = work / "frames"
        frames_dir.mkdir()
        paths, truth = [], []
        for g in range(self.N_FRAMES):
            group = events[g * self.PER_FRAME : (g + 1) * self.PER_FRAME]
            end = (g + 1) * self.PER_FRAME
            t1 = events[end].t if end < n else group[-1].t + 1.0 / config.pattern_rate
            frame = render_frame(
                group,
                (group[0].t, t1),
                config.psf_sigma,
                config.background,
                seed,
                frame_index=g,
                width=config.frame_width,
                height=config.frame_height,
                pitch=config.frame_pitch,
                amplitude=config.amplitude,
            )
            path = frames_dir / f"frame_{g:04d}.pgm"
            write_pgm(path, frame.counts)
            paths.append(str(path))
            truth.append([_pixel(config, e.x, e.y) for e in group])
        argv = ["detect", "--config", str(default_cfg), "--seed", str(seed), *paths]
        return Prepared(argv=argv, items=self.N_FRAMES, config_path=default_cfg, truth=truth)

    def _blob_files(self, out: Path) -> list[Path]:
        return [out / f"frame_{g:04d}_blobs.csv" for g in range(self.N_FRAMES)]

    def check(self, out: Path, prep: Prepared) -> list[str]:
        return [f"{p.name} missing" for p in self._blob_files(out) if not p.is_file()]

    def score(self, out: Path, prep: Prepared) -> tuple[float, float]:
        found = [
            [(float(b["x_px"]), float(b["y_px"])) for b in _rows(p)]
            for p in self._blob_files(out)
        ]
        return _score(prep.truth, found)


WORKLOADS = {w.name: w for w in (Buildup(), Sweep(), DetectDense())}
