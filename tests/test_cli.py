"""Command-line interface: outputs, determinism, exit codes."""
import csv
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from doubleslit.cli import _row_templates, _write_profile, main
from doubleslit.pgm import read_pgm, write_pgm
from doubleslit.propagation import IntensityProfile, _kept

MINI_CONFIG = """\
sampler.n_events = 30
buildup.checkpoints = 2, 7, 30
run.seed = 7
"""


@pytest.fixture()
def mini_config(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI_CONFIG)
    return str(path)


def read_metrics(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split("=")
        out[key] = float(value)
    return out


def run(*argv):
    return main(list(argv))


def test_pattern_outputs(tmp_path, mini_config, capsys):
    out = tmp_path / "out"
    assert run("pattern", "--config", mini_config, "--out", str(out), "--image") == 0
    lines = (out / "pattern.csv").read_text().splitlines()
    assert lines[0] == "x_m,intensity"
    # The default grid keeps 38348 of its 65536 rows, |x| <= 75 mm, and
    # stdout counts the rows written.
    assert len(lines) == 1 + 38348
    assert capsys.readouterr().out == f"pattern: 38348 rows -> {out / 'pattern.csv'}\n"
    meta = (out / "pattern.meta").read_text()
    assert "beam.energy = 600 eV" in meta
    assert "pattern.published_half_width_m = 0.074999999999999997" in meta
    assert "derived.wavelength_m" in meta
    assert meta.count("assumed") >= 2
    image = read_pgm(out / "pattern.pgm")
    assert image.shape == (32, 416)
    assert image.max() == 65535


def test_pattern_mask_changes_profile(tmp_path, mini_config):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run("pattern", "--config", mini_config, "--out", str(a)) == 0
    assert run("pattern", "--config", mini_config, "--out", str(b),
               "--mask-center", "none") == 0
    masked = (a / "pattern.csv").read_bytes()
    free = (b / "pattern.csv").read_bytes()
    assert masked != free


def test_pattern_with_mask_outside_window(tmp_path, mini_config):
    # A mask clipped away entirely gives zeros on the detector grid, the
    # same x axis as an open mask, a kept flux of 0 and an all-zero image.
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run("pattern", "--config", mini_config, "--out", str(a)) == 0
    assert run("pattern", "--config", mini_config, "--out", str(b),
               "--mask-center", "40 um", "--image") == 0
    open_rows = [line.split(",") for line in (a / "pattern.csv").read_text().splitlines()]
    gone_rows = [line.split(",") for line in (b / "pattern.csv").read_text().splitlines()]
    assert [r[0] for r in gone_rows] == [r[0] for r in open_rows]
    assert {r[1] for r in gone_rows[1:]} == {"0"}
    assert "pattern.kept_flux = 0" in (b / "pattern.meta").read_text().splitlines()
    image = read_pgm(b / "pattern.pgm")
    assert image.shape == (32, 416)
    assert not image.any()


def reference_write_profile_csv(path, profile):
    """The original per-row writer, kept as the byte-level oracle."""
    x = profile.x
    with open(path, "w", newline="") as fh:
        fh.write("x_m,intensity\n")
        for i in range(profile.n):
            fh.write(f"{x[i]:.17g},{profile.values[i]:.17g}\n")


def reference_rows_within(path, half_width):
    """The header and the rows with |x| <= half_width of a per-row reference
    file, checked to be one contiguous block of its rows."""
    header, *rows = path.read_bytes().splitlines(keepends=True)
    kept = [i for i, row in enumerate(rows) if abs(float(row.split(b",")[0])) <= half_width]
    assert kept == list(range(kept[0], kept[-1] + 1))
    return header + b"".join(rows[i] for i in kept)


def kept_flux(profile, half_width):
    """The sum of a profile's values with |x| <= half_width, times dx."""
    return float(np.sum(profile.values[np.abs(profile.x) <= half_width]) * profile.dx)


EXTREME_VALUES = [0.0, -0.0, 5e-324, 1e-300, 1e300, 0.1, 2.6097334316950124e-07, 1.0, 7.0]


@pytest.mark.parametrize(
    "x0,dx",
    [(0.0, 5e-324), (-1e-300, 1e-300), (-1e300, 1e300), (-3.2e-5, 9.765625e-10),
     (-0.12817373803113344, 3.9116117504e-06)],
)
def test_profile_writer_matches_per_row_reference(tmp_path, x0, dx):
    profiles = [
        IntensityProfile(x0=x0, dx=dx, values=np.asarray(vals), normalized=False)
        for vals in (EXTREME_VALUES, EXTREME_VALUES[::-1],
                     np.random.default_rng(3).random(9) ** 9)
    ]
    kept, blocks = _row_templates(profiles[0], math.inf)
    for i, profile in enumerate(profiles):
        _write_profile(tmp_path / f"shared_{i}.csv", profile, kept, blocks)
        expected = tmp_path / f"ref_{i}.csv"
        reference_write_profile_csv(expected, profile)
        assert (tmp_path / f"shared_{i}.csv").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("mask_center", ["0", "none"])
def test_pattern_csv_matches_per_row_reference(tmp_path, mini_config, mask_center):
    # pattern.csv is the block of per-row reference rows inside the
    # published window, and pattern.kept_flux their sum times dx.
    from doubleslit.config import load_config
    from doubleslit.propagation import simulate_beamline

    out = tmp_path / "out"
    assert run("pattern", "--config", mini_config, "--out", str(out),
               "--mask-center", mask_center) == 0
    config = load_config(mini_config, None)
    half_width = config.published_half_width()
    center = None if mask_center == "none" else 0.0
    profile = simulate_beamline(config.layout(), config.beam(), center, config.grid())
    reference_write_profile_csv(tmp_path / "ref.csv", profile)
    expected = reference_rows_within(tmp_path / "ref.csv", half_width)
    assert (out / "pattern.csv").read_bytes() == expected
    meta = (out / "pattern.meta").read_text().splitlines()
    assert f"pattern.kept_flux = {kept_flux(profile, half_width):.17g}" in meta


def test_sweep_manifest(tmp_path, mini_config):
    out = tmp_path / "sweep"
    assert run("sweep", "--config", mini_config, "--out", str(out),
               "--from", "-2.8 um", "--to", "2.8 um", "--steps", "5") == 0
    lines = (out / "manifest.csv").read_text().splitlines()
    assert lines[0] == "index,center_m,fraction_slit1,fraction_slit2,label,file,kept_flux"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[4] for r in rows] == ["blocked", "both", "both", "both", "blocked"]
    f1 = [float(r[2]) for r in rows]
    f2 = [float(r[3]) for r in rows]
    # Reflecting the mask center swaps the slit roles.
    assert f1 == pytest.approx(f2[::-1], abs=1e-12)
    for row in rows:
        assert (out / row[5]).exists()
    assert "sweep.published_half_width_m = 0.074999999999999997" in (
        out / "sweep.meta"
    ).read_text()
    # The kept at-mask field and Fresnel factors end with the command, so
    # the next command in this process propagates afresh.
    assert not _kept


def test_sweep_rejects_degenerate_ranges(tmp_path, mini_config, capsys):
    out = tmp_path / "x"
    assert run("sweep", "--config", mini_config, "--out", str(out),
               "--from", "0", "--to", "1 um", "--steps", "1") == 2
    assert "steps" in capsys.readouterr().err
    assert run("sweep", "--config", mini_config, "--out", str(out),
               "--from", "1 um", "--to", "1 um", "--steps", "3") == 2


def test_sweep_rejects_descending_range(tmp_path, mini_config, capsys, monkeypatch):
    # Refused before any propagation, with both options named.
    import doubleslit.analysis

    monkeypatch.setattr(doubleslit.analysis, "simulate_beamline", no_propagation)
    out = tmp_path / "down"
    assert run("sweep", "--config", mini_config, "--out", str(out),
               "--from", "2.8 um", "--to", "-2.8 um", "--steps", "5") == 2
    err = capsys.readouterr().err
    assert "--from" in err and "--to" in err


SWEEP_ARGS = ("--from", "-2.8 um", "--to", "2.8 um", "--steps", "5")


@pytest.fixture(scope="module")
def sweep_reference(tmp_path_factory):
    """Per-row reference files of the 5-step mini-config sweep, every row of
    each profile, and its manifest with each profile's kept flux."""
    from doubleslit.analysis import run_sweep
    from doubleslit.config import load_config

    folder = tmp_path_factory.mktemp("config")
    (folder / "mini.cfg").write_text(MINI_CONFIG)
    config = load_config(str(folder / "mini.cfg"), None)
    half_width = config.published_half_width()
    centers = np.linspace(-2.8e-6, 2.8e-6, 5)
    entries = run_sweep(config.layout(), config.beam(), centers, config.grid())
    ref = tmp_path_factory.mktemp("sweep_ref")
    lines = ["index,center_m,fraction_slit1,fraction_slit2,label,file,kept_flux"]
    for i, entry in enumerate(entries):
        name = f"sweep_{i:03d}.csv"
        reference_write_profile_csv(ref / name, entry.profile)
        f1, f2 = entry.fractions
        flux = kept_flux(entry.profile, half_width)
        lines.append(
            f"{i},{entry.mask_center:.17g},{f1:.17g},{f2:.17g},{entry.label},{name},{flux:.17g}"
        )
    (ref / "manifest.csv").write_text("\n".join(lines) + "\n")
    return ref, half_width


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_sweep_files_match_reference_at_any_worker_count(
    tmp_path, mini_config, monkeypatch, sweep_reference, jobs
):
    # Each sweep file is the block of per-row reference rows inside the
    # published window; the manifest is the reference's, byte for byte.
    # The files do not depend on the CPUs the process may run on, and the
    # sweep leaves no child process behind.
    import doubleslit.workers

    monkeypatch.setattr(doubleslit.workers, "worker_count", lambda: jobs)
    ref, half_width = sweep_reference
    out = tmp_path / "sweep"
    assert run("sweep", "--config", mini_config, "--out", str(out), *SWEEP_ARGS) == 0
    names = sorted(p.name for p in ref.iterdir())
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["sweep.meta"])
    assert (out / "manifest.csv").read_bytes() == (ref / "manifest.csv").read_bytes()
    for name in names:
        if name != "manifest.csv":
            assert (out / name).read_bytes() == reference_rows_within(ref / name, half_width)
    assert multiprocessing.active_children() == []


def test_sweep_streams_one_center_per_pass(tmp_path, mini_config, monkeypatch):
    # The sweep runs every pass, one per entry drawn from run_sweep, in
    # center order, and holds no earlier profile or values when a pass
    # starts.
    import weakref

    import doubleslit.analysis

    real_pass = doubleslit.analysis.simulate_beamline
    seen, held = [], []

    def one_pass(layout, beam, center, grid):
        assert all(ref() is None for ref in held)
        profile = real_pass(layout, beam, center, grid)
        seen.append(center)
        held.extend([weakref.ref(profile), weakref.ref(profile.values)])
        return profile

    monkeypatch.setattr(doubleslit.analysis, "simulate_beamline", one_pass)
    assert run("sweep", "--config", mini_config, "--out", str(tmp_path), *SWEEP_ARGS) == 0
    assert seen == np.linspace(-2.8e-6, 2.8e-6, 5).tolist()


@pytest.mark.parametrize(
    "blocked,named",
    [
        (["sweep_004.csv"], "sweep_004.csv"),  # the last file
        (["sweep_000.csv"], "sweep_000.csv"),  # the first file
        (["sweep_000.csv", "sweep_004.csv"], "sweep_000.csv"),
        (["sweep_001.csv", "sweep_002.csv"], "sweep_001.csv"),
    ],
)
def test_sweep_write_error_names_the_earliest_file(
    tmp_path, mini_config, capsys, blocked, named
):
    # The files are written in order and the sweep stops at the first that
    # fails, so every earlier file is written and no later one.
    out = tmp_path / "sweep"
    for name in blocked:
        (out / name).mkdir(parents=True)
    assert run("sweep", "--config", mini_config, "--out", str(out), *SWEEP_ARGS) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
    assert [name for name in blocked if name in err] == [named]
    assert not (out / "manifest.csv").exists()
    assert sorted(p.name for p in out.glob("sweep_*.csv") if p.is_file()) == [
        f"sweep_{j:03d}.csv" for j in range(int(named[6:9]))
    ]


def test_sweep_refuses_steps_beyond_physical_memory(tmp_path, mini_config, capsys, monkeypatch):
    # A sweep holds one pass's fields, the x-column templates, one profile
    # and 40 bytes per center; refused before any allocation or
    # propagation, naming --steps.
    import doubleslit.cli
    import doubleslit.workers

    memory = doubleslit.workers.physical_memory()
    assert memory is None or memory > 0

    def no_sweep(*args, **kwargs):
        raise AssertionError("run_sweep called")

    monkeypatch.setattr(doubleslit.cli, "run_sweep", no_sweep)
    out = tmp_path / "nested" / "out"
    argv = ["sweep", "--config", mini_config, "--out", str(out), "--from", "0", "--to", "1 um"]
    assert run(*argv, "--steps", str(10**12)) == 2
    err = capsys.readouterr().err
    assert "--steps 1000000000000" in err and "Traceback" not in err
    assert not (tmp_path / "nested").exists()

    # The default grid has 65536 samples: 5 steps need exactly 5 x 40
    # bytes for the centers and, per sample, 9 x 16 bytes for a pass, 32
    # for the templates and 8 for the profile.
    need = 5 * 40 + (9 * 16 + 32 + 8) * 65536
    monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda: need - 1)
    assert run(*argv, "--steps", "5") == 2
    err = capsys.readouterr().err
    assert (f"error: --steps 5 needs 40 bytes per center, and for each of grid.n = 65536 "
            f"samples one pass of 9 complex128 fields, 32 bytes of row templates and one "
            f"float64 profile, {need} bytes, more than the {need - 1} bytes") in err
    assert not (tmp_path / "nested").exists()
    monkeypatch.undo()
    for memory in (need, None):
        monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda m=memory: m)
        assert run(*argv, "--steps", "5") == 0
        assert len(list(out.glob("sweep_*.csv"))) == 5


def test_sweep_checks_every_center_before_any_pass(tmp_path, capsys, monkeypatch):
    # In a 16 um window a mask's support may span 4 um.  The first center's
    # 5 um opening is clipped to 1.5 um by the window edge; the second
    # center's is whole.  Refused before --out exists and before any pass,
    # so no pass can meet a refusal after files exist.
    import doubleslit.analysis

    monkeypatch.setattr(doubleslit.analysis, "simulate_beamline", no_propagation)
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(MINI_CONFIG + "grid.window = 16 um\n")
    out = tmp_path / "nested" / "out"
    argv = ["sweep", "--config", str(cfg), "--out", str(out)]
    assert run(*argv, "--from", "-9 um", "--to", "0", "--steps", "3") == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "error: argument: --from, --to, --steps, mask.opening_width and grid.window: "
        "mask support 5.000e-06 m exceeds a quarter of the 1.600e-05 m grid window"
    )
    assert "Traceback" not in err
    assert not (tmp_path / "nested").exists()


def test_pattern_checks_the_clipped_mask_before_the_pass(tmp_path, capsys, monkeypatch):
    # In a 16 um window a 5 um opening at -4.5 um is whole, wider than the
    # quarter window a mask may span: refused naming the flag and the key,
    # before --out exists and before the pass.
    import doubleslit.cli

    monkeypatch.setattr(doubleslit.cli, "simulate_beamline", no_propagation)
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(MINI_CONFIG + "grid.window = 16 um\n")
    out = tmp_path / "nested" / "out"
    argv = ["pattern", "--config", str(cfg), "--out", str(out)]
    assert run(*argv, "--mask-center", "-4.5 um") == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "error: argument: --mask-center, mask.opening_width and grid.window: "
        "mask support 5.000e-06 m exceeds a quarter of the 1.600e-05 m grid window"
    )
    assert "Traceback" not in err
    assert not (tmp_path / "nested").exists()


def no_propagation(*args, **kwargs):
    raise AssertionError("propagation reached")


@pytest.mark.parametrize("command", ["pattern", "sweep", "buildup"])
def test_grid_beyond_physical_memory_is_refused(
    tmp_path, mini_config, capsys, monkeypatch, command
):
    # Every pass holds 9 complex128 fields of grid.n values at its peak; a
    # grid.n whose pass exceeds physical memory is refused before any
    # propagation, naming grid.n.
    import doubleslit.analysis
    import doubleslit.cli
    import doubleslit.propagation
    import doubleslit.workers

    machine_memory = doubleslit.workers.physical_memory
    for name in ("simulate_beamline", "field_at_mask"):
        monkeypatch.setattr(doubleslit.propagation, name, no_propagation)
    monkeypatch.setattr(doubleslit.cli, "simulate_beamline", no_propagation)
    monkeypatch.setattr(doubleslit.analysis, "simulate_beamline", no_propagation)
    # One detection thread: its frame's response stacks, 2.3 MB, fit in
    # one pass, so buildup's next check does not depend on the CPU count.
    monkeypatch.setattr(doubleslit.workers, "worker_count", lambda: 1)
    out = tmp_path / "nested" / "out"
    argv = [command, "--config", mini_config, "--out", str(out)]
    argv += SWEEP_ARGS if command == "sweep" else ()

    # The mini config keeps the default grid.n = 65536: one pass needs
    # exactly 9 x 16 x 65536 bytes.
    need = 9 * 16 * 65536
    monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda: need - 1)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert (f"error: grid.n = 65536 needs 9 fields of 65536 complex128 values for one pass, "
            f"{need} bytes, more than the {need - 1} bytes of physical memory") in err
    assert "Traceback" not in err
    assert not (tmp_path / "nested").exists()
    for memory in (need, None):
        monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda m=memory: m)
        if command == "sweep" and memory is not None:
            # A pass, the templates and a profile need more than a pass.
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert "grid.n = 65536 needs" not in err
            assert "--steps 5 needs" in err
            continue
        with pytest.raises(AssertionError, match="propagation reached"):
            run(*argv)
        if command == "sweep":
            # A sweep propagates as it writes, so --out exists by then, but
            # holds no file before the first pass.
            assert list(out.iterdir()) == []
            shutil.rmtree(tmp_path / "nested")

    # 2^50 samples need 16 PiB, more than any address space: refused with the
    # machine's own memory figure.
    monkeypatch.setattr(doubleslit.workers, "physical_memory", machine_memory)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(MINI_CONFIG + f"grid.n = {2**50}\n")
    argv[2] = str(cfg)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert (f"grid.n = {2**50} needs 9 fields of {2**50} complex128 values for one pass, "
            f"{9 * 2**54} bytes") in err
    assert "Traceback" not in err
    assert not (tmp_path / "nested").exists()


def test_buildup_refuses_frames_beyond_physical_memory(
    tmp_path, mini_config, capsys, monkeypatch
):
    # Each detection thread holds 2.25 float64 layers per scale of one frame
    # and 4 more: with 6 threads, the default 416 x 32 frame and its 11
    # scales need (2.25 x 11 + 4) x 8 x 416 x 32 x 6 bytes, refused before
    # any propagation.
    # That is more than one pass of the default grid, which is checked first.
    import doubleslit.propagation
    import doubleslit.workers

    monkeypatch.setattr(doubleslit.propagation, "simulate_beamline", no_propagation)
    monkeypatch.setattr(doubleslit.workers, "worker_count", lambda: 6)
    out = tmp_path / "nested" / "out"
    argv = ["buildup", "--config", mini_config, "--out", str(out)]
    need = (18 * 11 + 32) * 416 * 32 * 6
    monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda: need - 1)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert (f"error: frame.width = 416 and frame.height = 32 with the 11 scales of "
            f"blob.t_min, blob.t_max and blob.ratio need 2.25 x 11 + 4 frame layers of "
            f"float64 on each of 6 threads, {need} bytes, more than the {need - 1} bytes") in err
    assert "Traceback" not in err
    assert not (tmp_path / "nested").exists()
    for memory in (need, None):
        monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda m=memory: m)
        with pytest.raises(AssertionError, match="propagation reached"):
            run(*argv)


def test_buildup_refuses_events_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    # Each event takes one float64 draw from each of three streams, so
    # 10^15 events need at least 3 x 8 x 10^15 bytes: refused before any
    # propagation, and before any draw.
    import doubleslit.propagation
    import doubleslit.workers

    monkeypatch.setattr(doubleslit.propagation, "simulate_beamline", no_propagation)
    cfg = tmp_path / "many.cfg"
    cfg.write_text("sampler.n_events = 1e15\nrun.seed = 7\n")
    out = tmp_path / "nested" / "out"
    argv = ["buildup", "--config", str(cfg), "--out", str(out)]
    need = 3 * 8 * 10**15
    monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda: need - 1)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert (f"error: sampler.n_events = {10**15} needs 3 x {10**15} float64 draws, "
            f"{need} bytes, more than the {need - 1} bytes of physical memory") in err
    assert "Traceback" not in err
    assert not (tmp_path / "nested").exists()
    for memory in (need, None):
        monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda m=memory: m)
        with pytest.raises(AssertionError, match="propagation reached"):
            run(*argv)


def test_pattern_image_refuses_frame_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    # --image resamples the profile onto one float64 frame of width x height
    # values, refused before any propagation; without --image the frame
    # size is not read.
    import doubleslit.cli
    import doubleslit.workers

    monkeypatch.setattr(doubleslit.cli, "simulate_beamline", no_propagation)
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("frame.width = 1e7\nframe.height = 1e7\nrun.seed = 7\n")
    out = tmp_path / "nested" / "out"
    argv = ["pattern", "--config", str(cfg), "--out", str(out)]
    need = 8 * 10**14
    monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda: need - 1)
    assert run(*argv, "--image") == 2
    err = capsys.readouterr().err
    assert (f"error: --image with frame.width = {10**7} and frame.height = {10**7} needs "
            f"one frame of {10**7} x {10**7} float64 values, {need} bytes, more than the "
            f"{need - 1} bytes of physical memory") in err
    assert "Traceback" not in err
    assert not (tmp_path / "nested").exists()
    with pytest.raises(AssertionError, match="propagation reached"):
        run(*argv)
    for memory in (need, None):
        monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda m=memory: m)
        with pytest.raises(AssertionError, match="propagation reached"):
            run(*argv, "--image")


def test_buildup_outputs(tmp_path, mini_config):
    out = tmp_path / "run"
    assert run("buildup", "--config", mini_config, "--out", str(out)) == 0
    events = (out / "events.csv").read_text().splitlines()
    assert events[0] == "index,t_s,x_m,y_m"
    assert len(events) == 1 + 30
    assert (out / "blobs.csv").exists()
    for count in (2, 7, 30):
        assert (out / f"buildup_{count:06d}.pgm").exists()
    assert (out / "buildup_final.pgm").exists()
    metrics = read_metrics(out / "metrics.txt")
    assert metrics["n_events"] == 30
    # Isolated events at this rate: detection should recover nearly all.
    assert abs(metrics["n_blobs"] - 30) <= 2
    assert "buildup.sampling_half_width_m" in (out / "buildup.meta").read_text()


def fresh_python(*argv):
    """Run `python *argv` in a new interpreter on this source tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300
    )


def test_cli_import_and_config_load_leave_scipy_unimported(mini_config):
    done = fresh_python(
        "-c",
        "import sys; from doubleslit import cli, config; "
        "config.load_config(sys.argv[1], 7); print(sorted(m for m in sys.modules if "
        "m.split('.')[0] == 'scipy'))",
        mini_config,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [["pattern", "--image"], ["sweep", "--from", "-2.8 um", "--to", "2.8 um", "--steps", "3"]],
    ids=["pattern", "sweep"],
)
def test_pattern_and_sweep_run_where_scipy_cannot_be_imported(tmp_path, mini_config, argv):
    # A None entry in sys.modules makes `import scipy` raise ImportError.
    out = tmp_path / "out"
    done = fresh_python(
        "-c",
        "import sys; sys.modules['scipy'] = None; from doubleslit.cli import main; "
        "sys.exit(main(sys.argv[1:]))",
        *argv, "--config", mini_config, "--out", str(out),
    )
    assert done.returncode == 0, done.stderr
    assert (out / ("pattern.pgm" if argv[0] == "pattern" else "manifest.csv")).is_file()


def test_buildup_imports_scipy_when_it_first_detects(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sampler.n_events = 5\nbuildup.checkpoints = 5\nrun.seed = 7\n")
    out = tmp_path / "out"
    done = fresh_python("-m", "doubleslit", "buildup", "--config", str(cfg), "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert read_metrics(out / "metrics.txt")["n_blobs"] == 5


def test_buildup_checkpoint_override(tmp_path):
    cfg = tmp_path / "ck.cfg"
    cfg.write_text(MINI_CONFIG.replace("2, 7, 30", "5,30"))
    out = tmp_path / "ck"
    assert run("buildup", "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "buildup_000005.pgm").exists()
    assert not (out / "buildup_000002.pgm").exists()


def test_buildup_rerun_is_byte_identical(tmp_path, mini_config):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run("buildup", "--config", mini_config, "--out", str(a)) == 0
    assert run("buildup", "--config", mini_config, "--out", str(b)) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seed_flag_overrides_config(tmp_path, mini_config):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run("buildup", "--config", mini_config, "--out", str(a), "--seed", "8") == 0
    assert run("buildup", "--config", mini_config, "--out", str(b)) == 0
    assert (a / "events.csv").read_bytes() != (b / "events.csv").read_bytes()
    # A config without run.seed works once the flag supplies one.
    bare = tmp_path / "bare.cfg"
    bare.write_text("sampler.n_events = 5\n")
    assert run("pattern", "--config", str(bare), "--out", str(tmp_path / "c"),
               "--seed", "3") == 0


def test_every_text_output_has_one_format(tmp_path, mini_config):
    # Every table is a header row and comma-separated rows as wide as it,
    # and no text output ends a line with CRLF.
    out = tmp_path / "all"
    assert run("pattern", "--config", mini_config, "--out", str(out / "p"), "--image") == 0
    assert run("sweep", "--config", mini_config, "--out", str(out / "s"),
               "--from", "-2.8 um", "--to", "2.8 um", "--steps", "3") == 0
    assert run("buildup", "--config", mini_config, "--out", str(out / "b")) == 0
    assert run("detect", "--config", mini_config, "--out", str(out / "d"),
               str(out / "b" / "buildup_final.pgm")) == 0
    texts = sorted(p for p in out.rglob("*") if p.suffix in (".csv", ".txt", ".meta"))
    assert {p.name for p in texts} >= {"pattern.csv", "manifest.csv", "events.csv",
                                       "blobs.csv", "buildup_final_blobs.csv", "metrics.txt"}
    assert [p.name for p in texts if b"\r" in p.read_bytes()] == []
    for path in texts:
        if path.suffix == ".csv":
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows and {len(row) for row in rows} == {len(header)}, path.name


def spot_image(shape, spots):
    y, x = np.mgrid[0 : shape[0], 0 : shape[1]]
    img = np.zeros(shape)
    for cx, cy, sigma in spots:
        img += 1000.0 * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma**2))
    return np.rint(img).astype(np.uint16)


def test_detect_on_frame_files(tmp_path, mini_config, capsys):
    f1 = tmp_path / "one.pgm"
    f2 = tmp_path / "two.pgm"
    write_pgm(f1, spot_image((64, 64), [(20, 30, 3.0), (45, 20, 2.5)]))
    write_pgm(f2, spot_image((64, 64), [(32, 32, 3.0)]))
    out = tmp_path / "det"
    assert run("detect", "--config", mini_config, "--out", str(out),
               str(f1), str(f2)) == 0
    stdout = capsys.readouterr().out
    assert "total: 3 blobs in 2 frames" in stdout
    one = (out / "one_blobs.csv").read_text().splitlines()
    assert one[0] == "frame,t_s,x_px,y_px,scale_t,response"
    assert len(one) == 3
    assert len((out / "two_blobs.csv").read_text().splitlines()) == 2


def test_detect_bad_frame_exits_3(tmp_path, mini_config, capsys):
    good = tmp_path / "ok.pgm"
    write_pgm(good, spot_image((32, 32), [(16, 16, 3.0)]))
    bad = tmp_path / "short.pgm"
    bad.write_bytes(good.read_bytes()[:-100])
    assert run("detect", "--config", mini_config, str(bad)) == 3
    assert "short.pgm" in capsys.readouterr().err


def test_detect_refuses_header_numbers_that_are_not_digits(tmp_path, mini_config, capsys):
    # int() alone would read this header as a 1x20 frame.
    frame = tmp_path / "signs.pgm"
    frame.write_bytes(b"P5\n2_0 +1\n65_535\n" + bytes(40))
    out = tmp_path / "det"
    assert run("detect", "--config", mini_config, "--out", str(out), str(frame)) == 3
    err = capsys.readouterr().err
    assert "signs.pgm: malformed header" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_detect_rejects_trailing_bytes(tmp_path, mini_config, capsys):
    frame = tmp_path / "long.pgm"
    write_pgm(frame, spot_image((32, 32), [(16, 16, 3.0)]))
    frame.write_bytes(frame.read_bytes() + b"\0\0")
    out = tmp_path / "det"
    assert run("detect", "--config", mini_config, "--out", str(out), str(frame)) == 3
    err = capsys.readouterr().err
    assert "long.pgm" in err and "2 bytes after" in err
    assert not out.exists()


def test_detect_refuses_colliding_output_names(tmp_path, mini_config, capsys, monkeypatch):
    # a/f.pgm and b/f.pgm would both write f_blobs.csv; refuse before reading.
    import doubleslit.buildup

    def no_read(path):
        raise AssertionError("read_pgm called")

    monkeypatch.setattr(doubleslit.buildup.pgm, "read_pgm", no_read)
    paths = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        paths.append(tmp_path / folder / "f.pgm")
        write_pgm(paths[-1], spot_image((32, 32), [(16, 16, 3.0)]))
    out = tmp_path / "det"
    assert run("detect", "--config", mini_config, "--out", str(out),
               str(paths[0]), str(tmp_path / "c.pgm"), str(paths[1])) == 2
    err = capsys.readouterr().err
    assert str(paths[0]) in err and str(paths[1]) in err
    assert "f_blobs.csv" in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_detect_bad_later_frame_writes_nothing(tmp_path, mini_config, capsys, monkeypatch, jobs):
    import doubleslit.workers

    monkeypatch.setattr(doubleslit.workers, "worker_count", lambda: jobs)
    good = tmp_path / "good.pgm"
    write_pgm(good, spot_image((32, 32), [(16, 16, 3.0)]))
    out = tmp_path / "nested" / "out"
    assert run("detect", "--config", mini_config, "--out", str(out),
               str(good), str(tmp_path / "missing.pgm")) == 3
    assert "missing.pgm" in capsys.readouterr().err
    assert not (tmp_path / "nested").exists()


def test_detect_reports_first_bad_frame_in_input_order(tmp_path, mini_config, capsys, monkeypatch):
    # At 2 workers the second range starts on its bad file while the calling
    # thread still detects two good frames before reaching its own.
    import doubleslit.workers

    monkeypatch.setattr(doubleslit.workers, "worker_count", lambda: 2)
    image = spot_image((32, 32), [(16, 16, 3.0)])
    names = ["g0", "g1", "early", "late", "g4", "g5"]
    for name in names:
        write_pgm(tmp_path / f"{name}.pgm", image)
    for name in ("early", "late"):
        path = tmp_path / f"{name}.pgm"
        path.write_bytes(path.read_bytes()[:-100])
    out = tmp_path / "det"
    argv = [str(tmp_path / f"{name}.pgm") for name in names]
    assert run("detect", "--config", mini_config, "--out", str(out), *argv) == 3
    err = capsys.readouterr().err
    assert "early.pgm" in err
    assert "late.pgm" not in err
    assert not out.exists()


def test_detect_refuses_frames_beyond_physical_memory(tmp_path, mini_config, capsys, monkeypatch):
    # detect reads each frame's size from its file: with 3 threads, a 40 x 24
    # frame and the default 11 scales need (2.25 x 11 + 4) x 8 x 40 x 24 x 3
    # bytes, refused after the read and before any response stack is built.
    import doubleslit.buildup
    import doubleslit.workers

    def no_detection(*args, **kwargs):
        raise AssertionError("detect_blobs called")

    monkeypatch.setattr(doubleslit.buildup.blobdetect, "detect_blobs", no_detection)
    monkeypatch.setattr(doubleslit.workers, "worker_count", lambda: 3)
    frame = tmp_path / "wide.pgm"
    write_pgm(frame, np.zeros((24, 40), dtype=np.uint16))
    out = tmp_path / "nested" / "out"
    argv = ["detect", "--config", mini_config, "--out", str(out), str(frame)]
    need = (18 * 11 + 32) * 40 * 24 * 3
    monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda: need - 1)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert (f"error: {frame}: 40x24 frames with the 11 scales of blob.t_min, blob.t_max "
            f"and blob.ratio need 2.25 x 11 + 4 frame layers of float64 on each of 3 threads, "
            f"{need} bytes, more than the {need - 1} bytes of physical memory") in err
    assert "Traceback" not in err
    assert not (tmp_path / "nested").exists()
    for memory in (need, None):
        monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda m=memory: m)
        with pytest.raises(AssertionError, match="detect_blobs called"):
            run(*argv)


def test_missing_files_argument_is_usage_error(mini_config):
    with pytest.raises(SystemExit) as info:
        run("detect", "--config", mini_config)
    assert info.value.code == 2


def test_buildup_rejects_zero_events(tmp_path, capsys, monkeypatch):
    # sampler.n_events = 0 is a valid config (pattern and sweep ignore it),
    # but buildup refuses it by name before any propagation.
    import doubleslit.buildup

    def no_beamline(*args, **kwargs):
        raise AssertionError("simulate_beamline called")

    monkeypatch.setattr(doubleslit.buildup.propagation, "simulate_beamline", no_beamline)
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("sampler.n_events = 0\nrun.seed = 7\n")
    out = tmp_path / "run"
    assert run("buildup", "--config", str(cfg), "--out", str(out)) == 2
    assert "sampler.n_events" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line,key",
    [
        # numpy's Poisson draw refuses a mean this large with a ValueError.
        ("sampler.background = 1e19", "sampler.background"),
        ("sampler.background = 65535.000000001", "sampler.background"),
        # render_frame squares the PSF width, which overflows.
        ("sampler.psf_sigma = 1e200", "sampler.psf_sigma"),
        ("sampler.psf_sigma = 1.3407807929942597e154", "sampler.psf_sigma"),
    ],
)
def test_buildup_refuses_frames_it_cannot_render(tmp_path, capsys, monkeypatch, line, key):
    # Refused by key before any propagation, and before --out is made.
    import doubleslit.buildup

    monkeypatch.setattr(doubleslit.buildup.propagation, "simulate_beamline", no_propagation)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"sampler.n_events = 5\n{line}\nrun.seed = 7\n")
    out = tmp_path / "nested" / "out"
    assert run("buildup", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "nested").exists()


@pytest.mark.parametrize("command", ["buildup", "detect"])
def test_short_scale_ladder_is_refused_by_key(tmp_path, capsys, monkeypatch, command):
    # blob.t_min = 30 with the default blob.t_max = 30 leaves one scale; a
    # t_max whose slack overflows to inf, or a ratio this close to 1, would
    # need an endless or ~10^9-rung ladder.  Each config is refused before
    # any propagation or frame read, naming the keys.
    import doubleslit.buildup

    def no_beamline(*args, **kwargs):
        raise AssertionError("simulate_beamline called")

    def no_read(*args, **kwargs):
        raise AssertionError("read_pgm called")

    monkeypatch.setattr(doubleslit.buildup.propagation, "simulate_beamline", no_beamline)
    monkeypatch.setattr(doubleslit.buildup.pgm, "read_pgm", no_read)
    frame = tmp_path / "f.pgm"
    write_pgm(frame, np.zeros((8, 8), dtype=np.uint16))
    for line, reason in (
        ("blob.t_min = 30", "fewer than 3 scales"),
        ("blob.t_max = 1.7976931348623157e308", "more than MAX_SCALES"),
        ("blob.ratio = 1.000000001", "more than MAX_SCALES"),
    ):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(f"sampler.n_events = 5\n{line}\nrun.seed = 7\n")
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "run")]
        assert run(*argv, *([str(frame)] if command == "detect" else [])) == 2, line
        err = capsys.readouterr().err
        for key in ("blob.t_min", "blob.t_max", "blob.ratio"):
            assert key in err, line
        assert reason in err, line
        assert not (tmp_path / "run").exists(), line


def test_negative_seed_flag_is_blamed_on_the_flag(tmp_path, mini_config, capsys):
    out = tmp_path / "run"
    assert run("pattern", "--config", mini_config, "--out", str(out), "--seed", "-1") == 2
    err = capsys.readouterr().err
    assert "--seed must be nonnegative, got -1" in err
    assert mini_config not in err
    assert not out.exists()


def test_seed_flag_reads_like_the_seed_key(tmp_path, mini_config):
    key = tmp_path / "key.cfg"
    key.write_text(MINI_CONFIG.replace("run.seed = 7", "run.seed = 1e3"))
    flag, by_key = tmp_path / "flag", tmp_path / "by_key"
    assert run("buildup", "--config", mini_config, "--seed", "1e3", "--out", str(flag)) == 0
    assert run("buildup", "--config", str(key), "--out", str(by_key)) == 0
    names = sorted(p.name for p in flag.iterdir())
    assert names == sorted(p.name for p in by_key.iterdir())
    for name in names:
        assert (flag / name).read_bytes() == (by_key / name).read_bytes(), name
    assert "run.seed = 1000\n" in (flag / "buildup.meta").read_text()


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="int() reads digits of any length on this interpreter",
)
def test_overlong_seed_flag_is_named_by_its_length(tmp_path, mini_config, capsys):
    digits = sys.get_int_max_str_digits() + 1
    out = tmp_path / "run"
    assert run("pattern", "--config", mini_config, "--out", str(out), "--seed", "9" * digits) == 2
    err = capsys.readouterr().err
    assert f"cannot parse number of {digits} digits for --seed" in err
    assert len(err.encode()) < 200
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--seed", "9" * 400 + ".0", "must be finite, got <402 characters>"),
        ("--seed", "1" + "." * 400, "cannot parse number <401 characters>"),
        ("--seed", "x" * 400, "cannot parse value <400 characters>"),
        ("--seed", "1" + "z" * 400, "takes a bare number, got unit <400 characters>"),
        ("--mask-center", "1 " + "q" * 400, "unit <400 characters> not valid"),
    ],
)
def test_overlong_number_flag_is_named_by_its_length(
    tmp_path, mini_config, capsys, flag, value, message
):
    out = tmp_path / "run"
    assert run("pattern", "--config", mini_config, "--out", str(out), flag, value) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert message in err
    assert len(err.encode()) < 200
    assert not out.exists()


@pytest.mark.parametrize(
    "config,argv",
    [
        ("slits.width = -50 nm", ["pattern"]),
        ("grid.n = 4096", ["pattern"]),  # the Nyquist guard
        ("", ["pattern", "--mask-center", "1e999 um"]),
        ("", ["sweep", "--from", "0", "--to", "1 um", "--steps", "1"]),
        ("", ["sweep", "--from", "2.8 um", "--to", "-2.8 um", "--steps", "5"]),
        ("blob.t_min = 30", ["buildup"]),  # fewer than 3 blob scales
        ("sampler.n_events = 0", ["buildup"]),
        ("", ["detect", "missing.pgm"]),
        ("", ["pattern", "--mask-center", "1e300 m"]),  # no room for the opening
        ("", ["sweep", "--from", "1e300 m", "--to", "2e300 m", "--steps", "2"]),
        ("", ["sweep", "--from", "1 m", "--to", "1.0000000000000002 m", "--steps", "3"]),
        # int() reads these as 70; the config's integer grammar refuses them.
        ("", ["pattern", "--seed", "7_0"]),
        ("", ["sweep", "--from", "0", "--to", "1 um", "--steps", "7_0"]),
        ("", ["pattern", "--seed", "\u0667\u0660"]),
        # The Nyquist guard of a sweep, checked before any of its passes.
        ("grid.n = 4096", ["sweep", "--from", "0", "--to", "1 um", "--steps", "3"]),
        # The double slit's support guard: 330 nm is more than a quarter of 0.5 um.
        ("grid.window = 0.5 um", ["buildup"]),
    ],
)
def test_failed_run_leaves_no_output_directory(tmp_path, capsys, config, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\nrun.seed = 7\n")
    out = tmp_path / "nested" / "out"
    assert run(*argv, "--config", str(cfg), "--out", str(out)) in (2, 3)
    assert not (tmp_path / "nested").exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if config:
        # A refusal of the config names the key it refuses.
        assert config.split(" = ")[0] in err, err
    elif argv[0] != "detect":
        # A refusal of the command line names the flag it refuses.
        assert any(flag in err for flag in argv[1::2]), err


# Values at and beyond every bound a config key has: zeros and signs,
# subnormals, overflow of products, the threshold word and integer lists.
EDGE_VALUES = ["0", "-0", "-1", "5e-324", "1e-300", "1e-30", "0.5", "1", "2,1", "1,2",
               "1e15", "1e300", "1e308", "1.7976931348623157e308", "auto", "nan"]
EDGE_COMMANDS = [["pattern"], ["sweep", "--from=-2.8um", "--to", "2.8um", "--steps", "3"],
                 ["buildup"]]


class PassReached(Exception):
    """Raised in place of a beamline pass: the run passed every refusal."""


def test_every_key_at_its_bounds_reaches_the_pass_or_is_refused_by_key(
    tmp_path, capsys, monkeypatch
):
    # For every key and edge value, pattern, sweep and buildup either reach
    # the beamline pass or exit 2 naming the key, before --out exists; any
    # other exception fails the test as a traceback would.
    # Physical memory and the thread count are fixed so that the memory
    # refusals do not depend on the machine.
    from dataclasses import fields

    import doubleslit.analysis
    import doubleslit.cli
    import doubleslit.propagation
    import doubleslit.workers
    from doubleslit.config import RunConfig

    def no_pass(*args, **kwargs):
        raise PassReached

    for module in (doubleslit.propagation, doubleslit.cli, doubleslit.analysis):
        monkeypatch.setattr(module, "simulate_beamline", no_pass)
    monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda: 2**33)
    monkeypatch.setattr(doubleslit.workers, "worker_count", lambda: 1)
    cfg = tmp_path / "edge.cfg"
    out = tmp_path / "nested" / "out"
    reached = {argv[0]: 0 for argv in EDGE_COMMANDS}
    for key in [f.metadata["key"] for f in fields(RunConfig)]:
        for value in EDGE_VALUES:
            seed = "" if key == "run.seed" else "run.seed = 1\n"
            cfg.write_text(f"{seed}{key} = {value}\n")
            for argv in EDGE_COMMANDS:
                case = f"{key} = {value}: {argv[0]}"
                try:
                    code = run(*argv, "--config", str(cfg), "--out", str(out))
                except PassReached:
                    reached[argv[0]] += 1
                    # A sweep makes --out before its first pass.
                    shutil.rmtree(tmp_path / "nested", ignore_errors=True)
                    continue
                err = capsys.readouterr().err
                assert code == 2 and key in err, (case, err)
                assert not (tmp_path / "nested").exists(), case
    # Not a property met by refusing everything: each command reaches its
    # pass in over a quarter of the cases (about 120 of 400).
    assert min(reached.values()) > len(EDGE_VALUES) * len(fields(RunConfig)) // 4, reached


@pytest.mark.parametrize("distance,kept_flux", [("5e-324 m", 0.99705), ("1e308 m", 0.99995)])
def test_extreme_mask_distance_runs_without_warning(tmp_path, distance, kept_flux):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mask.distance = {distance}\nrun.seed = 7\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("pattern", "--config", str(cfg), "--out", str(out)) == 0
    meta = (out / "pattern.meta").read_text()
    flux = float(meta.split("pattern.kept_flux = ")[1].splitlines()[0])
    assert flux == pytest.approx(kept_flux, abs=1e-5)


def test_sweep_publishes_rounding_noise_as_noise(tmp_path):
    # At mask.distance = 5e-324 m the blocked stations pass only rounding
    # noise.  Their profiles stay unnormalized, so kept_flux reads at most
    # eps times the flux at the mask, not the density of a unit integral.
    from doubleslit.config import load_config
    from doubleslit.propagation import field_at_mask

    cfg = tmp_path / "run.cfg"
    cfg.write_text("mask.distance = 5e-324 m\nrun.seed = 7\n")
    out = tmp_path / "out"
    argv = ["--from", "-2.8 um", "--to", "2.8 um", "--steps", "3"]
    assert run("sweep", "--config", str(cfg), "--out", str(out), *argv) == 0
    with open(out / "manifest.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["label"] for row in rows] == ["blocked", "both", "blocked"]
    config = load_config(str(cfg))
    at_mask = field_at_mask(config.layout(), config.beam(), config.grid()).power()
    floor = np.finfo(np.float64).eps * at_mask
    assert 0 < float(rows[0]["kept_flux"]) <= floor
    assert 0 < float(rows[2]["kept_flux"]) <= floor
    assert float(rows[1]["kept_flux"]) == pytest.approx(0.99705, abs=1e-5)


def test_energy_with_no_published_row_is_refused_by_name(tmp_path, capsys):
    # Below about 4.1e-7 eV at the default 64 um window, the detector rows
    # nearest the axis lie beyond DEFAULT_MAX_ANGLE: no row would be written.
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    cfg.write_text("beam.energy = 3e-7 eV\nrun.seed = 7\n")
    sweep = ["sweep", "--from=-1um", "--to", "1um", "--steps", "2"]
    for argv in (["pattern"], sweep, ["buildup"]):
        assert run(*argv, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "beam.energy" in err and "grid.window" in err, err
        assert "no detector row is published" in err, err
        assert not out.exists()
    cfg.write_text("beam.energy = 5e-7 eV\nrun.seed = 7\n")
    assert run("pattern", "--config", str(cfg), "--out", str(out)) == 0
    assert len((out / "pattern.csv").read_text().splitlines()) == 1 + 2


def test_output_directory_comes_from_out_alone(tmp_path, capsys, monkeypatch):
    # --out is the one way to name the output directory: the config key it
    # replaced is unknown, and a run without --out writes to out/.
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output.directory = elsewhere\nrun.seed = 7\n")
    assert run("pattern", "--config", str(cfg)) == 2
    assert "unknown key 'output.directory'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]
    cfg.write_text("run.seed = 7\n")
    assert run("pattern", "--config", str(cfg)) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["pattern.csv", "pattern.meta"]
    assert "output.directory" not in (tmp_path / "out" / "pattern.meta").read_text()


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("slits.width = -50 nm\nrun.seed = 1\n")
    assert run("pattern", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "slits.width" in capsys.readouterr().err
    cfg.write_text("slits.width = 50 nm\n")
    assert run("pattern", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "run.seed" in capsys.readouterr().err


@pytest.mark.parametrize("marks", ["0,5", "7,2"])
def test_buildup_rejects_bad_checkpoint_override(tmp_path, capsys, marks):
    cfg = tmp_path / "ck.cfg"
    cfg.write_text(MINI_CONFIG.replace("2, 7, 30", marks))
    out = tmp_path / "ck"
    assert run("buildup", "--config", str(cfg), "--out", str(out)) == 2
    assert "buildup.checkpoints" in capsys.readouterr().err
    assert not (out / "events.csv").exists()


@pytest.mark.parametrize("key", ["grid.n", "run.seed", "sampler.n_events",
                                 "grid.window", "blob.threshold"])
def test_overflowing_config_value_exits_2(tmp_path, capsys, key):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"{key} = 1e999\n" + ("" if key == "run.seed" else "run.seed = 1\n"))
    assert run("pattern", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert f"{key} must be finite" in err
    assert "Traceback" not in err
