"""Command-line interface: outputs, determinism, exit codes."""
import multiprocessing
import os
import signal

import numpy as np
import pytest

from doubleslit.cli import _write_profile_csv, _x_column, main
from doubleslit.errors import DomainError
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


def test_pattern_outputs(tmp_path, mini_config):
    out = tmp_path / "out"
    assert run("pattern", "--config", mini_config, "--out", str(out), "--image") == 0
    lines = (out / "pattern.csv").read_text().splitlines()
    assert lines[0] == "x_m,intensity"
    assert len(lines) == 1 + 65536
    meta = (out / "pattern.meta").read_text()
    assert "beam.energy = 600 eV" in meta
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
    # same x axis as an open mask.
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run("pattern", "--config", mini_config, "--out", str(a)) == 0
    assert run("pattern", "--config", mini_config, "--out", str(b),
               "--mask-center", "40 um") == 0
    open_rows = [line.split(",") for line in (a / "pattern.csv").read_text().splitlines()]
    gone_rows = [line.split(",") for line in (b / "pattern.csv").read_text().splitlines()]
    assert [r[0] for r in gone_rows] == [r[0] for r in open_rows]
    assert {r[1] for r in gone_rows[1:]} == {"0"}


def reference_write_profile_csv(path, profile):
    """The original per-row writer, kept as the byte-level oracle."""
    x = profile.x
    with open(path, "w", newline="") as fh:
        fh.write("x_m,intensity\n")
        for i in range(profile.n):
            fh.write(f"{x[i]:.17g},{profile.values[i]:.17g}\n")


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
    xs = _x_column(profiles[0])
    for i, profile in enumerate(profiles):
        expected = tmp_path / f"ref_{i}.csv"
        reference_write_profile_csv(expected, profile)
        single = tmp_path / f"single_{i}.csv"
        _write_profile_csv(single, profile)
        shared = tmp_path / f"shared_{i}.csv"
        _write_profile_csv(shared, profile, xs)
        assert single.read_bytes() == expected.read_bytes()
        assert shared.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("column_n,values_n", [(4, 8), (8, 4), (0, 1), (4097, 4096)])
def test_profile_writer_refuses_a_column_of_another_length(tmp_path, column_n, values_n):
    # A shared column of another grid would silently drop or misplace rows.
    column = IntensityProfile(x0=0.0, dx=1.0, values=np.ones(column_n), normalized=False)
    profile = IntensityProfile(x0=0.0, dx=1.0, values=np.ones(values_n), normalized=False)
    path = tmp_path / "p.csv"
    with pytest.raises(DomainError, match=f"x column of {column_n} rows for a profile "
                                          f"of {values_n} values"):
        _write_profile_csv(path, profile, _x_column(column))
    assert not path.exists()


def test_sweep_manifest(tmp_path, mini_config):
    out = tmp_path / "sweep"
    assert run("sweep", "--config", mini_config, "--out", str(out),
               "--from", "-2.8 um", "--to", "2.8 um", "--steps", "5") == 0
    lines = (out / "manifest.csv").read_text().splitlines()
    assert lines[0] == "index,center_m,fraction_slit1,fraction_slit2,label,file"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[4] for r in rows] == ["blocked", "both", "both", "both", "blocked"]
    f1 = [float(r[2]) for r in rows]
    f2 = [float(r[3]) for r in rows]
    # Reflecting the mask center swaps the slit roles.
    assert f1 == pytest.approx(f2[::-1], abs=1e-12)
    for row in rows:
        assert (out / row[5]).exists()
    assert (out / "sweep.meta").exists()
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
    import doubleslit.cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("run_sweep called")

    monkeypatch.setattr(doubleslit.cli, "run_sweep", no_sweep)
    out = tmp_path / "down"
    assert run("sweep", "--config", mini_config, "--out", str(out),
               "--from", "2.8 um", "--to", "-2.8 um", "--steps", "5") == 2
    err = capsys.readouterr().err
    assert "--from" in err and "--to" in err


SWEEP_ARGS = ("--from", "-2.8 um", "--to", "2.8 um", "--steps", "5")


@pytest.fixture(scope="module")
def sweep_reference(tmp_path_factory):
    """Per-row reference files of the 5-step mini-config sweep."""
    from doubleslit.analysis import run_sweep
    from doubleslit.config import load_config

    folder = tmp_path_factory.mktemp("config")
    (folder / "mini.cfg").write_text(MINI_CONFIG)
    config = load_config(str(folder / "mini.cfg"), None)
    centers = np.linspace(-2.8e-6, 2.8e-6, 5)
    result = run_sweep(config.layout(), config.beam(), centers, config.grid())
    ref = tmp_path_factory.mktemp("sweep_ref")
    lines = ["index,center_m,fraction_slit1,fraction_slit2,label,file"]
    for i, entry in enumerate(result.entries):
        name = f"sweep_{i:03d}.csv"
        reference_write_profile_csv(ref / name, entry.profile)
        f1, f2 = entry.fractions
        lines.append(f"{i},{entry.mask_center:.17g},{f1:.17g},{f2:.17g},{entry.label},{name}")
    (ref / "manifest.csv").write_text("\n".join(lines) + "\n")
    return ref


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_sweep_files_match_reference_at_any_worker_count(
    tmp_path, mini_config, monkeypatch, sweep_reference, jobs
):
    # More than one worker writes through forked children, even on one CPU.
    import doubleslit.workers

    monkeypatch.setattr(doubleslit.workers, "worker_count", lambda: jobs)
    out = tmp_path / "sweep"
    assert run("sweep", "--config", mini_config, "--out", str(out), *SWEEP_ARGS) == 0
    names = sorted(p.name for p in sweep_reference.iterdir())
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["sweep.meta"])
    for name in names:
        assert (out / name).read_bytes() == (sweep_reference / name).read_bytes(), name
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "blocked,named",
    [
        (["sweep_004.csv"], "sweep_004.csv"),  # in the child's range
        (["sweep_000.csv"], "sweep_000.csv"),  # in the parent's range
        (["sweep_000.csv", "sweep_004.csv"], "sweep_000.csv"),
    ],
)
def test_sweep_write_error_names_the_earliest_file(
    tmp_path, mini_config, capsys, monkeypatch, blocked, named
):
    # At 2 workers the parent writes sweep_000..001 and one child 002..004.
    import doubleslit.workers

    monkeypatch.setattr(doubleslit.workers, "worker_count", lambda: 2)
    out = tmp_path / "sweep"
    for name in blocked:
        (out / name).mkdir(parents=True)
    assert run("sweep", "--config", mini_config, "--out", str(out), *SWEEP_ARGS) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
    assert [name for name in blocked if name in err] == [named]
    assert not (out / "manifest.csv").exists()
    assert multiprocessing.active_children() == []


def test_sweep_writer_killed_by_a_signal_is_named(tmp_path, mini_config, capsys, monkeypatch):
    import doubleslit.workers
    import doubleslit.cli

    monkeypatch.setattr(doubleslit.workers, "worker_count", lambda: 2)
    parent = os.getpid()
    write = doubleslit.cli._write_profile_csv

    def dying_write(path, profile, xs=None):
        if os.getpid() != parent and path.name == "sweep_003.csv":
            os.kill(os.getpid(), signal.SIGKILL)
        write(path, profile, xs)

    monkeypatch.setattr(doubleslit.cli, "_write_profile_csv", dying_write)
    out = tmp_path / "sweep"
    assert run("sweep", "--config", mini_config, "--out", str(out), *SWEEP_ARGS) == 3
    err = capsys.readouterr().err
    assert "sweep_002.csv to sweep_004.csv was killed by signal 9" in err
    assert "Traceback" not in err
    assert (out / "sweep_001.csv").exists() and not (out / "manifest.csv").exists()
    assert multiprocessing.active_children() == []


def test_sweep_refuses_steps_beyond_physical_memory(tmp_path, mini_config, capsys, monkeypatch):
    # A sweep holds steps x grid.n float64 values; refused before any
    # allocation or propagation, naming --steps.
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

    # The default grid has 65536 samples: 5 steps need exactly 5 x 65536 x 8 bytes.
    need = 5 * 65536 * 8
    monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda: need - 1)
    assert run(*argv, "--steps", "5") == 2
    err = capsys.readouterr().err
    assert (f"--steps 5 needs 5 profiles of grid.n = 65536 float64 values, {need} bytes, "
            f"more than the {need - 1} bytes") in err
    assert not (tmp_path / "nested").exists()
    monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda: need)
    with pytest.raises(AssertionError, match="run_sweep called"):
        run(*argv, "--steps", "5")
    monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda: None)
    with pytest.raises(AssertionError, match="run_sweep called"):
        run(*argv, "--steps", "5")


def no_propagation(*args, **kwargs):
    raise AssertionError("propagation reached")


@pytest.mark.parametrize("command", ["pattern", "sweep", "buildup"])
def test_grid_beyond_physical_memory_is_refused(
    tmp_path, mini_config, capsys, monkeypatch, command
):
    # Every pass holds complex128 fields of grid.n values; a grid.n whose one
    # field exceeds physical memory is refused before any propagation,
    # naming grid.n.
    import doubleslit.cli
    import doubleslit.propagation
    import doubleslit.workers

    machine_memory = doubleslit.workers.physical_memory
    for name in ("simulate_beamline", "field_at_mask"):
        monkeypatch.setattr(doubleslit.propagation, name, no_propagation)
    monkeypatch.setattr(doubleslit.cli, "simulate_beamline", no_propagation)
    monkeypatch.setattr(doubleslit.cli, "run_sweep", no_propagation)
    out = tmp_path / "nested" / "out"
    argv = [command, "--config", mini_config, "--out", str(out)]
    argv += SWEEP_ARGS if command == "sweep" else ()

    # The mini config keeps the default grid.n = 65536: one field needs
    # exactly 16 x 65536 bytes.
    need = 16 * 65536
    monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda: need - 1)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert (f"error: grid.n = 65536 needs one field of 65536 complex128 values, {need} "
            f"bytes, more than the {need - 1} bytes of physical memory") in err
    assert "Traceback" not in err
    assert not (tmp_path / "nested").exists()
    for memory in (need, None):
        monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda m=memory: m)
        if command != "pattern" and memory is not None:
            # Five profiles of float64, or one frame's response stacks, need
            # more than one complex128 field.
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert "grid.n = 65536 needs" not in err
            assert ("--steps 5 needs" if command == "sweep" else "frame.width = 416") in err
            continue
        with pytest.raises(AssertionError, match="propagation reached"):
            run(*argv)

    # 2^50 samples need 16 PiB, more than any address space: refused with the
    # machine's own memory figure.
    monkeypatch.setattr(doubleslit.workers, "physical_memory", machine_memory)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(MINI_CONFIG + f"grid.n = {2**50}\n")
    argv[2] = str(cfg)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"grid.n = {2**50} needs one field of {2**50} complex128 values, {2**54} bytes" in err
    assert "Traceback" not in err
    assert not (tmp_path / "nested").exists()


def test_buildup_refuses_frames_beyond_physical_memory(
    tmp_path, mini_config, capsys, monkeypatch
):
    # Each detection thread holds 2 float64 layers per scale of one frame:
    # with 3 threads, the default 416 x 32 frame and its 11 scales need
    # 2 x 8 x 11 x 416 x 32 x 3 bytes, refused before any propagation.
    import doubleslit.propagation
    import doubleslit.workers

    monkeypatch.setattr(doubleslit.propagation, "simulate_beamline", no_propagation)
    monkeypatch.setattr(doubleslit.workers, "worker_count", lambda: 3)
    out = tmp_path / "nested" / "out"
    argv = ["buildup", "--config", mini_config, "--out", str(out)]
    need = 2 * 8 * 11 * 416 * 32 * 3
    monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda: need - 1)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert (f"error: frame.width = 416 and frame.height = 32 with the 11 scales of "
            f"blob.t_min, blob.t_max and blob.ratio need 2 x 11 frame layers of float64 "
            f"on each of 3 threads, {need} bytes, more than the {need - 1} bytes") in err
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
    # frame and the default 11 scales need 2 x 8 x 11 x 40 x 24 x 3 bytes,
    # refused after the read and before any response stack is built.
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
    need = 2 * 8 * 11 * 40 * 24 * 3
    monkeypatch.setattr(doubleslit.workers, "physical_memory", lambda: need - 1)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert (f"error: {frame}: 40x24 frames with the 11 scales of blob.t_min, blob.t_max "
            f"and blob.ratio need 2 x 11 frame layers of float64 on each of 3 threads, "
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
    if not config and argv[0] != "detect":
        # A refusal of the command line names the flag it refuses.
        assert any(flag in err for flag in argv[1::2]), err


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
