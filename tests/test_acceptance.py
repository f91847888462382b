"""Acceptance battery: nine headline checks with frozen tolerances.

Each check prints one PASS/FAIL line straight to the terminal (bypassing
capture) so a full run reads as a report card.  The tolerances here are
the contract for the simulator; loosening one is a behavior change, not
a test fix.
"""
import contextlib
import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from doubleslit.analysis import (
    highest_unblocked_order,
    ks_distance,
    run_sweep,
    visibility,
)
from doubleslit.blobdetect import detect_blobs, geometric_scales
from doubleslit.buildup import restrict_profile as _restrict
from doubleslit.cli import main
from doubleslit.config import load_config
from doubleslit.core import (
    de_broglie_wavelength,
    electron_speed,
    mean_interelectron_distance,
)
from doubleslit.geometry import ApertureSpec
from doubleslit.propagation import (
    WaveField,
    angular_spectrum_step,
    apply_aperture,
    direct_integral_reference,
    fresnel_transform_step,
    intensity_profile,
    simulate_beamline,
    simulate_detector_field,
    symmetric_grid_origin,
)
from doubleslit.sampler import sample_positions

CONFIG_PATH = str(Path(__file__).resolve().parents[1] / "configs" / "default.cfg")


@contextlib.contextmanager
def criterion(capfd, number, title):
    """Print one report line per criterion on the real terminal.

    capfd.disabled() lifts the file-descriptor capture for the print, so
    the report card survives a plain `pytest` run.
    """
    verdict = "PASS"
    try:
        yield
    except BaseException:
        verdict = "FAIL"
        raise
    finally:
        with capfd.disabled():
            print(f"[criterion {number}] {verdict} - {title}", flush=True)


def rel_l2(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.fixture(scope="module")
def cfg():
    return load_config(CONFIG_PATH)


@pytest.fixture(scope="module")
def beamline(cfg):
    return cfg.layout(), cfg.beam(), cfg.grid()


def test_criterion_1_order_cutoff(cfg, capfd):
    with criterion(capfd, 1, "mask edge at 2.5 um only clips orders above the 60th"):
        lam = de_broglie_wavelength(cfg.beam_energy)
        order = highest_unblocked_order(
            cfg.mask_opening_width / 2, cfg.mask_distance, lam, cfg.slit_separation
        )
        assert order == 60


def test_criterion_2_interelectron_distance(cfg, capfd):
    with criterion(capfd, 2, "consecutive electrons are ~2.3e6 m apart at 6.32 Hz"):
        d = mean_interelectron_distance(electron_speed(cfg.beam_energy), cfg.total_rate)
        assert d == pytest.approx(2.3e6, rel=0.05)


@pytest.fixture(scope="module")
def sweep(beamline):
    layout, beam, grid = beamline
    centers = np.linspace(-2.8e-6, 2.8e-6, 41)
    start = time.perf_counter()
    entries = list(run_sweep(layout, beam, centers, grid))
    return entries, time.perf_counter() - start


def test_criterion_3_mask_sweep_phenomenology(cfg, beamline, sweep, capfd):
    entries, elapsed = sweep
    with criterion(capfd, 3, "41-point sweep: blocked / one slit / both, with weak fringes"):
        labels = [e.label for e in entries]
        collapsed = [label for label, _ in itertools.groupby(labels)]
        assert collapsed == [
            "blocked", "mixed", "slit1", "mixed", "both",
            "mixed", "slit2", "mixed", "blocked",
        ]
        remaining = iter(collapsed)
        for want in ("blocked", "slit1", "mixed", "both", "mixed", "slit2"):
            assert any(got == want for got in remaining)

        period = cfg.fringe_period()
        env = cfg.envelope_scale()
        central = (-0.5 * period, 0.5 * period)
        minus_lobe = (-1.5 * period, -0.5 * period)
        plus_lobe = (0.5 * period, 1.5 * period)
        stations = {
            label: entries[labels.index(label)]
            for label in ("slit1", "slit2")
        }
        stations["both"] = entries[int(np.argmin([abs(e.mask_center) for e in entries]))]
        assert abs(stations["both"].mask_center) < 1e-15

        assert visibility(stations["both"].profile, central, env) > 0.9
        # The one-slit distributions themselves are fringe-free centrally.
        # The masked stations are not the place to check this: clipping a
        # single slit's wave already rings at the 0.17 level, so the max/min
        # visibility there measures edge ringing, not a second beam.
        layout, beam, grid = beamline
        for interval in layout.doubleslit.open_intervals:
            lone = replace(layout, doubleslit=ApertureSpec((interval,)))
            single = simulate_beamline(lone, beam, None, grid)
            assert visibility(single, central, env) < 0.05

        # Residual fringes from the 230 um standoff: clearly dominant on one
        # first-order side, and the dominant side swaps under reflection.
        vm1 = visibility(stations["slit1"].profile, minus_lobe, env)
        vp1 = visibility(stations["slit1"].profile, plus_lobe, env)
        vm2 = visibility(stations["slit2"].profile, minus_lobe, env)
        vp2 = visibility(stations["slit2"].profile, plus_lobe, env)
        assert max(vm1, vp1) > 0.1
        assert abs(vm1 - vp1) / (vm1 + vp1) > 0.1
        assert abs(vm2 - vp2) / (vm2 + vp2) > 0.1
        assert (vm1 > vp1) != (vm2 > vp2)
        assert vm2 == pytest.approx(vp1, rel=1e-6)
        assert vp2 == pytest.approx(vm1, rel=1e-6)
        assert elapsed < 300


def test_criterion_4_mask_negligibility(cfg, beamline, capfd):
    layout, beam, grid = beamline
    with criterion(capfd, 4, "centered mask shifts the central five orders by under 1e-3"):
        start = time.perf_counter()
        free = simulate_beamline(layout, beam, None, grid, normalize=False)
        masked = simulate_beamline(layout, beam, 0.0, grid, normalize=False)
        keep = np.abs(free.x) <= 2.5 * cfg.fringe_period()
        assert rel_l2(masked.values[keep], free.values[keep]) < 1e-3
        assert time.perf_counter() - start < 60


def _test_field(kind):
    n, dx, lam = 512, 1e-6, 500e-9
    x0 = symmetric_grid_origin(n, dx)
    x = x0 + np.arange(n) * dx
    if kind == "gaussian":
        amp = np.exp(-((x / 30e-6) ** 2)).astype(np.complex128)
    else:
        amp = np.exp(-((x / 40e-6) ** 2)) * (1 + 0.25 * np.cos(2 * np.pi * x / 17e-6))
        amp = amp * np.exp(1j * 2 * np.pi * x * 1.5e3)
    return WaveField(x0, dx, lam, amp.astype(np.complex128))


def test_criterion_5_oracle_equivalence(cfg, beamline, capfd):
    layout, beam, grid = beamline
    with criterion(capfd, 5, "fast propagators match quadrature; far field matches cos^2*sinc^2"):
        start = time.perf_counter()
        for kind in ("gaussian", "structured"):
            field = _test_field(kind)
            spectral = angular_spectrum_step(field, 1e-3)
            assert rel_l2(
                spectral.amplitudes, direct_integral_reference(field, 1e-3, spectral.x)
            ) < 1e-4
            scaled = fresnel_transform_step(field, 2e-3)
            assert rel_l2(
                scaled.amplitudes, direct_integral_reference(field, 2e-3, scaled.x)
            ) < 1e-4

        pattern = simulate_beamline(layout, beam, None, grid, normalize=False)
        span = layout.z_doubleslit_to_mask + layout.z_mask_to_detector
        theta = pattern.x / (layout.magnification * span)
        lam = beam.wavelength
        form = (
            np.cos(np.pi * cfg.slit_separation * theta / lam) ** 2
            * np.sinc(cfg.slit_width * theta / lam) ** 2
        )
        scale = float(form @ pattern.values) / float(form @ form)
        assert rel_l2(pattern.values, scale * form) < 1e-3
        assert time.perf_counter() - start < 60


def test_criterion_6_unitarity_and_superposition(beamline, capfd):
    layout, beam, grid = beamline
    with criterion(capfd, 6, "power is conserved and single-slit amplitudes add up"):
        start = time.perf_counter()
        x0 = symmetric_grid_origin(grid.n, grid.dx)
        plane = WaveField(x0, grid.dx, beam.wavelength,
                          np.ones(grid.n, dtype=np.complex128))
        at_slits = apply_aperture(plane, layout.doubleslit)
        at_mask = angular_spectrum_step(at_slits, layout.z_doubleslit_to_mask)
        assert abs(at_mask.power() / at_slits.power() - 1.0) < 1e-9
        far = fresnel_transform_step(at_mask, layout.z_mask_to_detector)
        assert abs(far.power() / at_slits.power() - 1.0) < 1e-9

        one, two = layout.doubleslit.open_intervals
        both = simulate_detector_field(layout, beam, None, grid)
        first = simulate_detector_field(
            replace(layout, doubleslit=ApertureSpec((one,))), beam, None, grid
        )
        second = simulate_detector_field(
            replace(layout, doubleslit=ApertureSpec((two,))), beam, None, grid
        )
        assert rel_l2(first.amplitudes + second.amplitudes, both.amplitudes) < 1e-9

        p12 = intensity_profile(both, normalize=False)
        p1 = intensity_profile(first, normalize=False)
        p2 = intensity_profile(second, normalize=False)
        cross = float(np.sum(p12.values - p1.values - p2.values)) * p12.dx
        total = float(np.sum(p12.values)) * p12.dx
        assert abs(cross) / total < 1e-6
        assert time.perf_counter() - start < 60


@pytest.fixture(scope="module")
def buildup_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    out_a = base / "a"
    out_b = base / "b"
    start = time.perf_counter()
    assert main(["buildup", "--config", CONFIG_PATH, "--out", str(out_a)]) == 0
    assert main(["buildup", "--config", CONFIG_PATH, "--out", str(out_b)]) == 0
    return out_a, out_b, time.perf_counter() - start


def _metrics(out_dir):
    values = {}
    for line in (out_dir / "metrics.txt").read_text().splitlines():
        key, value = line.split("=")
        values[key] = float(value)
    return values


def test_criterion_7_buildup_convergence(cfg, beamline, buildup_runs, capfd):
    layout, beam, grid = beamline
    out_a, _, elapsed = buildup_runs
    with criterion(capfd, 7, "median KS falls at every checkpoint; end-to-end KS < 0.0206"):
        full = simulate_beamline(layout, beam, 0.0, grid)
        source = _restrict(full, 2.5 * cfg.fringe_period())
        checkpoints = (2, 7, 209, 1004, 6235)
        distances = np.array([
            [ks_distance(positions[:count], source) for count in checkpoints]
            for positions in (
                sample_positions(source, 6235, seed) for seed in range(1, 21)
            )
        ])
        medians = np.median(distances, axis=0)
        assert np.all(np.diff(medians) < 0)

        metrics = _metrics(out_a)
        assert metrics["n_events"] == 6235
        assert metrics["ks_final"] < 0.0206
        assert elapsed < 600


def test_criterion_8_blob_detector_fidelity(capfd):
    with criterion(capfd, 8, "blob battery: recall/precision >= 99%, <= 0.5 px, t near sigma^2"):
        start = time.perf_counter()
        size, margin, min_sep = 96, 14.0, 26.0
        scales = geometric_scales(2.0, 30.0, 1.3)
        yy, xx = np.mgrid[0:size, 0:size]
        n_true = n_detected = n_matched = 0
        errors = []
        ratios = []
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            spots = []
            while len(spots) < 1 + seed % 3:
                cx = rng.uniform(margin, size - 1 - margin)
                cy = rng.uniform(margin, size - 1 - margin)
                if all(np.hypot(cx - px, cy - py) >= min_sep for px, py, _ in spots):
                    spots.append((cx, cy, rng.uniform(2.0, 4.5)))
            img = np.zeros((size, size))
            for cx, cy, sigma in spots:
                img += 1000.0 * np.exp(
                    -((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma**2)
                )
            img += rng.normal(0.0, 100.0, size=img.shape)

            blobs = detect_blobs(img, scales)
            n_true += len(spots)
            n_detected += len(blobs)
            used = set()
            for cx, cy, sigma in spots:
                candidates = [
                    (np.hypot(b.x - cx, b.y - cy), k)
                    for k, b in enumerate(blobs)
                    if k not in used and np.hypot(b.x - cx, b.y - cy) < 2.0
                ]
                if not candidates:
                    continue
                dist, k = min(candidates)
                used.add(k)
                n_matched += 1
                errors.append(dist)
                ratios.append(blobs[k].scale_t / sigma**2)

        assert n_matched / n_true >= 0.99
        assert n_matched / n_detected >= 0.99
        assert max(errors) <= 0.5
        assert 0.8 <= min(ratios) and max(ratios) <= 1.2
        assert time.perf_counter() - start < 120


def test_criterion_9_byte_identical_reruns(buildup_runs, capfd):
    out_a, out_b, elapsed = buildup_runs
    with criterion(capfd, 9, "two identical build-up invocations are byte-identical"):
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        assert "events.csv" in names and "blobs.csv" in names
        assert any(name.endswith(".pgm") for name in names)
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        assert elapsed < 600
