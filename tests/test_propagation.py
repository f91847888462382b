"""Wave propagation: exactness against the direct integral, invariances.

The three propagators share one carrier-free Fresnel convention, so they
can be compared sample-by-sample.  Tolerances here are far below the
acceptance thresholds because the agreement is at machine precision on
well-sampled fields.
"""
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from doubleslit.analysis import run_sweep
from doubleslit.config import load_config
from doubleslit.core import BeamParameters
from doubleslit.errors import DomainError, GridConfigError
from doubleslit.geometry import ApertureSpec, BeamlineLayout, make_double_slit
from doubleslit.propagation import (
    GridSpec,
    _fresnel_factors,
    _kept,
    WaveField,
    angular_spectrum_step,
    apply_aperture,
    check_beamline,
    direct_integral_reference,
    field_at_mask,
    forget_kept,
    fresnel_transform_step,
    intensity_profile,
    magnify,
    simulate_beamline,
    simulate_detector_field,
    symmetric_grid_origin,
)


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def structured_field(n=512, dx=1e-6, wavelength=500e-9):
    """Smooth band-limited test field: Gaussian with ripple and tilt."""
    x0 = symmetric_grid_origin(n, dx)
    x = x0 + np.arange(n) * dx
    amp = (
        np.exp(-((x / 40e-6) ** 2))
        * (1 + 0.25 * np.cos(2 * np.pi * x / 17e-6))
        * np.exp(1j * 2 * np.pi * x * 1.5e3)
    )
    return WaveField(x0=x0, dx=dx, wavelength=wavelength, amplitudes=amp)


@pytest.fixture(scope="module")
def experiment_setup():
    beam = BeamParameters(600.0)
    slits = make_double_slit(50e-9, 280e-9)
    layout = BeamlineLayout(230e-6, 0.5, 10.0, slits, 5e-6)
    grid = GridSpec(window=64e-6, n=65536)
    return beam, layout, grid


# --- grid and field plumbing -------------------------------------------------

def test_symmetric_grid_is_reflection_closed():
    n, dx = 512, 1e-6
    x0 = symmetric_grid_origin(n, dx)
    x = x0 + np.arange(n) * dx
    assert np.allclose(-x[::-1], x, rtol=1e-12, atol=0.0)
    assert x[255] == -x[256]  # axis straddled by the two central samples


def test_wavefield_validation():
    with pytest.raises(GridConfigError):
        WaveField(x0=0.0, dx=1e-6, wavelength=5e-11, amplitudes=np.ones(500, complex))
    with pytest.raises(DomainError):
        WaveField(x0=0.0, dx=-1e-6, wavelength=5e-11, amplitudes=np.ones(512, complex))
    with pytest.raises(DomainError):
        bad = np.ones(512, complex)
        bad[3] = np.nan
        WaveField(x0=0.0, dx=1e-6, wavelength=5e-11, amplitudes=bad)


def test_grid_spec_power_of_two():
    with pytest.raises(GridConfigError):
        GridSpec(window=64e-6, n=1000)
    g = GridSpec(window=64e-6, n=65536)
    assert g.dx == pytest.approx(64e-6 / 65536)


def test_apply_aperture_is_projection():
    f = structured_field()
    ap = ApertureSpec(((-20e-6, 15e-6),))
    once = apply_aperture(f, ap)
    twice = apply_aperture(once, ap)
    # Interior cells carry transmission exactly 0 or 1; only the two edge
    # cells have fractional coverage, so a repeat application is a tiny
    # perturbation, not a structural change.
    assert rel_l2(twice.amplitudes, once.amplitudes) < 1e-9
    assert once.power() <= f.power()


# --- propagator correctness --------------------------------------------------

def test_angular_spectrum_matches_direct_integral():
    f = structured_field()
    out = angular_spectrum_step(f, 1e-3)
    ref = direct_integral_reference(f, 1e-3, out.x)
    assert rel_l2(out.amplitudes, ref) < 1e-9


def test_fresnel_matches_direct_integral():
    f = structured_field()
    out = fresnel_transform_step(f, 1e-3)
    ref = direct_integral_reference(f, 1e-3, out.x)
    assert rel_l2(out.amplitudes, ref) < 1e-9


def test_angular_spectrum_and_fresnel_agree_on_shared_grid():
    # At z = n dx^2 / lambda the Fresnel output grid equals the input grid.
    f = structured_field()
    z_eq = f.n * f.dx * f.dx / f.wavelength
    out_as = angular_spectrum_step(f, z_eq)
    out_fr = fresnel_transform_step(f, z_eq)
    assert out_fr.dx == pytest.approx(f.dx, rel=1e-12)
    assert out_fr.x0 == pytest.approx(f.x0, rel=1e-12)
    assert rel_l2(out_fr.amplitudes, out_as.amplitudes) < 1e-9


def test_fresnel_output_grid_geometry():
    f = structured_field()
    out = fresnel_transform_step(f, 5e-3)
    assert out.dx == pytest.approx(f.wavelength * 5e-3 / (f.n * f.dx))
    assert out.x0 == pytest.approx(symmetric_grid_origin(f.n, out.dx))


def reference_fresnel_transform_step(field, z):
    """The single-step transform building every factor afresh on each call,
    kept as the bit-level oracle for the reused factors."""
    lam = field.wavelength
    n, dx = field.n, field.dx
    lz = lam * z
    dx_out = lz / (n * dx)
    x1 = field.x
    x2 = (np.arange(n) - (n - 1) / 2) * dx_out
    j = np.arange(n)
    g = field.amplitudes * np.exp(1j * np.pi * x1 * x1 / lz)
    g = g * np.exp(1j * np.pi * j * (n - 1) / n)
    spectrum = np.fft.fft(g)
    prefactor = dx * np.exp(-1j * np.pi / 4) / np.sqrt(lz)
    out = (
        prefactor
        * np.exp(1j * np.pi * x2 * x2 / lz)
        * np.exp(-2j * np.pi * field.x0 * x2 / lz)
        * spectrum
    )
    return WaveField(x0=float(x2[0]), dx=dx_out, wavelength=lam, amplitudes=out)


def random_field(rng, n, dx=1e-9, wavelength=5e-11):
    amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return WaveField(x0=symmetric_grid_origin(n, dx), dx=dx, wavelength=wavelength,
                     amplitudes=amp)


@pytest.mark.parametrize("n", [16384, 65536])
def test_fresnel_reused_factors_match_fresh_ones_bit_for_bit(n):
    # From 16384 samples (256 KiB) on, the fresh factors ran through numpy's
    # temporary elision, and the reused ones keep that operand order.  The
    # third call on one grid and z reuses the factors; the calls on another
    # grid or z in between start afresh.
    rng = np.random.default_rng(n)
    fields = [random_field(rng, n) for _ in range(3)]
    other_grid, other_z = random_field(rng, n, dx=2e-9), random_field(rng, n)
    calls = [(f, 0.5) for f in fields] + [(other_grid, 0.5), (other_z, 0.25), (fields[0], 0.5)]
    for field, z in calls:
        out = fresnel_transform_step(field, z)
        ref = reference_fresnel_transform_step(field, z)
        assert (out.x0, out.dx, out.wavelength) == (ref.x0, ref.dx, ref.wavelength)
        assert np.array_equal(out.amplitudes, ref.amplitudes)


def repeat_keys(build):
    """Two keys of `build` for test_kept_only_for_a_repeated_key."""
    if build is _fresnel_factors:
        origin = symmetric_grid_origin(16384, 1e-9)
        return (16384, 1e-9, origin, 5e-11, 0.5), (16384, 1e-9, origin, 5e-11, 0.25)
    layout = BeamlineLayout(230e-6, 0.5, 10.0, make_double_slit(50e-9, 280e-9), 5e-6)
    grid = GridSpec(window=8e-6, n=8192)
    return (layout, BeamParameters(600.0), grid), (layout, BeamParameters(700.0), grid)


@pytest.mark.parametrize("build", [_fresnel_factors, field_at_mask], ids=lambda f: f.__name__)
def test_kept_only_for_a_repeated_key(build):
    # A single pass keeps nothing once it returns; the second call in a row
    # with one key keeps its result, and the third reuses it, read-only.
    key, other = repeat_keys(build)
    build(*key)
    build(*other)
    assert _kept[build.__name__][1] is None
    first = build(*key)
    second = build(*key)
    assert first is not second and _kept[build.__name__][1] is second
    assert build(*key) is second
    for array in second if build is _fresnel_factors else (second.amplitudes,):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_gaussian_beam_width_at_rayleigh_distance():
    # Waist w0 grows by sqrt(2) after one Rayleigh range z_R = pi w0^2 / lam.
    n, dx, lam = 4096, 0.5e-6, 500e-9
    w0 = 30e-6
    x0 = symmetric_grid_origin(n, dx)
    x = x0 + np.arange(n) * dx
    f = WaveField(x0=x0, dx=dx, wavelength=lam,
                  amplitudes=np.exp(-((x / w0) ** 2)).astype(complex))
    z_r = np.pi * w0 * w0 / lam
    out = angular_spectrum_step(f, z_r)
    intensity = np.abs(out.amplitudes) ** 2
    # 1/e^2 intensity radius from the second moment of a Gaussian.
    sigma2 = np.sum(out.x**2 * intensity) / np.sum(intensity)
    w_meas = 2.0 * np.sqrt(sigma2)
    assert w_meas == pytest.approx(np.sqrt(2.0) * w0, rel=1e-6)


# --- invariances -------------------------------------------------------------

def test_propagation_is_unitary():
    # z small enough that the window-aliasing bound W/(2 lambda z) stays
    # above the grid Nyquist frequency, so no spectral zeroing occurs.
    f = structured_field()
    for z in (1e-5, 1e-4, 1e-3):
        assert angular_spectrum_step(f, z).power() == pytest.approx(f.power(), rel=1e-9)
    for z in (1e-4, 1e-3, 1e-2):
        assert fresnel_transform_step(f, z).power() == pytest.approx(f.power(), rel=1e-9)


def test_angular_spectrum_band_guard_engages_at_long_throw():
    # Beyond the aliasing bound the step discards out-of-band modes, so
    # power can only decrease.  This documents the guard; beamline grids
    # never reach it.
    f = structured_field()
    out = angular_spectrum_step(f, 1e-1)
    assert out.power() < f.power()


def test_angular_spectrum_step_at_extreme_distances():
    # 2 lambda z underflows at the least subnormal z, and the phase
    # lambda z f^2 overflows at 1e308; neither may warn or divide by zero.
    f = structured_field()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        near = angular_spectrum_step(f, 5e-324)
        far = angular_spectrum_step(f, 1e308)
    assert rel_l2(near.amplitudes, f.amplitudes) < 1e-14
    # Only the zero frequency is within the window-aliasing bound at 1e308.
    spectrum = np.fft.fft(far.amplitudes)
    assert spectrum[0] == pytest.approx(np.fft.fft(f.amplitudes)[0], rel=1e-12)
    assert np.max(np.abs(spectrum[1:])) < 1e-12 * abs(spectrum[0])


def test_zero_distance_is_identity():
    f = structured_field()
    out = angular_spectrum_step(f, 0.0)
    assert np.array_equal(out.amplitudes, f.amplitudes)


def test_negative_distance_rejected():
    f = structured_field()
    with pytest.raises(DomainError):
        angular_spectrum_step(f, -1e-3)
    with pytest.raises(DomainError):
        fresnel_transform_step(f, -1e-3)
    with pytest.raises(DomainError):
        fresnel_transform_step(f, 0.0)  # output grid would collapse


def test_propagation_commutes_with_reflection():
    # Reversing samples reflects x -> -x exactly on the symmetric grid.
    f = structured_field()
    for step in (lambda g: angular_spectrum_step(g, 1e-3),
                 lambda g: fresnel_transform_step(g, 1e-3)):
        out = step(f)
        mirrored_in = WaveField(x0=f.x0, dx=f.dx, wavelength=f.wavelength,
                                amplitudes=f.amplitudes[::-1].copy())
        out_mirrored = step(mirrored_in)
        assert rel_l2(out_mirrored.amplitudes, out.amplitudes[::-1]) < 1e-9


def test_nyquist_violation_raises():
    # lambda/(2 dx) below the requested angular band is a grid problem.
    n, dx = 512, 1e-6
    x0 = symmetric_grid_origin(n, dx)
    f = WaveField(x0=x0, dx=dx, wavelength=5e-11,
                  amplitudes=np.ones(n, complex))
    with pytest.raises(GridConfigError):
        angular_spectrum_step(f, 230e-6)  # default band needs dx <= lam/(2 theta)


def test_window_with_no_published_row_is_refused(experiment_setup):
    # grid.n is even, so the detector rows nearest the axis lie at the
    # angle lambda / (2 window); at the 64 um window that passes
    # DEFAULT_MAX_ANGLE near 4.1e-7 eV.
    _, layout, grid = experiment_setup
    check_beamline(layout, BeamParameters(5e-7), grid)
    slow = BeamParameters(3e-7)
    for refused in (
        lambda: check_beamline(layout, slow, grid),
        lambda: run_sweep(layout, slow, [0.0, 1e-6], grid),
        lambda: simulate_beamline(layout, slow, 0.0, grid),
    ):
        with pytest.raises(GridConfigError, match="no detector row is published"):
            refused()


def test_aperture_support_guard(experiment_setup):
    beam, layout, _ = experiment_setup
    tiny = GridSpec(window=1e-6, n=4096)  # slit span 330 nm > window/4
    with pytest.raises(GridConfigError):
        simulate_detector_field(layout, beam, 0.0, tiny)


def test_magnify_preserves_power_and_scales_grid():
    f = structured_field()
    out = magnify(f, 10.0)
    assert out.dx == pytest.approx(10.0 * f.dx)
    assert out.power() == pytest.approx(f.power(), rel=1e-12)
    with pytest.raises(DomainError):
        magnify(f, 0.0)


def test_intensity_profile_normalization():
    f = structured_field()
    prof = intensity_profile(f, normalize=True)
    assert prof.normalized
    assert prof.values.sum() * prof.dx == pytest.approx(1.0, rel=1e-12)
    raw = intensity_profile(f, normalize=False)
    assert not raw.normalized
    assert raw.total() == pytest.approx(f.power(), rel=1e-12)


def test_intensity_profile_keeps_rounding_noise_unnormalized():
    # A total at or below eps times the incident flux is rounding noise.
    f = structured_field()
    eps = np.finfo(np.float64).eps
    for share, normalized in ((0.5 * eps, False), (2 * eps, True)):
        weak = replace(f, amplitudes=f.amplitudes * np.sqrt(share))
        prof = intensity_profile(weak, incident=f.power())
        assert prof.normalized is normalized
        if not normalized:
            assert prof.values.tobytes() == intensity_profile(weak, False).values.tobytes()
    # With no incident flux named, every positive total is normalized.
    assert intensity_profile(replace(f, amplitudes=f.amplitudes * 1e-150)).normalized


@pytest.mark.parametrize("center", [-2.8e-6, 2.8e-6])
def test_blocked_station_passes_rounding_noise_only_at_a_vanishing_gap(
    experiment_setup, center
):
    # With the mask 5e-324 m behind the slits, a mask at +-2.8 um covers both
    # slits' sharp field: what reaches the detector is rounding noise, below
    # the floor and left unnormalized.  At the default gap the same station
    # passes 0.04224 of the unmasked flux, far above it, and is normalized.
    beam, layout, grid = experiment_setup
    eps = np.finfo(np.float64).eps
    near = replace(layout, z_doubleslit_to_mask=5e-324)
    noise = simulate_beamline(near, beam, center, grid, normalize=False)
    assert noise.total() <= eps * field_at_mask(near, beam, grid).power()
    assert not simulate_beamline(near, beam, center, grid).normalized
    free = simulate_beamline(layout, beam, None, grid, normalize=False)
    raw = simulate_beamline(layout, beam, center, grid, normalize=False)
    assert raw.total() / free.total() == pytest.approx(0.04224, abs=5e-6)
    assert simulate_beamline(layout, beam, center, grid).normalized


# --- beamline-level physics --------------------------------------------------

def test_detector_field_superposes_over_slits(experiment_setup):
    beam, layout, grid = experiment_setup
    from dataclasses import replace

    slit1 = ApertureSpec((layout.doubleslit.open_intervals[0],))
    slit2 = ApertureSpec((layout.doubleslit.open_intervals[1],))
    f_both = simulate_detector_field(layout, beam, None, grid)
    f_1 = simulate_detector_field(replace(layout, doubleslit=slit1), beam, None, grid)
    f_2 = simulate_detector_field(replace(layout, doubleslit=slit2), beam, None, grid)
    assert rel_l2(f_1.amplitudes + f_2.amplitudes, f_both.amplitudes) < 1e-9


def test_beamline_mirror_symmetry(experiment_setup):
    beam, layout, grid = experiment_setup
    left = simulate_beamline(layout, beam, -2.52e-6, grid)
    right = simulate_beamline(layout, beam, +2.52e-6, grid)
    assert rel_l2(right.values[::-1], left.values) < 1e-9


def test_geometrically_blocked_mask_passes_only_diffracted_tails(experiment_setup):
    # At -2.8 um both slit images fall outside the opening; only weak
    # diffracted flux leaks through.
    beam, layout, grid = experiment_setup
    both = simulate_beamline(layout, beam, 0.0, grid, normalize=False)
    blocked = simulate_beamline(layout, beam, -2.8e-6, grid, normalize=False)
    # Slit images sit 160 nm from the opening edge while the diffracted
    # spot at the mask plane is ~230 nm wide, so a few percent leaks.
    assert 0.0 < blocked.total() < 0.1 * both.total()


def test_mask_outside_grid_window_blocks_everything(experiment_setup):
    beam, layout, grid = experiment_setup
    prof = simulate_beamline(layout, beam, 40e-6, grid, normalize=False)
    assert prof.values.max() == 0.0
    # The zero field still lives on the magnified detector grid.
    ref = simulate_beamline(layout, beam, 0.0, grid, normalize=False)
    assert (prof.x0, prof.dx, prof.n) == (ref.x0, ref.dx, ref.n)


@pytest.mark.parametrize("mask_center", [None, 0.0, -2.52e-6, 40e-6])
def test_at_mask_field_reproduces_full_pass(experiment_setup, mask_center):
    # The first of three passes in a row builds everything, the second keeps
    # the at-mask field and the Fresnel factors, the third reuses them.
    beam, layout, grid = experiment_setup
    forget_kept()
    first, second, third = (
        simulate_detector_field(layout, beam, mask_center, grid) for _ in range(3)
    )
    assert _kept["field_at_mask"][1] is not None
    for out in (second, third):
        assert (out.x0, out.dx) == (first.x0, first.dx)
        assert np.array_equal(out.amplitudes, first.amplitudes)


@pytest.mark.parametrize("change", ["layout", "beam", "grid"])
def test_pass_after_a_kept_field_matches_a_fresh_one(experiment_setup, change):
    # A kept at-mask field belongs to its slit layout, beam and grid alone:
    # the next pass on any other one equals a pass with nothing kept.
    beam, layout, grid = experiment_setup
    other = {
        "layout": (replace(layout, doubleslit=make_double_slit(60e-9, 300e-9)), beam, grid),
        "beam": (layout, BeamParameters(700.0), grid),
        "grid": (layout, beam, GridSpec(window=grid.window / 2, n=grid.n // 2)),
    }[change]
    for _ in range(3):
        simulate_detector_field(layout, beam, 0.0, grid)
    assert _kept["field_at_mask"][1] is not None
    after = simulate_detector_field(*other[:2], 0.0, other[2])
    forget_kept()
    fresh = simulate_detector_field(*other[:2], 0.0, other[2])
    assert (after.x0, after.dx) == (fresh.x0, fresh.dx)
    assert np.array_equal(after.amplitudes, fresh.amplitudes)


def test_default_p12_profile_converges_in_grid_size():
    # Doubling grid.n at a fixed window halves dx at the slits but keeps the
    # detector pitch lambda z / window, so the coarse detector grid is the
    # centred half of the fine one.  The profile moves by ~1.0e-4 of its peak.
    config = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "default.cfg"))
    layout, beam = config.layout(), config.beam()
    coarse = simulate_beamline(layout, beam, 0.0, config.grid())
    fine_grid = GridSpec(window=config.grid_window, n=2 * config.grid_n)
    fine = simulate_beamline(layout, beam, 0.0, fine_grid)
    n = coarse.n
    assert fine.dx == coarse.dx
    assert np.allclose(fine.x[n // 2 : 3 * n // 2], coarse.x, rtol=0.0, atol=1e-15)
    moved = np.abs(fine.values[n // 2 : 3 * n // 2] - coarse.values)
    assert moved.max() < 2e-4 * coarse.values.max()
