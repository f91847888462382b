"""Pattern metrics: period, visibility, interference bookkeeping, KS."""
import numpy as np
import pytest

from doubleslit.analysis import (
    NoPeriodicityError,
    classify_fractions,
    fringe_spacing,
    highest_unblocked_order,
    interference_term,
    ks_distance,
    profile_cdf,
    run_sweep,
    visibility,
)
from doubleslit.core import BeamParameters, de_broglie_wavelength
from doubleslit.errors import DomainError
from doubleslit.geometry import ApertureSpec, BeamlineLayout, make_double_slit
from doubleslit.propagation import GridSpec, IntensityProfile, simulate_beamline


def make_profile(x0, dx, values, normalized=False):
    return IntensityProfile(x0=x0, dx=dx, values=np.asarray(values, float),
                            normalized=normalized)


def fringes(period, n=4096, dx=1e-6, vis=1.0, env_scale=None):
    x = (np.arange(n) - (n - 1) / 2) * dx
    vals = 1.0 + vis * np.cos(2 * np.pi * x / period)
    if env_scale is not None:
        vals = vals * np.sinc(x / env_scale) ** 2
    return make_profile(float(x[0]), dx, vals)


# --- classification ----------------------------------------------------------

@pytest.mark.parametrize(
    "f1,f2,label",
    [
        (1.0, 1.0, "both"),
        (1.0, 0.0, "slit1"),
        (0.0, 1.0, "slit2"),
        (0.0, 0.0, "blocked"),
        (0.5, 0.0, "mixed"),
        (1.0, 0.1, "mixed"),
        (1.0 - 1e-12, 1e-12, "slit1"),  # inside default tolerance
    ],
)
def test_classify_fractions(f1, f2, label):
    assert classify_fractions(f1, f2) == label


# --- fringe period -----------------------------------------------------------

def test_fringe_spacing_recovers_constructed_period():
    for period in (37e-6, 120e-6, 355e-6):
        got = fringe_spacing(fringes(period))
        assert got == pytest.approx(period, rel=0.01)


def test_fringe_spacing_under_envelope():
    prof = fringes(50e-6, env_scale=600e-6)
    assert fringe_spacing(prof) == pytest.approx(50e-6, rel=0.01)


def test_fringe_spacing_rejects_fringeless_profiles():
    n, dx = 1024, 1e-6
    x = (np.arange(n) - (n - 1) / 2) * dx
    smooth = make_profile(float(x[0]), dx, np.exp(-((x / 100e-6) ** 2)))
    with pytest.raises(NoPeriodicityError):
        fringe_spacing(smooth)
    with pytest.raises(NoPeriodicityError):
        fringe_spacing(make_profile(0.0, dx, np.zeros(16)))


def test_fringe_spacing_needs_four_principal_maxima():
    # Two fringes under a tight envelope: too few principal maxima.
    prof = fringes(400e-6, n=1024, env_scale=500e-6)
    with pytest.raises(NoPeriodicityError):
        fringe_spacing(prof)


# --- visibility --------------------------------------------------------------

def test_visibility_of_constructed_fringes():
    for v in (0.25, 0.6, 1.0):
        prof = fringes(50e-6, vis=v)
        got = visibility(prof, (-200e-6, 200e-6))
        assert got == pytest.approx(v, abs=0.01)


def test_visibility_with_envelope_detrending():
    # Under a sinc^2 envelope the raw contrast is inflated; dividing the
    # envelope back out recovers the constructed value.
    prof = fringes(50e-6, vis=0.5, env_scale=600e-6)
    raw = visibility(prof, (-400e-6, 400e-6))
    detrended = visibility(prof, (-400e-6, 400e-6), envelope_scale=600e-6)
    assert raw > 0.6
    assert detrended == pytest.approx(0.5, abs=0.01)


def test_visibility_window_validation():
    prof = fringes(50e-6)
    with pytest.raises(DomainError):
        visibility(prof, (1e-3, 1e-3))
    with pytest.raises(DomainError):
        visibility(prof, (10.0, 11.0))  # empty selection


# --- interference term -------------------------------------------------------

def test_interference_requires_common_flux_gauge():
    raw = fringes(50e-6)
    norm = make_profile(raw.x0, raw.dx, raw.values / raw.total(), normalized=True)
    with pytest.raises(DomainError):
        interference_term(norm, raw, raw)
    with pytest.raises(DomainError):
        interference_term(raw, norm, raw)


def test_interference_requires_shared_grid():
    a = fringes(50e-6)
    b = make_profile(a.x0 + 1e-3, a.dx, a.values)
    with pytest.raises(DomainError):
        interference_term(a, b, a)


def test_interference_term_integrates_to_zero_on_beamline():
    from dataclasses import replace

    beam = BeamParameters(600.0)
    slits = make_double_slit(50e-9, 280e-9)
    layout = BeamlineLayout(230e-6, 0.5, 10.0, slits, 5e-6)
    grid = GridSpec(window=64e-6, n=65536)
    one = ApertureSpec((slits.open_intervals[0],))
    two = ApertureSpec((slits.open_intervals[1],))
    p12 = simulate_beamline(layout, beam, None, grid, normalize=False)
    p1 = simulate_beamline(replace(layout, doubleslit=one), beam, None, grid,
                           normalize=False)
    p2 = simulate_beamline(replace(layout, doubleslit=two), beam, None, grid,
                           normalize=False)
    term = interference_term(p12, p1, p2)
    assert abs(np.sum(term) * p12.dx) < 1e-6 * p12.total()
    # The pointwise term itself is NOT zero: that is the interference.
    assert np.max(np.abs(term)) > 0.1 * p12.values.max()


# --- order cutoff ------------------------------------------------------------

def test_highest_unblocked_order_formula():
    lam = de_broglie_wavelength(600.0)
    assert highest_unblocked_order(2.5e-6, 230e-6, lam, 280e-9) == 60
    # Doubling the opening doubles the admitted order count (floor-wise).
    assert highest_unblocked_order(5.0e-6, 230e-6, lam, 280e-9) == 121
    with pytest.raises(DomainError):
        highest_unblocked_order(-2.5e-6, 230e-6, lam, 280e-9)


# --- sweep plumbing ----------------------------------------------------------

@pytest.fixture(scope="module")
def small_sweep_setup():
    beam = BeamParameters(600.0)
    slits = make_double_slit(50e-9, 280e-9)
    layout = BeamlineLayout(230e-6, 0.5, 10.0, slits, 5e-6)
    # Same 0.98 nm pitch as the default grid (the band-limit rule needs
    # dx <= lambda / (2 * 0.015)), half the window for speed.
    grid = GridSpec(window=32e-6, n=32768)
    return layout, beam, grid


def test_sweep_labels_and_orderings(small_sweep_setup):
    layout, beam, grid = small_sweep_setup
    centers = [-2.8e-6, -2.52e-6, 0.0, 2.52e-6, 2.8e-6]
    entries = list(run_sweep(layout, beam, centers, grid))
    assert [e.label for e in entries] == ["blocked", "slit1", "both", "slit2", "blocked"]
    with pytest.raises(DomainError):
        run_sweep(layout, beam, [0.0, 0.0], grid)


def test_sweep_refuses_unordered_centers_before_propagating(small_sweep_setup, monkeypatch):
    import doubleslit.analysis

    def no_pass(*args, **kwargs):
        raise AssertionError("simulate_beamline called")

    monkeypatch.setattr(doubleslit.analysis, "simulate_beamline", no_pass)
    layout, beam, grid = small_sweep_setup
    for centers in ([2.8e-6, -2.8e-6], [0.0, 1e-6, 1e-6], [-1e-6, 1e-6, 0.0]):
        with pytest.raises(DomainError, match="strictly increasing"):
            run_sweep(layout, beam, centers, grid)
    # A center too large to hold the mask opening is refused as well.
    with pytest.raises(DomainError, match="degenerate aperture interval"):
        run_sweep(layout, beam, [0.0, 1e300], grid)


def test_sweep_matches_fresh_beamline_loop(small_sweep_setup):
    # The shared slit-to-mask field must not change a single bit: each
    # entry equals an independent simulate_beamline call, including a
    # mask clipped away entirely (zeros on the same detector grid).
    layout, beam, grid = small_sweep_setup
    centers = np.append(np.linspace(-2.6e-6, 2.6e-6, 7), 40e-6)
    entries = list(run_sweep(layout, beam, centers, grid))
    assert [e.mask_center for e in entries] == centers.tolist()
    assert entries[-1].label == "blocked"
    for c, entry in zip(centers, entries):
        fresh = simulate_beamline(layout, beam, float(c), grid)
        assert (entry.profile.x0, entry.profile.dx) == (fresh.x0, fresh.dx)
        assert entry.profile.normalized == fresh.normalized
        assert np.array_equal(entry.profile.values, fresh.values)


# --- KS distance -------------------------------------------------------------

def unit_uniform():
    n = 100
    dx = 1.0 / n
    return IntensityProfile(x0=dx / 2, dx=dx, values=np.ones(n), normalized=True)


def test_profile_cdf_shape():
    edges, cdf = profile_cdf(unit_uniform())
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= 0)
    assert edges[0] == pytest.approx(0.0) and edges[-1] == pytest.approx(1.0)
    with pytest.raises(DomainError):
        profile_cdf(fringes(50e-6))  # not normalized


def test_ks_distance_hand_values():
    ref = unit_uniform()
    # Single event at the median: D = 1/2.
    assert ks_distance([0.5], ref) == pytest.approx(0.5, abs=1e-9)
    # Events at the quartiles: D = 1/4.
    assert ks_distance([0.25, 0.75], ref) == pytest.approx(0.25, abs=1e-9)
    with pytest.raises(DomainError):
        ks_distance([], ref)


def test_ks_distance_detects_shift():
    from doubleslit.sampler import sample_positions

    ref = unit_uniform()
    xs = sample_positions(ref, 5000, 42)
    assert ks_distance(xs, ref) < 1.63 / np.sqrt(5000)
    assert ks_distance(xs * 0.5, ref) > 0.2
