"""Apertures, slit/mask overlap bookkeeping, sampled transmission."""
from pathlib import Path

import numpy as np
import pytest

from doubleslit.config import load_config
from doubleslit.errors import DomainError
from doubleslit.geometry import (
    ApertureSpec,
    BeamlineLayout,
    make_double_slit,
    make_mask,
    open_fraction,
    sampled_transmission,
)

NM = 1e-9
CONFIG_PATH = str(Path(__file__).resolve().parents[1] / "configs" / "default.cfg")
# open_fraction at the 41 centres of the default sweep, -2.8 um to 2.8 um.
SWEEP_FRACTIONS = (
    [(0.0, 0.0), (0.09999999999999692, 0.0), (1.0, 0.0), (1.0, 0.09999999999999375)]
    + [(1.0, 1.0)] * 33
    + [(0.10000000000000223, 1.0), (0.0, 1.0), (0.0, 0.1000000000000054), (0.0, 0.0)]
)


def test_double_slit_endpoints():
    slits = make_double_slit(50 * NM, 280 * NM)
    (l1, h1), (l2, h2) = slits.open_intervals
    assert (l1, h1) == pytest.approx((-165 * NM, -115 * NM))
    assert (l2, h2) == pytest.approx((115 * NM, 165 * NM))


def test_double_slit_mirror_symmetric():
    (l1, h1), (l2, h2) = make_double_slit(47 * NM, 293 * NM).open_intervals
    assert (l1, h1) == (-h2, -l2)


def test_overlapping_or_degenerate_slits_rejected():
    with pytest.raises(DomainError):
        make_double_slit(50 * NM, 40 * NM)
    with pytest.raises(DomainError):
        make_double_slit(280 * NM, 280 * NM)
    with pytest.raises(DomainError):
        make_double_slit(0.0, 280 * NM)


def test_aperture_interval_validation():
    with pytest.raises(DomainError):
        ApertureSpec(((1.0, 0.0),))       # inverted
    with pytest.raises(DomainError):
        ApertureSpec(((0.0, 2.0), (1.0, 3.0)))  # overlapping
    with pytest.raises(DomainError):
        ApertureSpec(((2.0, 3.0), (0.0, 1.0)))  # unsorted


def test_intersect_composes_serially():
    ap = ApertureSpec(((-2.0, -1.0), (0.0, 3.0)))
    once = ap.intersect(-1.5, 2.0)
    assert once.open_intervals == ((-1.5, -1.0), (0.0, 2.0))
    # A second identical restriction changes nothing (projection).
    assert once.intersect(-1.5, 2.0) == once
    assert ap.intersect(5.0, 6.0).is_blocked


def test_blocked_aperture_properties():
    blocked = ApertureSpec(())
    assert blocked.is_blocked
    assert blocked.total_open_length == 0.0
    slits = make_double_slit(50 * NM, 280 * NM)
    assert not slits.is_blocked
    assert slits.total_open_length == pytest.approx(100 * NM)
    assert slits.span() == pytest.approx((-165 * NM, 165 * NM))
    with pytest.raises(DomainError):
        blocked.span()


@pytest.mark.parametrize(
    "center_nm,expected",
    [
        (0.0, (1.0, 1.0)),        # centered 5 um opening admits both slits
        (-2520.0, (1.0, 0.0)),    # slit 1 only
        (2520.0, (0.0, 1.0)),     # slit 2 only
        (-2800.0, (0.0, 0.0)),    # everything shadowed
        (-2380.0, (1.0, 0.1)),    # 5 nm of slit 2 peeking out
    ],
)
def test_open_fraction_stations(center_nm, expected):
    slits = make_double_slit(50 * NM, 280 * NM)
    mask = make_mask(5e-6, center_nm * NM)
    f1, f2 = open_fraction(slits, mask)
    assert f1 == pytest.approx(expected[0], abs=1e-12)
    assert f2 == pytest.approx(expected[1], abs=1e-12)


def test_open_fraction_pins_the_default_sweep():
    # Interval arithmetic only, so the fractions are the same bits anywhere.
    config = load_config(CONFIG_PATH)
    slits = config.layout().doubleslit
    found = [
        open_fraction(slits, make_mask(config.mask_opening_width, float(c)))
        for c in np.linspace(-2.8e-6, 2.8e-6, 41)
    ]
    assert [(f1.hex(), f2.hex()) for f1, f2 in found] == [
        (f1.hex(), f2.hex()) for f1, f2 in SWEEP_FRACTIONS
    ]


def test_open_fraction_mirror_relation():
    slits = make_double_slit(50 * NM, 280 * NM)
    for c in (-2520.0, -2420.0, -100.0, 0.0, 777.0):
        f1, f2 = open_fraction(slits, make_mask(5e-6, c * NM))
        g1, g2 = open_fraction(slits, make_mask(5e-6, -c * NM))
        assert (f1, f2) == pytest.approx((g2, g1))


def test_open_fraction_requires_two_slits():
    with pytest.raises(DomainError):
        open_fraction(ApertureSpec(((0.0, 1.0),)), make_mask(5e-6, 0.0))


def test_sampled_transmission_cell_coverage():
    # One slit from 0.25 to 2.75 on a unit grid: edge cells get fractions.
    ap = ApertureSpec(((0.25, 2.75),))
    t = sampled_transmission(ap, x0=0.0, dx=1.0, n=5)
    # Cells are [-0.5,0.5), [0.5,1.5), ...: coverage 0.25, 1, 1, 0.25, 0.
    assert t == pytest.approx([0.25, 1.0, 1.0, 0.25, 0.0])
    assert t.max() <= 1.0


def test_sampled_transmission_total_matches_open_length():
    ap = make_double_slit(50 * NM, 280 * NM)
    dx = 1e-9
    t = sampled_transmission(ap, x0=-256 * NM, dx=dx, n=512)
    assert t.sum() * dx == pytest.approx(ap.total_open_length, rel=1e-12)


def test_layout_validation():
    slits = make_double_slit(50 * NM, 280 * NM)
    layout = BeamlineLayout(230e-6, 0.5, 10.0, slits, 5e-6)
    assert layout.magnification == 10.0
    with pytest.raises(DomainError):
        BeamlineLayout(-230e-6, 0.5, 10.0, slits, 5e-6)
    with pytest.raises(DomainError):
        BeamlineLayout(230e-6, 0.5, 0.0, slits, 5e-6)
