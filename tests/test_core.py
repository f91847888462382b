"""Beam kinematics: wavelength, speed, single-electron-regime distance."""
import math
from dataclasses import fields

import numpy as np
import pytest

from doubleslit.core import (
    ELECTRON_MASS,
    PLANCK_CONSTANT,
    BeamParameters,
    de_broglie_wavelength,
    electron_speed,
    mean_interelectron_distance,
)
from doubleslit.errors import DomainError


def test_wavelength_600ev_value():
    # Frozen from h / sqrt(2 m E) with the CODATA 2018 constants.
    assert de_broglie_wavelength(600.0) == pytest.approx(
        5.0068630405081505e-11, rel=1e-12
    )


def test_wavelength_scales_as_inverse_sqrt_energy():
    energies = np.logspace(0.0, 4.0, 41)
    products = np.array([de_broglie_wavelength(e) * math.sqrt(e) for e in energies])
    assert np.max(np.abs(products / products[0] - 1.0)) < 1e-10


def test_speed_wavelength_product_is_h_over_m():
    for e in (1.0, 37.5, 600.0, 1e4):
        got = electron_speed(e) * de_broglie_wavelength(e)
        assert got == pytest.approx(PLANCK_CONSTANT / ELECTRON_MASS, rel=1e-10)


def test_speed_600ev_value():
    assert electron_speed(600.0) == pytest.approx(1.4527849e7, rel=1e-6)


def test_interelectron_distance_is_speed_over_rate():
    assert mean_interelectron_distance(1.5e7, 3.0) == 5e6
    assert mean_interelectron_distance(electron_speed(600.0), 6.32) == pytest.approx(
        electron_speed(600.0) / 6.32
    )


@pytest.mark.parametrize("bad", [0.0, -1.0, -600.0])
def test_nonpositive_energy_rejected(bad):
    with pytest.raises(DomainError):
        de_broglie_wavelength(bad)
    with pytest.raises(DomainError):
        electron_speed(bad)


def test_nonpositive_rate_or_speed_rejected():
    with pytest.raises(DomainError):
        mean_interelectron_distance(0.0, 1.0)
    with pytest.raises(DomainError):
        mean_interelectron_distance(1e7, 0.0)


def test_beam_parameters_consistency_enforced():
    # Only the energy is stored, so wavelength and speed cannot disagree
    # with it: both are derived on access.
    assert [f.name for f in fields(BeamParameters)] == ["kinetic_energy"]
    beam = BeamParameters(600.0)
    assert beam.wavelength == de_broglie_wavelength(600.0)
    assert beam.speed == electron_speed(600.0)
    for energy in (0.0, -600.0, float("nan")):
        with pytest.raises(DomainError):
            BeamParameters(energy)
