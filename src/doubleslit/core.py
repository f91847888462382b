"""Electron beam parameters and single-electron-regime statistics.

All formulas are nonrelativistic; at the energies of interest here
(hundreds of eV) the relativistic wavelength correction is a few 1e-4
relative and is deliberately ignored.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# CODATA 2018 values, 10 significant digits.
PLANCK_CONSTANT = 6.626070150e-34     # J s (exact)
ELECTRON_MASS = 9.109383702e-31       # kg
ELEMENTARY_CHARGE = 1.602176634e-19   # C (exact)


def de_broglie_wavelength(kinetic_energy_ev: float) -> float:
    """Nonrelativistic de Broglie wavelength, h / sqrt(2 m E), in meters.

    `kinetic_energy_ev` is the electron kinetic energy in eV.  An energy
    whose 2 m E underflows to 0 has no finite wavelength and is refused.
    """
    if not kinetic_energy_ev > 0:
        raise DomainError(f"kinetic energy must be positive, got {kinetic_energy_ev} eV")
    energy_j = kinetic_energy_ev * ELEMENTARY_CHARGE
    momentum_squared = 2.0 * ELECTRON_MASS * energy_j
    if not momentum_squared > 0:
        raise DomainError(
            f"kinetic energy {kinetic_energy_ev} eV is too small for a finite wavelength"
        )
    return PLANCK_CONSTANT / math.sqrt(momentum_squared)


def electron_speed(kinetic_energy_ev: float) -> float:
    """Nonrelativistic electron speed sqrt(2 E / m) in m/s."""
    if not kinetic_energy_ev > 0:
        raise DomainError(f"kinetic energy must be positive, got {kinetic_energy_ev} eV")
    energy_j = kinetic_energy_ev * ELEMENTARY_CHARGE
    return math.sqrt(2.0 * energy_j / ELECTRON_MASS)


def mean_interelectron_distance(speed: float, detection_rate: float) -> float:
    """Average beamline distance between consecutive electrons, speed / rate.

    At ~Hz detection rates and keV-scale speeds this is millions of meters,
    which is what guarantees the one-electron-at-a-time regime.
    """
    if not speed > 0:
        raise DomainError(f"speed must be positive, got {speed} m/s")
    if not detection_rate > 0:
        raise DomainError(f"detection rate must be positive, got {detection_rate} Hz")
    return speed / detection_rate


@dataclass(frozen=True)
class BeamParameters:
    """Kinematic description of the electron beam.

    Only the kinetic energy (eV) is stored; the wavelength (m) and speed
    (m/s) follow from it under the nonrelativistic de Broglie relation.
    """

    kinetic_energy: float  # eV

    def __post_init__(self) -> None:
        if not self.kinetic_energy > 0:
            raise DomainError("kinetic_energy must be positive")

    @property
    def wavelength(self) -> float:
        return de_broglie_wavelength(self.kinetic_energy)

    @property
    def speed(self) -> float:
        return electron_speed(self.kinetic_energy)
