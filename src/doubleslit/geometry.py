"""Aperture transmission functions and slit-occlusion bookkeeping.

Coordinate convention: the beam travels along +z, the transverse axis is x.
Slit 1 is the slit at negative x, slit 2 the one at positive x.  Apertures
are binary (open/blocked) and 1D; they are described by sorted disjoint
open intervals on the x axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ApertureSpec:
    """Transmission function on a transverse line: sorted disjoint open intervals.

    An empty interval tuple is the fully blocked aperture.
    """

    open_intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        prev_hi = -np.inf
        for lo, hi in self.open_intervals:
            if not lo < hi:
                raise DomainError(f"degenerate aperture interval ({lo}, {hi})")
            if lo < prev_hi:
                raise DomainError("aperture intervals must be sorted and disjoint")
            prev_hi = hi

    @property
    def total_open_length(self) -> float:
        return sum(hi - lo for lo, hi in self.open_intervals)

    @property
    def is_blocked(self) -> bool:
        return len(self.open_intervals) == 0

    def span(self) -> tuple[float, float]:
        """Outermost extent (lo of first interval, hi of last)."""
        if self.is_blocked:
            raise DomainError("blocked aperture has no span")
        return self.open_intervals[0][0], self.open_intervals[-1][1]

    def intersect(self, lo: float, hi: float) -> "ApertureSpec":
        """Serial composition with a single open interval (lo, hi).

        Physically: stacking a second aperture at the same plane.  The
        operation is idempotent: a.intersect(*a.span()) leaves `a` unchanged,
        and intersecting with the same aperture twice equals once.
        """
        clipped = []
        for a, b in self.open_intervals:
            c, d = max(a, lo), min(b, hi)
            if c < d:
                clipped.append((c, d))
        return ApertureSpec(tuple(clipped))


def make_double_slit(width: float, separation: float) -> ApertureSpec:
    """Two slits of `width` centered at ±separation/2 (center-to-center).

    Slit 1 is the negative-x interval, slit 2 the positive-x one.
    """
    if not width > 0:
        raise DomainError(f"slit width must be positive, got {width}")
    if not width < separation:
        raise DomainError(
            f"slit width {width} must be smaller than the center-to-center "
            f"separation {separation} (slits would overlap)"
        )
    half = 0.5 * separation
    return ApertureSpec(
        (
            (-half - 0.5 * width, -half + 0.5 * width),
            (half - 0.5 * width, half + 0.5 * width),
        )
    )


def make_mask(opening_width: float, center: float) -> ApertureSpec:
    """Mask with a single opening of `opening_width` centered at `center`."""
    if not opening_width > 0:
        raise DomainError(f"mask opening width must be positive, got {opening_width}")
    return ApertureSpec(((center - 0.5 * opening_width, center + 0.5 * opening_width),))


def open_fraction(slits: ApertureSpec, mask: ApertureSpec) -> tuple[float, float]:
    """Fraction of each slit whose forward projection clears the mask opening.

    The illumination is collimated along z, so the straight-line projection
    onto the mask plane is the identity in x, independent of the slit-to-mask
    gap: a slit's clear length is the open length of the mask clipped to
    that slit (`ApertureSpec.intersect`).
    """
    if len(slits.open_intervals) != 2:
        raise DomainError(
            f"expected a double slit (2 intervals), got {len(slits.open_intervals)}"
        )
    (l1, h1), (l2, h2) = slits.open_intervals
    return (
        mask.intersect(l1, h1).total_open_length / (h1 - l1),
        mask.intersect(l2, h2).total_open_length / (h2 - l2),
    )


def sampled_transmission(aperture: ApertureSpec, x0: float, dx: float, n: int) -> np.ndarray:
    """Aperture indicator sampled on a uniform grid with anti-aliased edges.

    Sample i represents the cell [x_i - dx/2, x_i + dx/2] with
    x_i = x0 + i*dx; its value is the fraction of the cell covered by the
    open intervals, so interior samples are 1, blocked samples are 0 and the
    two edge samples of each interval carry their covered fraction.
    """
    if not dx > 0 or n < 1:
        raise DomainError("grid must have positive pitch and at least one sample")
    t = np.zeros(n)
    cell_lo = x0 + (np.arange(n) - 0.5) * dx
    cell_hi = cell_lo + dx
    for lo, hi in aperture.open_intervals:
        t += np.clip((np.minimum(cell_hi, hi) - np.maximum(cell_lo, lo)) / dx, 0.0, 1.0)
    # Disjoint intervals can both touch one cell; coverage still cannot exceed 1.
    return np.minimum(t, 1.0)


@dataclass(frozen=True)
class BeamlineLayout:
    """Distances, apertures and magnification from the double slit to the detector."""

    z_doubleslit_to_mask: float
    z_mask_to_detector: float
    magnification: float
    doubleslit: ApertureSpec
    mask_opening_width: float

    def __post_init__(self) -> None:
        for name in (
            "z_doubleslit_to_mask",
            "z_mask_to_detector",
            "magnification",
            "mask_opening_width",
        ):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
