"""Quantitative pattern metrics: periodicity, contrast, occlusion, fit.

The classification labels used for mask sweeps are: "blocked" (no slit
clear), "slit1" (only the negative-x slit clear), "slit2" (only the
positive-x slit), "both" (both fully clear) and "mixed" (anything
partial).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import BeamParameters
from .errors import DomainError
from .geometry import BeamlineLayout, make_mask, open_fraction
from .propagation import GridSpec, IntensityProfile, simulate_beamline
from .sampler import profile_cdf


class NoPeriodicityError(DomainError):
    """Raised when a profile has too few principal maxima to carry a period."""


def classify_fractions(f1: float, f2: float, tol: float = 1e-9) -> str:
    """Label a mask position from the per-slit clear fractions."""
    open1, open2 = f1 >= 1 - tol, f2 >= 1 - tol
    shut1, shut2 = f1 <= tol, f2 <= tol
    if open1 and open2:
        return "both"
    if open1 and shut2:
        return "slit1"
    if shut1 and open2:
        return "slit2"
    if shut1 and shut2:
        return "blocked"
    return "mixed"


@dataclass(frozen=True)
class SweepEntry:
    mask_center: float
    profile: IntensityProfile
    fractions: tuple[float, float]
    label: str


@dataclass(frozen=True)
class SweepResult:
    """Profiles over a monotone sequence of mask centers, one shared grid."""

    entries: tuple[SweepEntry, ...]

    def __post_init__(self) -> None:
        centers = [e.mask_center for e in self.entries]
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise DomainError("mask centers must be strictly increasing")
        grids = {(e.profile.x0, e.profile.dx, e.profile.n) for e in self.entries}
        if len(grids) > 1:
            raise DomainError("sweep profiles must share one grid")

    @property
    def labels(self) -> list[str]:
        return [e.label for e in self.entries]


def run_sweep(
    layout: BeamlineLayout,
    beam: BeamParameters,
    centers,
    grid: GridSpec,
    jobs: int = 1,
) -> SweepResult:
    """Simulate the beamline at every mask center.

    Each center is an independent pure computation, so jobs > 1 evaluates
    them in a thread pool; results are ordered by center and bit-identical
    to the sequential run.
    """
    centers = [float(c) for c in centers]

    def one(c: float) -> SweepEntry:
        profile = simulate_beamline(layout, beam, c, grid)
        fr = open_fraction(layout.doubleslit, make_mask(layout.mask_opening_width, c))
        return SweepEntry(
            mask_center=c, profile=profile, fractions=fr, label=classify_fractions(*fr)
        )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(one, centers))
    else:
        entries = [one(c) for c in centers]
    return SweepResult(entries=tuple(entries))


def _principal_maxima_count(values: np.ndarray) -> int:
    half = 0.5 * values.max()
    interior = values[1:-1]
    peaks = (interior > values[:-2]) & (interior >= values[2:]) & (interior > half)
    return int(np.count_nonzero(peaks))


def fringe_spacing(profile: IntensityProfile) -> float:
    """Dominant fringe period via the spectral peak of the autocorrelation.

    The power spectrum of the (Hann-windowed) profile is the Fourier
    transform of its autocorrelation; the strongest line beyond the
    envelope's DC lobe is the fringe frequency, refined by a parabolic fit
    on log power.
    """
    v = profile.values
    if v.size < 8 or not np.any(v > 0):
        raise NoPeriodicityError("profile too small or empty")
    if _principal_maxima_count(v) < 4:
        raise NoPeriodicityError(
            "fewer than 4 principal maxima above half of the central order; "
            "profile carries no fringe period"
        )
    power = np.abs(np.fft.rfft(v * np.hanning(v.size))) ** 2
    freqs = np.fft.rfftfreq(v.size, profile.dx)
    i = 1
    while i < power.size - 1 and not (power[i] < power[i - 1] and power[i] <= power[i + 1]):
        i += 1
    if i >= power.size - 1:
        raise NoPeriodicityError("no spectral line beyond the envelope lobe")
    j = i + int(np.argmax(power[i:]))
    if j >= power.size - 1 or power[j - 1] <= 0 or power[j + 1] <= 0:
        raise NoPeriodicityError("spectral peak not interior to the band")
    l0, l1, l2 = np.log(power[j - 1 : j + 2])
    denom = l0 - 2 * l1 + l2
    d = 0.5 * (l0 - l2) / denom if denom != 0 else 0.0
    f_peak = freqs[j] + d * (freqs[1] - freqs[0])
    return 1.0 / f_peak


def visibility(
    profile: IntensityProfile,
    window: tuple[float, float],
    envelope_scale: float | None = None,
) -> float:
    """Fringe contrast (Imax - Imin) / (Imax + Imin) inside the window.

    envelope_scale, when given, is the first zero of the single-slit
    envelope; the profile is divided by sinc^2(x / envelope_scale) before
    taking the extrema so that envelope slope does not masquerade as
    contrast.  Samples where the envelope is below 1e-9 are excluded.
    """
    lo, hi = window
    if not lo < hi:
        raise DomainError(f"degenerate visibility window ({lo}, {hi})")
    x = profile.x
    sel = (x >= lo) & (x <= hi)
    if np.count_nonzero(sel) < 4:
        raise DomainError("visibility window contains fewer than 4 samples")
    vals = profile.values[sel]
    if envelope_scale is not None:
        env = np.sinc(x[sel] / envelope_scale) ** 2
        keep = env > 1e-9
        if np.count_nonzero(keep) < 4:
            raise DomainError("visibility window lies inside an envelope zero")
        vals = vals[keep] / env[keep]
    v_max, v_min = float(vals.max()), float(vals.min())
    if v_max + v_min == 0:
        return 0.0
    return (v_max - v_min) / (v_max + v_min)


def interference_term(
    p12: IntensityProfile, p1: IntensityProfile, p2: IntensityProfile
) -> np.ndarray:
    """Pointwise p12 - p1 - p2 on a shared grid under a common flux gauge.

    The inputs must not be individually normalized: renormalizing each
    profile to 1 destroys the flux bookkeeping that makes the term integrate
    to zero.
    """
    for name, pr in (("p12", p12), ("p1", p1), ("p2", p2)):
        if pr.normalized:
            raise DomainError(
                f"{name} is normalized to unit integral; interference needs a "
                "common incident-flux gauge"
            )
    same = (
        p12.n == p1.n == p2.n
        and abs(p12.x0 - p1.x0) <= 1e-9 * p12.dx
        and abs(p12.x0 - p2.x0) <= 1e-9 * p12.dx
        and abs(p12.dx - p1.dx) <= 1e-9 * p12.dx
        and abs(p12.dx - p2.dx) <= 1e-9 * p12.dx
    )
    if not same:
        raise DomainError("interference term requires all profiles on one grid")
    return p12.values - p1.values - p2.values


def highest_unblocked_order(
    mask_half_width: float, z_gap: float, wavelength: float, separation: float
) -> int:
    """Highest two-slit order whose ray at the mask plane clears the opening.

    Order m leaves the slits at angle m * wavelength / separation and lands
    at z_gap * angle on the mask; the opening half-width caps m.
    """
    for name, v in (
        ("mask_half_width", mask_half_width),
        ("z_gap", z_gap),
        ("wavelength", wavelength),
        ("separation", separation),
    ):
        if not v > 0:
            raise DomainError(f"{name} must be positive, got {v}")
    return int(np.floor(mask_half_width * separation / (wavelength * z_gap)))


def ks_distance(events, reference: IntensityProfile) -> float:
    """One-sample Kolmogorov-Smirnov statistic of events vs the profile."""
    xs = np.sort(np.asarray(events, dtype=np.float64))
    if xs.size == 0:
        raise DomainError("KS distance needs at least one event")
    edges, cdf = profile_cdf(reference)
    f = np.interp(xs, edges, cdf)
    n = xs.size
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(np.abs(f - i / n), np.abs(f - (i - 1) / n))))
