"""Scalar 1D wave propagation between beamline planes.

Conventions used throughout:

* Fields are sampled on uniform grids x_i = x0 + i*dx.  Beamline planes use
  the symmetric grid x0 = -(n-1)/2 * dx, which makes reflection about the
  optical axis an exact sample permutation (i -> n-1-i).
* All propagators omit the longitudinal carrier exp(ikz).  The carrier is a
  global phase with no effect on intensities, and dropping it everywhere
  keeps the three propagation routes directly comparable.
* The Fresnel kernel in one dimension is

      K(x2, x1) = exp(-i pi/4) / sqrt(lambda z) * exp(i pi (x2-x1)^2 / (lambda z))

  whose transfer function is exp(-i pi lambda z f^2).  Both the spectral
  step and the single-step transform below are exact discretizations of
  this kernel and preserve the discrete L2 norm.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import BeamParameters
from .errors import DomainError, GridConfigError
from .geometry import ApertureSpec, BeamlineLayout, make_mask, sampled_transmission

# Largest diffraction angle the sampling grid must resolve.  The default
# mask geometry passes orders beyond the 60th, which at 600 eV corresponds
# to about 1.1e-2 rad; 1.5e-2 leaves margin.
DEFAULT_MAX_ANGLE = 1.5e-2


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)
class WaveField:
    """Complex transverse field sampled on a uniform grid."""

    x0: float
    dx: float
    wavelength: float
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "amplitudes", np.asarray(self.amplitudes, dtype=np.complex128)
        )
        if self.amplitudes.ndim != 1:
            raise DomainError("field amplitudes must be a 1D array")
        if not _is_power_of_two(self.n):
            raise GridConfigError(
                f"grid size must be a power of two >= 2, got {self.n}"
            )
        if not self.dx > 0:
            raise DomainError(f"grid pitch must be positive, got {self.dx}")
        if not self.wavelength > 0:
            raise DomainError(f"wavelength must be positive, got {self.wavelength}")
        if not np.all(np.isfinite(self.amplitudes)):
            raise DomainError("field amplitudes must be finite")

    @property
    def n(self) -> int:
        return self.amplitudes.size

    @property
    def x(self) -> np.ndarray:
        return self.x0 + np.arange(self.n) * self.dx

    @property
    def window(self) -> tuple[float, float]:
        """Extent covered by the sample cells, [x0 - dx/2, x_last + dx/2]."""
        return self.x0 - 0.5 * self.dx, self.x0 + (self.n - 0.5) * self.dx

    def power(self) -> float:
        """Discrete L2 norm squared, sum |a|^2 dx."""
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.dx)


@dataclass(frozen=True, eq=False)
class IntensityProfile:
    """Nonnegative detection density on a uniform grid."""

    x0: float
    dx: float
    values: np.ndarray
    normalized: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1:
            raise DomainError("profile values must be a 1D array")
        if not self.dx > 0:
            raise DomainError(f"grid pitch must be positive, got {self.dx}")
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise DomainError("profile values must be finite and nonnegative")
        if self.normalized:
            total = float(np.sum(self.values) * self.dx)
            if abs(total - 1.0) > 1e-9:
                raise DomainError(f"normalized profile integrates to {total}, not 1")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return self.x0 + np.arange(self.n) * self.dx

    def total(self) -> float:
        return float(np.sum(self.values) * self.dx)


@dataclass(frozen=True)
class GridSpec:
    """Transverse sampling grid at the slit plane: full window width and size."""

    window: float
    n: int

    def __post_init__(self) -> None:
        if not self.window > 0:
            raise DomainError(f"grid window must be positive, got {self.window}")
        if not _is_power_of_two(self.n):
            raise GridConfigError(
                f"grid size must be a power of two >= 2, got {self.n}"
            )

    @property
    def dx(self) -> float:
        return self.window / self.n


def symmetric_grid_origin(n: int, dx: float) -> float:
    """Origin placing sample (n-1)/2 on the optical axis."""
    return -(n - 1) / 2 * dx


def apply_aperture(field: WaveField, aperture: ApertureSpec) -> WaveField:
    """Multiply the field by the aperture indicator, anti-aliased at edges.

    The aperture must lie inside the grid window; a mask hanging off the
    edge of the modeled region would silently lose flux, so it is rejected.
    """
    lo, hi = field.window
    for a, b in aperture.open_intervals:
        if a < lo or b > hi:
            raise DomainError(
                f"aperture interval ({a}, {b}) extends beyond grid window ({lo}, {hi})"
            )
    t = sampled_transmission(aperture, field.x0, field.dx, field.n)
    return replace(field, amplitudes=field.amplitudes * t)


def angular_spectrum_step(field: WaveField, z: float) -> WaveField:
    """Propagate a distance z by phase multiplication in the spectral domain.

    The spectrum is multiplied by exp(-i pi lambda z f^2).  Frequencies
    beyond the scalar-wave limit 1/lambda, or beyond the window-aliasing
    bound W/(2 lambda z) where the sampled transfer phase turns over, are
    zeroed.  On the beamline grids neither bound is reached, so the step is
    exactly unitary there.  The grid Nyquist angle lambda/(2 dx) must cover
    DEFAULT_MAX_ANGLE, the largest diffraction angle the grid has to resolve.

    Parameters
    ----------
    field : WaveField
        Input field.
    z : float
        Propagation distance in meters; must be nonnegative.
    """
    if z < 0:
        raise DomainError(f"propagation distance must be nonnegative, got {z}")
    lam = field.wavelength
    nyquist_angle = lam / (2 * field.dx)
    if nyquist_angle < DEFAULT_MAX_ANGLE:
        raise GridConfigError(
            f"grid Nyquist angle {nyquist_angle:.3e} rad does not cover the "
            f"required maximum diffraction angle {DEFAULT_MAX_ANGLE:.3e} rad; "
            f"decrease dx below {lam / (2 * DEFAULT_MAX_ANGLE):.3e} m"
        )
    if z == 0:
        return replace(field, amplitudes=field.amplitudes.copy())
    n = field.n
    f = np.fft.fftfreq(n, field.dx)
    transfer = np.exp(-1j * np.pi * lam * z * f * f)
    f_limit = min(1.0 / lam, n * field.dx / (2 * lam * z))
    transfer[np.abs(f) > f_limit] = 0.0
    out = np.fft.ifft(np.fft.fft(field.amplitudes) * transfer)
    return replace(field, amplitudes=out)


# The key (n, dx, x0, wavelength, z) of the last Fresnel step, and its
# factors once that key has come twice in a row: every pass of a sweep after
# the second reuses them, while a command that runs one pass keeps nothing.
_fresnel_memo: list = [None, None]


def _fresnel_factors(n: int, dx: float, x0: float, lam: float, z: float) -> tuple:
    """fresnel_transform_step's input chirp, half-sample shift and output
    factor, read-only; they depend on the grid and z alone."""
    key = (n, dx, x0, lam, z)
    last, kept = _fresnel_memo
    if kept is not None and key == last:
        return kept
    lz = lam * z
    x1 = x0 + np.arange(n) * dx
    chirp_in = np.exp(1j * np.pi * x1 * x1 / lz)
    del x1  # a one-pass command's peak memory is set in this function
    x2 = (np.arange(n) - (n - 1) / 2) * (lz / (n * dx))
    # The shift aligns the DFT output bins with the recentered output grid.
    shift = np.exp(1j * np.pi * np.arange(n) * (n - 1) / n)
    prefactor = dx * np.exp(-1j * np.pi / 4) / np.sqrt(lz)
    chirp_out = (
        prefactor * np.exp(1j * np.pi * x2 * x2 / lz) * np.exp(-2j * np.pi * x0 * x2 / lz)
    )
    factors = (chirp_in, shift, chirp_out)
    for factor in factors:
        factor.flags.writeable = False
    _fresnel_memo[:] = [key, factors if key == last else None]
    return factors


def fresnel_transform_step(field: WaveField, z: float) -> WaveField:
    """Propagate a distance z with a single scaled Fourier transform.

    Exact discretization of the Fresnel integral on the output grid with
    pitch dx' = lambda z / (n dx), recentered on the optical axis.  Because
    every factor is a pure phase and the DFT obeys Parseval's identity,
    the discrete norm sum |a|^2 dx is preserved exactly.
    """
    if not z > 0:
        raise DomainError(f"propagation distance must be positive, got {z}")
    lam, n, dx = field.wavelength, field.n, field.dx
    chirp_in, shift, chirp_out = _fresnel_factors(n, dx, field.x0, lam, z)
    # Under FMA a complex a*b and b*a can differ in the last bit.  Each factor
    # goes first, as numpy's temporary elision ordered the product when the
    # factor was a fresh temporary of 256 KiB or more; the spectrum is named
    # so that no elision moves chirp_out behind it.
    g = chirp_in * field.amplitudes
    g = shift * g
    spectrum = np.fft.fft(g)
    dx_out = lam * z / (n * dx)
    return WaveField(symmetric_grid_origin(n, dx_out), dx_out, lam, chirp_out * spectrum)


def direct_integral_reference(
    field: WaveField, z: float, targets: np.ndarray
) -> np.ndarray:
    """Brute-force Fresnel quadrature at arbitrary target points.

    O(n * len(targets)); serves as the oracle for the two fast steps.
    """
    if not z > 0:
        raise DomainError(f"propagation distance must be positive, got {z}")
    targets = np.asarray(targets, dtype=np.float64)
    lam = field.wavelength
    lz = lam * z
    prefactor = field.dx * np.exp(-1j * np.pi / 4) / np.sqrt(lz)
    x1 = field.x
    out = np.empty(targets.size, dtype=np.complex128)
    chunk = max(1, (1 << 22) // field.n)
    for i in range(0, targets.size, chunk):
        t = targets[i : i + chunk, None]
        kernel = np.exp(1j * np.pi * (t - x1[None, :]) ** 2 / lz)
        out[i : i + chunk] = kernel @ field.amplitudes
    return prefactor * out


def magnify(field: WaveField, magnification: float) -> WaveField:
    """Rescale coordinates by M, amplitudes by 1/sqrt(M); power is conserved."""
    if not magnification > 0:
        raise DomainError(f"magnification must be positive, got {magnification}")
    m = magnification
    return WaveField(
        x0=field.x0 * m,
        dx=field.dx * m,
        wavelength=field.wavelength,
        amplitudes=field.amplitudes / np.sqrt(m),
    )


def intensity_profile(field: WaveField, normalize: bool = True) -> IntensityProfile:
    """Squared modulus of the field, optionally normalized to unit integral.

    A field with zero total flux cannot be normalized; it is returned
    as-is with the normalized flag down.
    """
    values = np.abs(field.amplitudes) ** 2
    if normalize:
        total = float(np.sum(values) * field.dx)
        if total > 0:
            return IntensityProfile(
                x0=field.x0, dx=field.dx, values=values / total, normalized=True
            )
    return IntensityProfile(x0=field.x0, dx=field.dx, values=values, normalized=False)


def _check_support(aperture: ApertureSpec, window: float, name: str) -> None:
    # Quadratic-phase tails wrap around the periodic FFT window; keeping the
    # open support within a quarter window bounds the wrapped energy.
    if aperture.is_blocked:
        return
    lo, hi = aperture.span()
    if hi - lo > window / 4:
        raise GridConfigError(
            f"{name} support {hi - lo:.3e} m exceeds a quarter of the "
            f"{window:.3e} m grid window; enlarge the window"
        )


def field_at_mask(
    layout: BeamlineLayout,
    beam: BeamParameters,
    grid: GridSpec,
) -> WaveField:
    """Field arriving at the mask plane, before the mask.

    Composition: unit plane wave -> double slit -> spectral step over the
    slit/mask gap.  Nothing here depends on the mask position, so a sweep
    computes it once and passes it to every beamline pass as `at_mask`.
    """
    n, dx = grid.n, grid.dx
    x0 = symmetric_grid_origin(n, dx)
    _check_support(layout.doubleslit, grid.window, "double-slit")
    plane_wave = np.ones(n, dtype=np.complex128)
    field = WaveField(x0=x0, dx=dx, wavelength=beam.wavelength, amplitudes=plane_wave)
    field = apply_aperture(field, layout.doubleslit)
    return angular_spectrum_step(field, layout.z_doubleslit_to_mask)


def simulate_detector_field(
    layout: BeamlineLayout,
    beam: BeamParameters,
    mask_center: float | None,
    grid: GridSpec,
    at_mask: WaveField | None = None,
) -> WaveField:
    """Field at the detector plane, after magnification.

    Composition: field at the mask (see field_at_mask) -> mask ->
    single-step Fresnel transform to the detector -> coordinate
    magnification.  A mask opening clipped entirely outside the grid window
    blocks everything and yields a zero field on the detector grid.  Passing
    mask_center=None removes the mask, the reference for quantifying how
    little a centered mask disturbs the pattern.

    at_mask, when given, is the result of field_at_mask for the same
    layout, beam and grid; it replaces that computation, which is then
    skipped.  Only its grid (n, dx, x0) and wavelength are checked: a field
    computed for another slit layout is not detected and gives a wrong
    detector field.
    """
    if at_mask is None:
        field = field_at_mask(layout, beam, grid)
    elif (at_mask.n, at_mask.dx, at_mask.x0, at_mask.wavelength) != (
        grid.n, grid.dx, symmetric_grid_origin(grid.n, grid.dx), beam.wavelength
    ):
        raise DomainError("at_mask field was not computed on this grid and beam")
    else:
        field = at_mask
    if mask_center is not None:
        mask = make_mask(layout.mask_opening_width, mask_center)
        mask = mask.intersect(*field.window)
        _check_support(mask, grid.window, "mask")
        field = apply_aperture(field, mask)
    field = fresnel_transform_step(field, layout.z_mask_to_detector)
    return magnify(field, layout.magnification)


def simulate_beamline(
    layout: BeamlineLayout,
    beam: BeamParameters,
    mask_center: float | None,
    grid: GridSpec,
    normalize: bool = True,
    at_mask: WaveField | None = None,
) -> IntensityProfile:
    """Detector-plane intensity for one mask position.

    With normalize=True the profile integrates to 1 (detection density);
    with normalize=False it keeps the flux implied by unit incident
    amplitude, which is the right gauge for comparing flux across mask
    positions or slit subsets.  at_mask is as in simulate_detector_field.
    """
    field = simulate_detector_field(layout, beam, mask_center, grid, at_mask)
    return intensity_profile(field, normalize=normalize)
