"""Property tests: the angular-spectrum step composes over distance.

Within the band, where no spectral sample is zeroed, the step is a pure
phase exp(-i pi lambda z f^2) on every frequency, so propagating z1 and
then z2 equals one step of z1 + z2 up to rounding.  The band holds while
the window-aliasing bound n dx / (2 lambda z) stays at or above the grid
Nyquist frequency 1 / (2 dx), that is z <= n dx^2 / lambda, and while the
scalar-wave limit 1 / lambda does too, that is dx >= lambda / 2.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleslit.propagation import (
    DEFAULT_MAX_ANGLE,
    WaveField,
    angular_spectrum_step,
    symmetric_grid_origin,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200, database=None)


@PROPERTY
@given(
    log2_n=st.integers(4, 11),
    wavelength=st.floats(1e-12, 1e-6),
    # dx / lambda, from the scalar-wave limit to the Nyquist-angle guard.
    pitch=st.floats(0.5, 0.5 / DEFAULT_MAX_ANGLE),
    reach=st.floats(0.0, 1.0 - 1e-9),
    split=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_angular_spectrum_steps_compose_within_the_band(
    log2_n, wavelength, pitch, reach, split, seed
):
    n = 2**log2_n
    dx = pitch * wavelength
    z = reach * n * dx * dx / wavelength
    z1, z2 = split * z, (1.0 - split) * z
    rng = np.random.default_rng(seed)
    amplitudes = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    field = WaveField(
        x0=symmetric_grid_origin(n, dx), dx=dx, wavelength=wavelength, amplitudes=amplitudes
    )
    once = angular_spectrum_step(field, z1 + z2)
    twice = angular_spectrum_step(angular_spectrum_step(field, z1), z2)
    # In the band nothing is zeroed, so the step keeps the power.
    assert abs(once.power() - field.power()) <= 1e-12 * field.power()
    scale = np.linalg.norm(field.amplitudes)
    assert np.linalg.norm(twice.amplitudes - once.amplitudes) <= 1e-11 * scale
