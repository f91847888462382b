"""Property tests of the two fast propagators.

Within the band, where no spectral sample is zeroed, the angular-spectrum
step is a pure phase exp(-i pi lambda z f^2) on every frequency, so
propagating z1 and then z2 equals one step of z1 + z2 up to rounding.  The
band holds while the window-aliasing bound n dx / (2 lambda z) stays at or
above the grid Nyquist frequency 1 / (2 dx), that is z <= n dx^2 / lambda,
and while the scalar-wave limit 1 / lambda does too, that is dx >= lambda / 2.

Both steps are linear, keep the discrete norm sum |a|^2 dx (the
angular-spectrum step inside the band, the single-step Fresnel transform
everywhere) and, on the symmetric grid, commute with the reflection
i -> n-1-i.  Every tolerance is relative to the input field's norm, which
both steps keep.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleslit.propagation import (
    DEFAULT_MAX_ANGLE,
    WaveField,
    angular_spectrum_step,
    fresnel_transform_step,
    symmetric_grid_origin,
)

PROPERTY = settings(max_examples=200)


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


STEPS = pytest.mark.parametrize("step", [angular_spectrum_step, fresnel_transform_step])
GRID = dict(
    log2_n=st.integers(4, 11),
    wavelength=st.floats(1e-12, 1e-6),
    pitch=st.floats(0.5, 0.5 / DEFAULT_MAX_ANGLE),
    # z / (n dx^2 / lambda): inside the band.  The floor keeps the Fresnel
    # chirps below ~3e4 rad, where rounding of the phase stays far below
    # the tolerances.
    reach=st.floats(0.05, 1.0 - 1e-9),
    seed=st.integers(0, 2**32 - 1),
)


def grid_fields(log2_n, wavelength, pitch, reach, seed, count):
    """`count` random fields on one symmetric grid, and an in-band distance."""
    n = 2**log2_n
    dx = pitch * wavelength
    rng = np.random.default_rng(seed)
    fields = [
        WaveField(
            x0=symmetric_grid_origin(n, dx),
            dx=dx,
            wavelength=wavelength,
            amplitudes=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        )
        for _ in range(count)
    ]
    return fields, reach * n * dx * dx / wavelength


def norm(field):
    return np.sqrt(field.power())


@STEPS
@PROPERTY
@given(**GRID)
def test_steps_keep_the_norm_within_the_band(step, log2_n, wavelength, pitch, reach, seed):
    (field,), z = grid_fields(log2_n, wavelength, pitch, reach, seed, 1)
    assert abs(step(field, z).power() - field.power()) <= 1e-12 * field.power()


@STEPS
@PROPERTY
@given(**GRID, a=st.complex_numbers(max_magnitude=1e3), b=st.complex_numbers(max_magnitude=1e3))
def test_steps_are_linear(step, log2_n, wavelength, pitch, reach, seed, a, b):
    (f, g), z = grid_fields(log2_n, wavelength, pitch, reach, seed, 2)
    mixed = step(WaveField(f.x0, f.dx, f.wavelength, a * f.amplitudes + b * g.amplitudes), z)
    out_f, out_g = step(f, z), step(g, z)
    residual = mixed.amplitudes - (a * out_f.amplitudes + b * out_g.amplitudes)
    scale = abs(a) * norm(f) + abs(b) * norm(g)
    assert np.sqrt(np.sum(np.abs(residual) ** 2) * mixed.dx) <= 1e-11 * scale


@STEPS
@PROPERTY
@given(**GRID)
def test_steps_commute_with_reflection(step, log2_n, wavelength, pitch, reach, seed):
    (field,), z = grid_fields(log2_n, wavelength, pitch, reach, seed, 1)
    mirrored = WaveField(field.x0, field.dx, field.wavelength, field.amplitudes[::-1])
    out, out_mirrored = step(field, z), step(mirrored, z)
    # The output grid is symmetric too, so reflection is again i -> n-1-i.
    assert np.isclose(out.x0, -out.x[-1], rtol=0, atol=1e-9 * out.dx)
    residual = out_mirrored.amplitudes - out.amplitudes[::-1]
    assert np.sqrt(np.sum(np.abs(residual) ** 2) * out.dx) <= 1e-11 * norm(field)
