"""Electron double-slit diffraction simulator.

Scalar wave propagation of a coherent plane wave from the double slit
through a movable blocking mask to the detector; detection-event
sampling; synthetic camera frames; scale-space blob detection; build-up
image accumulation.
"""
from .analysis import (
    NoPeriodicityError,
    SweepEntry,
    SweepResult,
    classify_fractions,
    fringe_spacing,
    highest_unblocked_order,
    interference_term,
    ks_distance,
    run_sweep,
    visibility,
)
from .blobdetect import (
    BlobDescriptor,
    BuildUpResult,
    accumulate_buildup,
    detect_blobs,
    geometric_scales,
    scale_space_response,
)
from .buildup import BuildUpRun, run_buildup, run_detect
from .config import RunConfig, build_config, load_config, parse_config_text
from .core import (
    BeamParameters,
    de_broglie_wavelength,
    electron_speed,
    mean_interelectron_distance,
)
from .errors import ConfigError, DomainError, FrameFileError, GridConfigError
from .geometry import (
    ApertureSpec,
    BeamlineLayout,
    make_double_slit,
    make_mask,
    open_fraction,
    sampled_transmission,
)
from .pgm import read_pgm, write_pgm
from .propagation import (
    GridSpec,
    IntensityProfile,
    WaveField,
    angular_spectrum_step,
    apply_aperture,
    direct_integral_reference,
    field_at_mask,
    fresnel_transform_step,
    intensity_profile,
    magnify,
    simulate_beamline,
    simulate_detector_field,
)
from .sampler import (
    DetectionEvent,
    Frame,
    make_events,
    render_frame,
    sample_arrival_times,
    sample_heights,
    sample_positions,
)

__version__ = "0.1.0"
