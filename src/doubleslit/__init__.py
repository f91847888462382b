"""Electron double-slit diffraction simulator.

Scalar wave propagation of a coherent plane wave from the double slit
through a movable blocking mask to the detector; detection-event
sampling; synthetic camera frames; scale-space blob detection; build-up
image accumulation.  Import each name from the module that defines it;
the root re-exports only the names the benchmark harness imports.
"""
from .analysis import run_sweep
from .config import load_config
from .pgm import write_pgm
from .propagation import IntensityProfile, simulate_beamline
from .sampler import make_events, render_frame

__version__ = "0.1.0"
