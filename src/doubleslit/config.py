"""Run configuration: line-oriented `section.key = value` files.

Values may carry SI suffixes (nm, um, mm, cm, m, eV, keV, Hz).  Blank
lines and `#` comments are ignored.  Unknown keys, malformed lines,
non-finite numbers and out-of-range values are configuration errors
reported with their line number.  The seed must be given explicitly (file
or --seed); runs never fall back to wall-clock entropy.

Each key is declared once, on its RunConfig field: the key, its kind, its
default text, its lower bound and whether it is an assumption rather than
a value the experiment states.  Parsing, defaults, bounds and the metadata
echo all read those declarations.  A rule across keys belongs to the
library object built from those keys; build_config builds each once and
names the keys in its refusal.  The output directory is --out, not a key.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

from .blobdetect import geometric_scales
from .core import BeamParameters
from .errors import ConfigError, DomainError
from .geometry import BeamlineLayout, make_double_slit
from .propagation import DEFAULT_MAX_ANGLE, GridSpec

LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "cm": 1e-2, "m": 1.0}
ENERGY_UNITS = {"eV": 1.0, "keV": 1e3}
RATE_UNITS = {"Hz": 1.0}

_NUMBER_RE = re.compile(r"^([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([A-Za-z]*)$")
_DIGITS_RE = re.compile(r"[-+]?[0-9]+")


def _key(
    key: str, kind: str, default: str | None, bound: str | None = None, assumed: bool = False
):
    """Declare the config key behind a RunConfig field.

    default is the value text (None: the key is required); bound is
    "positive", "nonnegative" or None, and applies to each element of an
    int_list; assumed flags a free choice the source experiment does not
    state, in every metadata echo.
    """
    return field(
        metadata=dict(key=key, kind=kind, default=default, bound=bound, assumed=assumed)
    )


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one invocation."""

    beam_energy: float = _key("beam.energy", "energy", "600 eV", "positive")
    slit_width: float = _key("slits.width", "length", "50 nm", "positive")
    slit_separation: float = _key("slits.separation", "length", "280 nm", "positive")
    slit_height: float = _key("slits.height", "length", "4 um", "positive")
    mask_opening_width: float = _key("mask.opening_width", "length", "5 um", "positive")
    mask_distance: float = _key("mask.distance", "length", "230 um", "positive")
    # Free choices that scale the detector pattern.
    detector_distance: float = _key(
        "detector.distance", "length", "0.5 m", "positive", assumed=True
    )
    magnification: float = _key(
        "detector.magnification", "float", "10", "positive", assumed=True
    )
    grid_window: float = _key("grid.window", "length", "64 um", "positive")
    grid_n: int = _key("grid.n", "int", "65536", "positive")
    # The experiment quotes ~1 Hz arriving inside the analyzed pattern but a
    # total beam rate near 6.3 Hz; both are explicit so neither is guessed.
    pattern_rate: float = _key("sampler.pattern_rate", "rate", "1 Hz", "positive")
    total_rate: float = _key("sampler.total_rate", "rate", "6.32 Hz", "positive")
    n_events: int = _key("sampler.n_events", "int", "6235", "nonnegative")
    psf_sigma: float = _key("sampler.psf_sigma", "float", "3", "positive")
    amplitude: float = _key("sampler.amplitude", "float", "1000", "positive")
    background: float = _key("sampler.background", "float", "0.05", "nonnegative")
    frame_width: int = _key("frame.width", "int", "416", "positive")
    frame_height: int = _key("frame.height", "int", "32", "positive")
    frame_pitch: float = _key("frame.pitch", "length", "12 um", "positive")
    blob_t_min: float = _key("blob.t_min", "float", "2", "positive")
    blob_t_max: float = _key("blob.t_max", "float", "30", "positive")
    blob_ratio: float = _key("blob.ratio", "float", "1.3")
    # 'auto' (None) or a positive number.
    blob_threshold: float | None = _key("blob.threshold", "threshold", "auto", "positive")
    checkpoints: tuple[int, ...] = _key(
        "buildup.checkpoints", "int_list", "2,7,209,1004,6235", "positive"
    )
    seed: int = _key("run.seed", "int", None, "nonnegative")

    def beam(self) -> BeamParameters:
        return BeamParameters(self.beam_energy)

    def layout(self) -> BeamlineLayout:
        return BeamlineLayout(
            z_doubleslit_to_mask=self.mask_distance,
            z_mask_to_detector=self.detector_distance,
            magnification=self.magnification,
            doubleslit=make_double_slit(self.slit_width, self.slit_separation),
            mask_opening_width=self.mask_opening_width,
        )

    def grid(self) -> GridSpec:
        return GridSpec(window=self.grid_window, n=self.grid_n)

    def _far_field_scale(self) -> float:
        # Magnified lambda * L: divided by a slit length, a detector length.
        span = self.mask_distance + self.detector_distance
        return self.magnification * self.beam().wavelength * span

    def fringe_period(self) -> float:
        return self._far_field_scale() / self.slit_separation

    def sampling_half_width(self) -> float:
        # The analyzed pattern is the central five interference orders.
        return 2.5 * self.fringe_period()

    def published_half_width(self) -> float:
        # A detector row at x carries the diffraction angle x / (M z2), and
        # the grid guard claims angles up to DEFAULT_MAX_ANGLE; its Nyquist
        # check keeps this inside the detector grid.
        return self.magnification * self.detector_distance * DEFAULT_MAX_ANGLE

    def envelope_scale(self) -> float:
        return self._far_field_scale() / self.slit_width

    def height_band(self) -> float:
        return self.slit_height * self.magnification

    def blob_scales(self) -> tuple[float, ...]:
        return geometric_scales(self.blob_t_min, self.blob_t_max, self.blob_ratio)


# key -> the RunConfig field that declares it, in field order.
_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}


# A value or key longer than this is named by its length in a message, not echoed.
_ECHO_MAX = 40


def _shown(text: str) -> str:
    """The value as a message quotes it: repr, or its length when longer than _ECHO_MAX."""
    return repr(text) if len(text) <= _ECHO_MAX else f"<{len(text)} characters>"


def _parse_scalar(key: str, kind: str, text: str, where: str):
    if kind == "int_list":
        try:
            values = tuple(_parse_scalar(key, "int", t.strip(), where) for t in text.split(","))
        except ConfigError:
            raise ConfigError(f"{where}: {key} must be a comma-separated integer list")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"{where}: {key} must be strictly increasing")
        return values
    if kind == "threshold":
        if text == "auto":
            return None
        kind = "float"
    if kind == "int" and _DIGITS_RE.fullmatch(text):
        # Digits parse exactly; int() may refuse more than 4300 of them.
        try:
            return int(text)
        except ValueError:
            digits = len(text.lstrip("+-"))
            raise ConfigError(f"{where}: cannot parse number of {digits} digits for {key}")
    m = _NUMBER_RE.match(text)
    if not m:
        raise ConfigError(f"{where}: cannot parse value {_shown(text)} for {key}")
    number, suffix = m.group(1), m.group(2)
    try:
        value = float(number)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse number {_shown(number)} for {key}")
    units = {"length": LENGTH_UNITS, "energy": ENERGY_UNITS, "rate": RATE_UNITS}.get(kind)
    if units is None:
        if suffix:
            raise ConfigError(f"{where}: {key} takes a bare number, got unit {_shown(suffix)}")
    elif suffix:
        if suffix not in units:
            raise ConfigError(
                f"{where}: unit {_shown(suffix)} not valid for {key} "
                f"(expected one of {', '.join(units)})"
            )
        value *= units[suffix]
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {key} must be finite, got {_shown(text)}")
    if kind == "int":
        # A float holds every integer below 2^53 exactly; 2^53 + 1 reads as 2^53.
        if value != int(value) or abs(value) >= 2**53:
            raise ConfigError(
                f"{where}: {key} must be an integer, and below 2^53 unless written as digits"
            )
        return int(value)
    return value


def _check_bound(key: str, bound: str | None, value, where: str) -> None:
    if bound is None or value is None:
        return
    items = value if isinstance(value, tuple) else (value,)
    if bound == "positive":
        ok = all(v > 0 for v in items)
    else:
        ok = all(v >= 0 for v in items)
    if not ok:
        raise ConfigError(f"{where}: {key} must be {bound}, got {value}")


def parse_length(text: str, name: str) -> float:
    """Parse a command-line length such as '230 um' or '-2.52e-6 m'."""
    return _parse_scalar(name, "length", text.strip(), "argument")


def parse_integer(text: str, name: str) -> int:
    """Parse a command-line integer by the config keys' integer grammar."""
    return _parse_scalar(name, "int", text.strip(), "argument")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Raw key -> parsed value mapping; schema defaults are not applied."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'section.key = value'")
        key, _, value_text = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{where}: unknown key {_shown(key)}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        kind = _FIELDS[key].metadata["kind"]
        values[key] = _parse_scalar(key, kind, value_text.strip(), where)
    return values


def build_config(values: dict, source: str = "<config>") -> RunConfig:
    """Apply schema defaults, lower bounds and cross-field validation."""
    merged = {}
    for key, f in _FIELDS.items():
        meta = f.metadata
        if key in values:
            merged[key] = values[key]
        elif meta["default"] is not None:
            merged[key] = _parse_scalar(key, meta["kind"], meta["default"], "<default>")
        else:
            raise ConfigError(f"{source}: required key {key!r} is missing")
        _check_bound(key, meta["bound"], merged[key], source)
    config = RunConfig(**{_FIELDS[k].name: v for k, v in merged.items()})
    # Within the bounds above, each object can refuse only the keys named.
    for keys, build in (
        ("beam.energy", lambda: config.beam().wavelength),
        ("slits.width and slits.separation", config.layout),
        ("grid.n", config.grid),
        ("blob.t_min, blob.t_max and blob.ratio", config.blob_scales),
    ):
        try:
            build()
        except DomainError as exc:
            raise ConfigError(f"{source}: {keys}: {exc}") from exc
    return config


def load_config(path: str | None, seed: int | None = None) -> RunConfig:
    """Read a config file (or pure defaults) with an optional seed override."""
    if path is None:
        values = {}
        source = "<defaults>"
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        source = str(path)
        values = parse_config_text(text, source)
    if seed is not None:
        _check_bound("--seed", _FIELDS["run.seed"].metadata["bound"], seed, "argument")
        values["run.seed"] = seed
    return build_config(values, source)


_UNIT_SUFFIX = {"length": " m", "energy": " eV", "rate": " Hz"}


def _format_value(kind: str, value) -> str:
    if kind == "int_list":
        return ",".join(str(v) for v in value)
    if kind == "threshold" and value is None:
        return "auto"
    if kind == "int":
        return str(value)
    return f"{value:.17g}{_UNIT_SUFFIX.get(kind, '')}"


def config_text(config: RunConfig) -> str:
    """Canonicalized echo of every effective setting, assumptions flagged."""
    lines = []
    for key, f in _FIELDS.items():
        value = _format_value(f.metadata["kind"], getattr(config, f.name))
        flag = "  # assumed, not a measured value" if f.metadata["assumed"] else ""
        lines.append(f"{key} = {value}{flag}")
    return "\n".join(lines) + "\n"
