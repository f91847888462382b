"""Configuration parsing: units, defaults, validation messages."""
import re
from dataclasses import fields

import pytest

from doubleslit.blobdetect import geometric_scales
from doubleslit.config import (
    ASSUMED_KEYS,
    RunConfig,
    build_config,
    config_text,
    load_config,
    parse_config_text,
    parse_length,
)
from doubleslit.errors import ConfigError


def from_text(text, seed=True):
    values = parse_config_text(text)
    if seed and "run.seed" not in values:
        values["run.seed"] = 1
    return build_config(values)


def test_defaults_match_shipped_config():
    # configs/default.cfg is the canonical statement of the defaults; the
    # in-code schema must agree with it key for key.
    shipped = load_config("configs/default.cfg")
    coded = from_text("run.seed = 12345")
    assert shipped == coded


def test_default_values():
    cfg = from_text("run.seed = 7")
    assert cfg.beam_energy == 600.0
    assert cfg.slit_width == pytest.approx(50e-9)
    assert cfg.slit_separation == pytest.approx(280e-9)
    assert cfg.mask_distance == pytest.approx(230e-6)
    assert cfg.mask_opening_width == pytest.approx(5e-6)
    assert cfg.magnification == 10.0
    assert cfg.grid_n == 65536
    assert cfg.checkpoints == (2, 7, 209, 1004, 6235)
    assert cfg.pattern_rate == 1.0
    assert cfg.total_rate == pytest.approx(6.32)
    assert cfg.n_events == 6235
    assert cfg.seed == 7
    assert cfg.blob_threshold is None


@pytest.mark.parametrize(
    "text,expected",
    [
        ("slits.width = 50 nm", 50e-9),
        ("slits.width = 0.05 um", 5e-8),
        ("slits.width = 5e-8 m", 5e-8),
        ("slits.width = 0.000005 cm", 5e-8),
        ("slits.width = 5e-5 mm", 5e-8),
    ],
)
def test_length_unit_suffixes(text, expected):
    cfg = from_text(text)
    assert cfg.slit_width == pytest.approx(expected, rel=1e-12)


def test_energy_and_rate_suffixes():
    cfg = from_text("beam.energy = 0.6 keV\nsampler.pattern_rate = 2 Hz")
    assert cfg.beam_energy == pytest.approx(600.0)
    assert cfg.pattern_rate == 2.0


def test_parse_length_cli_arguments():
    assert parse_length("-2520 nm", "--mask-center") == pytest.approx(-2.52e-6)
    assert parse_length("0", "--mask-center") == 0.0
    with pytest.raises(ConfigError):
        parse_length("12 parsecs", "--mask-center")


def test_comments_and_blank_lines_ignored():
    cfg = from_text("# top comment\n\nslits.width = 40 nm  # trailing\n")
    assert cfg.slit_width == pytest.approx(40e-9)


def test_error_messages_carry_line_and_key():
    with pytest.raises(ConfigError, match=r"<config>:3.*unknown key.*'slits.wdith'"):
        parse_config_text("\n\nslits.wdith = 50 nm\n")
    with pytest.raises(ConfigError, match=r":2.*duplicate key"):
        parse_config_text("slits.width = 50 nm\nslits.width = 60 nm\n")
    with pytest.raises(ConfigError, match=r"expected 'section.key = value'"):
        parse_config_text("slits.width 50 nm\n")
    with pytest.raises(ConfigError, match=r"unit 'eV' not valid for slits.width"):
        parse_config_text("slits.width = 50 eV\n")
    with pytest.raises(ConfigError, match="slits.width"):
        from_text("slits.width = -50 nm")


def test_seed_required_without_default():
    with pytest.raises(ConfigError, match="run.seed"):
        build_config({})
    cfg = build_config({"run.seed": 99})
    assert cfg.seed == 99


def test_checkpoints_must_increase():
    with pytest.raises(ConfigError, match="strictly increasing"):
        from_text("buildup.checkpoints = 7,2")
    with pytest.raises(ConfigError, match="buildup.checkpoints"):
        from_text("buildup.checkpoints = 0,5")


def test_cross_field_validation():
    with pytest.raises(ConfigError, match="slits.width must be below"):
        from_text("slits.width = 300 nm")
    with pytest.raises(ConfigError, match="grid.n"):
        from_text("grid.n = 1000")
    with pytest.raises(ConfigError, match="blob.ratio"):
        from_text("blob.ratio = 1.0")
    # Ladders of one (30) and two (3, 6) scales: the detector needs three.
    for text in ("blob.t_min = 30", "blob.t_min = 3\nblob.t_max = 9\nblob.ratio = 2"):
        with pytest.raises(
            ConfigError, match="blob.t_min, blob.t_max and blob.ratio: .* fewer than 3 scales"
        ):
            from_text(text)
    # A t_max whose slack overflows to inf, and a ratio asking for ~10^9 rungs.
    for text in ("blob.t_max = 1.7976931348623157e308", "blob.ratio = 1.000000001"):
        with pytest.raises(
            ConfigError, match="blob.t_min, blob.t_max and blob.ratio: .* more than MAX_SCALES"
        ):
            from_text(text)
    with pytest.raises(ConfigError, match="run.seed"):
        from_text("run.seed = -4", seed=False)


def test_threshold_auto_or_number():
    assert from_text("blob.threshold = auto").blob_threshold is None
    assert from_text("blob.threshold = 250").blob_threshold == 250.0
    with pytest.raises(ConfigError, match="blob.threshold"):
        from_text("blob.threshold = -1")


def test_config_text_round_trips():
    cfg = from_text("slits.width = 42 nm\nrun.seed = 31\nblob.threshold = 77")
    echoed = config_text(cfg)
    again = build_config(parse_config_text(echoed))
    assert again == cfg
    # Assumption flags are visible in the echo.
    for key in ASSUMED_KEYS:
        line = next(ln for ln in echoed.splitlines() if ln.startswith(key))
        assert "assumed" in line


def test_derived_helpers():
    cfg = from_text("run.seed = 1")
    beam = cfg.beam()
    assert beam.kinetic_energy == 600.0
    layout = cfg.layout()
    assert layout.z_doubleslit_to_mask == pytest.approx(230e-6)
    assert layout.doubleslit.open_intervals[0][0] == pytest.approx(-165e-9)
    # fringe period M lambda L / d with L the slit-to-detector span
    span = 230e-6 + 0.5
    expect = 10.0 * beam.wavelength * span / 280e-9
    assert cfg.fringe_period() == pytest.approx(expect, rel=1e-12)
    assert cfg.envelope_scale() == pytest.approx(expect * 280 / 50, rel=1e-12)
    assert cfg.height_band() == pytest.approx(4e-5)
    assert cfg.blob_scales() == geometric_scales(2.0, 30.0, 1.3)
    tighter = from_text("blob.t_min = 3\nblob.t_max = 12\nblob.ratio = 2")
    assert tighter.blob_scales() == (3.0, 6.0, 12.0)


def test_unreadable_config_path():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/path.cfg")


NUMERIC_KEYS = [
    f.metadata["key"]
    for f in fields(RunConfig)
    if f.metadata["kind"] in ("int", "float", "length", "energy", "rate", "threshold")
]


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_overflowing_numbers_name_key_and_line(key):
    with pytest.raises(ConfigError, match=rf"<config>:2: {re.escape(key)} must be finite"):
        parse_config_text(f"# header\n{key} = 1e999\n")


def test_non_finite_after_unit_scaling_and_in_arguments():
    with pytest.raises(ConfigError, match="grid.window must be finite"):
        parse_config_text("grid.window = 1e999 m")
    with pytest.raises(ConfigError, match="beam.energy must be finite"):
        parse_config_text("beam.energy = 1e306 keV")
    for name in ("--from", "--to", "--mask-center"):
        with pytest.raises(ConfigError, match=f"argument: {name} must be finite"):
            parse_length("-1e999 um", name)


def test_declared_bounds():
    # Counts, the seed and the background may be zero; lengths may not.
    cfg = from_text("sampler.n_events = 0\nsampler.background = 0\nrun.seed = 0", seed=False)
    assert (cfg.n_events, cfg.background, cfg.seed) == (0, 0.0, 0)
    for text in ("sampler.n_events = -1", "sampler.background = -0.5", "grid.window = 0 m"):
        key = text.split(" ")[0]
        with pytest.raises(ConfigError, match=rf"<config>: {re.escape(key)} must be"):
            from_text(text)
    with pytest.raises(ConfigError, match="run.seed must be nonnegative"):
        build_config({"run.seed": -4})
    # A seed override is bounded as the flag, not as the file it overrides.
    with pytest.raises(ConfigError, match=r"^argument: --seed must be nonnegative, got -1$"):
        load_config("configs/default.cfg", -1)
    assert load_config("configs/default.cfg", 0).seed == 0


def test_checkpoints_must_be_an_integer_list():
    assert from_text("buildup.checkpoints = 5,30").checkpoints == (5, 30)
    with pytest.raises(
        ConfigError, match="<config>:1: buildup.checkpoints must be a comma-separated"
    ):
        from_text("buildup.checkpoints = 5,x")


def test_every_field_declares_one_key():
    keys = [f.metadata["key"] for f in fields(RunConfig)]
    assert len(keys) == len(set(keys)) == 26
    echoed = config_text(from_text("run.seed = 3"))
    assert [ln.split(" = ")[0] for ln in echoed.splitlines()] == keys
