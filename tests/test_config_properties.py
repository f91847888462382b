"""Property tests: config parsing fails only with ConfigError.

Whatever the text, parse_config_text and build_config on what it parsed
either succeed or raise ConfigError; no other exception may escape to the
command line as a traceback.
"""
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from doubleslit.config import RunConfig, build_config, parse_config_text
from doubleslit.errors import ConfigError

KEYS = [f.metadata["key"] for f in fields(RunConfig)]

PROPERTY = settings(max_examples=300)

# Number-like text: signs, stray dots, exponents up to four digits (so
# overflow to inf is reached) and every unit suffix, well-placed or not.
NUMBERS = st.from_regex(
    r"[-+]?[0-9]{0,3}\.?[0-9]{0,3}([eE][-+]?[0-9]{1,4})? ?(nm|um|mm|cm|m|eV|keV|Hz|s)?",
    fullmatch=True,
)
INT_LISTS = st.lists(st.integers(-10, 10**30), min_size=1, max_size=5).map(
    lambda xs: ",".join(map(str, xs))
)
VALUES = st.one_of(NUMBERS, INT_LISTS, st.sampled_from(["auto", "", "nan", "inf"]), st.text())


def parse_and_build(text: str) -> None:
    try:
        values = parse_config_text(text)
        values.setdefault("run.seed", 1)
        build_config(values)
    except ConfigError:
        pass


@PROPERTY
@given(st.text())
def test_arbitrary_text_raises_only_config_error(text):
    parse_and_build(text)


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(KEYS), VALUES), max_size=4))
def test_any_value_for_any_key_raises_only_config_error(lines):
    parse_and_build("".join(f"{key} = {value}\n" for key, value in lines))
