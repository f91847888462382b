"""Property tests: graymaps round-trip, and bad files fail only with FrameFileError.

`detect` reads its frames on worker threads, so any other exception from
read_pgm would reach the command line as a traceback from the pool.
"""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from doubleslit.errors import FrameFileError
from doubleslit.pgm import read_pgm, write_pgm

PROPERTY = settings(max_examples=300)

IMAGES = arrays(
    np.uint16,
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.integers(0, 65535),
)

# Header tokens a graymap could plausibly start with, well-formed or not.
TOKENS = st.one_of(
    st.sampled_from([b"P5", b"P2", b"P6", b"65535", b"255", b"0", b"-1", b"#", b"# c\n"]),
    st.integers(-5, 10**6).map(lambda n: str(n).encode("ascii")),
    st.binary(max_size=4),
)
SEPARATORS = st.sampled_from([b"", b" ", b"\n", b"\t", b"\r\n", b"#x\n"])
# Headers shaped like the real one, so that the pixel-data path is reached.
FIELDS = st.tuples(
    st.sampled_from([b"P5", b"P5", b"P5", b"P2"]),
    st.integers(-1, 6).map(lambda n: str(n).encode("ascii")),
    st.integers(-1, 6).map(lambda n: str(n).encode("ascii")),
    st.sampled_from([b"65535", b"65535", b"65535", b"255"]),
)


@pytest.fixture(scope="module")
def frame_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pgm") / "frame.pgm"


def read_only_frame_file_error(path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        image = read_pgm(path)
    except FrameFileError:
        return
    assert image.dtype == np.uint16 and image.ndim == 2


@pytest.mark.parametrize(
    "image,got",
    [(np.zeros((8, 8)), "float64 of shape (8, 8)"), (np.zeros(8, np.uint16), "uint16 of shape (8,)")],
)
def test_write_takes_only_2d_uint16_images(tmp_path, image, got):
    path = tmp_path / "frame.pgm"
    with pytest.raises(FrameFileError, match=re.escape(f"image must be a 2D uint16 array, got {got}")):
        write_pgm(path, image)
    assert not path.exists()


@pytest.mark.parametrize(
    "header",
    [
        b"P5\n2_0 +1\n65_535\n",
        b"P5\n+20 1\n65535\n",
        b"P5\n20 +1\n65535\n",
        b"P5\n20 1\n+65535\n",
        b"P5\n1_0 2\n65535\n",
        b"P5\n20 1\n65_535\n",
        # More digits than int() converts.
        b"P5\n" + b"9" * 5000 + b" 1\n65535\n",
    ],
)
def test_header_numbers_are_decimal_digits_only(frame_path, header):
    # Each header but the last one holds 20 pixels for int(), which also
    # takes '+' and '_'; the format allows ASCII decimal digits only.
    frame_path.write_bytes(header + bytes(40))
    with pytest.raises(FrameFileError, match="malformed header"):
        read_pgm(frame_path)


@PROPERTY
@given(IMAGES)
def test_images_round_trip(frame_path, image):
    write_pgm(frame_path, image)
    back = read_pgm(frame_path)
    assert back.dtype == np.uint16
    assert np.array_equal(back, image)


@PROPERTY
@given(IMAGES, st.data())
def test_truncated_files_raise_frame_file_error(frame_path, image, data):
    write_pgm(frame_path, image)
    raw = frame_path.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1))
    frame_path.write_bytes(raw[:cut])
    with pytest.raises(FrameFileError):
        read_pgm(frame_path)


@PROPERTY
@given(IMAGES, st.binary(min_size=1, max_size=40))
def test_trailing_bytes_raise_frame_file_error(frame_path, image, tail):
    write_pgm(frame_path, image)
    frame_path.write_bytes(frame_path.read_bytes() + tail)
    with pytest.raises(FrameFileError, match=f"{len(tail)} bytes after"):
        read_pgm(frame_path)


@PROPERTY
@given(st.binary(max_size=200))
def test_arbitrary_bytes_raise_only_frame_file_error(frame_path, raw):
    read_only_frame_file_error(frame_path, raw)


@PROPERTY
@given(st.lists(st.tuples(TOKENS, SEPARATORS), max_size=6), st.binary(max_size=64))
def test_garbage_headers_raise_only_frame_file_error(frame_path, header, pixels):
    raw = b"".join(token + sep for token, sep in header) + pixels
    read_only_frame_file_error(frame_path, raw)


@PROPERTY
@given(
    FIELDS,
    st.lists(SEPARATORS.filter(bool), min_size=4, max_size=4),
    # Short of the pixel data, or enough for any width and height up to 6.
    st.one_of(st.binary(max_size=8), st.binary(min_size=72, max_size=80)),
)
def test_malformed_headers_raise_only_frame_file_error(frame_path, fields, seps, pixels):
    raw = b"".join(token + sep for token, sep in zip(fields, seps)) + pixels
    read_only_frame_file_error(frame_path, raw)
