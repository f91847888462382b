"""Binary 16-bit portable graymap I/O.

P5 with maxval 65535, sample bytes big-endian per the format; chosen so
images byte-compare across platforms and languages.
"""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import FrameFileError

MAXVAL = 65535

# Magic, width, height and maxval between whitespace and '#' comments that run to the end
# of their line; one whitespace byte after maxval ends the header.
_SKIP = rb"(?:\s|#[^\n]*\n)*"
_HEADER = re.compile(_SKIP + rb"([^\s#]\S*)" + (rb"\s" + _SKIP + rb"([^\s#]\S*)") * 3)


def write_pgm(path: str | Path, counts: np.ndarray) -> None:
    arr = np.asarray(counts)
    if arr.ndim != 2 or arr.dtype != np.uint16:
        raise FrameFileError(
            f"image must be a 2D uint16 array, got {arr.dtype} of shape {arr.shape}"
        )
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{MAXVAL}\n".encode("ascii"))
        fh.write(arr.astype(">u2").tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise FrameFileError(f"{path}: {exc}") from exc
    header = _HEADER.match(raw)
    if header is None:
        raise FrameFileError(f"{path}: truncated header")
    tokens = header.groups()
    if tokens[0] != b"P5":
        raise FrameFileError(f"{path}: not a binary graymap (magic {tokens[0]!r})")
    try:
        if not all(token.isdigit() for token in tokens[1:]):
            raise ValueError("header numbers must be ASCII decimal digits")
        w, h, maxval = map(int, tokens[1:])
    except ValueError as exc:
        raise FrameFileError(f"{path}: malformed header") from exc
    if maxval != MAXVAL:
        raise FrameFileError(f"{path}: expected maxval {MAXVAL}, got {maxval}")
    if w < 1 or h < 1:
        raise FrameFileError(f"{path}: invalid dimensions {w}x{h}")
    data = raw[header.end() + 1 :]
    size = 2 * w * h
    if len(data) < size:
        raise FrameFileError(f"{path}: truncated pixel data ({len(data)} of {size} bytes)")
    # A wrong-size frame or a second image would otherwise read as this one.
    if len(data) > size:
        raise FrameFileError(f"{path}: {len(data) - size} bytes after the {w}x{h} pixel data")
    return np.frombuffer(data, dtype=">u2").reshape(h, w).astype(np.uint16)
