"""File formats: matrices in a little-endian binary format or CSV, and JSON.

Binary layout: magic "MISA", u32 row count, u32 column count, then row-major
float64 payload. Round-trips are bit-exact. CSV uses 17 significant digits,
which round-trips IEEE doubles exactly. A file that cannot be read or parsed
raises a ParseError that names it.
"""

from __future__ import annotations

import json
import struct
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError

MAGIC = b"MISA"
_HEADER = struct.Struct("<4sII")


def save_matrix(path, matrix: np.ndarray) -> None:
    path = Path(path)
    M = np.ascontiguousarray(np.atleast_2d(matrix), dtype="<f8")
    if path.suffix.lower() == ".csv":
        np.savetxt(path, M, fmt="%.17g", delimiter=",")
        return
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, M.shape[0], M.shape[1]))
        fh.write(M.tobytes(order="C"))


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    try:
        if path.suffix.lower() == ".csv":
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # numpy warns on an empty file
                return np.loadtxt(path, delimiter=",", ndmin=2, comments=None)
        raw = path.read_bytes()
    except (OSError, ValueError, UserWarning) as e:
        raise _parse_error(path, e) from None
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise ParseError(f"{path}: bad or missing magic at byte 0")
    if len(raw) < _HEADER.size:
        raise ParseError(f"{path}: truncated header at byte {len(raw)}")
    _, rows, cols = _HEADER.unpack_from(raw)
    expected = _HEADER.size + rows * cols * 8
    if len(raw) != expected:
        raise ParseError(
            f"{path}: payload size mismatch at byte {_HEADER.size}: "
            f"expected {expected} total bytes for {rows}x{cols}, got {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    return data.reshape(rows, cols).copy()


def read_json(path):
    """The JSON value stored in path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise _parse_error(path, e) from None


def write_json(path, value) -> None:
    """Write value as JSON with a 2-space indent, sorted keys and a final
    newline, the byte form of every result file."""
    Path(path).write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")


def make_dir(path) -> Path:
    """The directory path, created with its parents; a ConfigError names it if that fails."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"{path}: cannot create output directory: {e.strerror}") from None
    return Path(path)


def _parse_error(path, e: Exception) -> ParseError:
    return ParseError(f"{path}: {getattr(e, 'strerror', None) or e}")
