"""Binary field-file format for profiles and restart data.

Layout (all little-endian):

    bytes 0-3    magic  b"NLSF"
    4-7          version, uint32 (currently 1)
    8            endianness marker, byte 0x3C (b"<", little-endian payload)
    9-12         d, uint32
    13-16        m, uint32 (points per axis)
    17-20        n, uint32 (component count)
    21-28        l, float64 (box half-width)
    29-...       payload: n components, each m^d points in row-major order,
                 interleaved (re, im) float64 pairs

Write-then-read round trips are bit-identical.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import GridSpec, ScalarField

MAGIC = b"NLSF"
VERSION = 1
_HEADER = struct.Struct("<4sIBIIId")


class FieldFileError(ValueError):
    pass


def write_fields(path, grid: GridSpec, fields) -> None:
    fields = list(fields)
    payload = np.empty((len(fields), grid.npoints, 2), dtype="<f8")
    for i, f in enumerate(fields):
        vals = np.asarray(f.values, dtype=complex).reshape(-1)
        payload[i, :, 0] = vals.real
        payload[i, :, 1] = vals.imag
    header = _HEADER.pack(MAGIC, VERSION, ord("<"), grid.d, grid.m,
                          len(fields), grid.l)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def read_fields(path) -> tuple[GridSpec, list[ScalarField]]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FieldFileError(f"{path}: truncated header")
    magic, version, endian, d, m, n, l = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FieldFileError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FieldFileError(f"{path}: unsupported version {version}")
    if endian != ord("<"):
        raise FieldFileError(f"{path}: unsupported endianness marker {endian:#x}")
    grid = GridSpec(d, m, l)
    expect = _HEADER.size + n * grid.npoints * 16
    if len(raw) != expect:
        raise FieldFileError(f"{path}: payload size {len(raw)} != expected {expect}")
    payload = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    payload = payload.reshape(n, grid.npoints, 2)
    out = []
    for i in range(n):
        vals = (payload[i, :, 0] + 1j * payload[i, :, 1]).reshape(grid.shape)
        out.append(ScalarField(vals, grid))
    return grid, out
