"""Bit-exact on-disk artifact format (``.amrc``), little-endian throughout.

Header::

    magic          4 bytes  b"AMRC"
    version        u8       1
    dim            u8       2 or 3
    extents        dim x u64
    initial_level  u8
    value_kind     u8       0=f32 1=f64 2=i16 3=i32
    criterion kind u8       0=absolute 1=relative
    criterion bound f64
    mode           u8       0=one-for-one 1=one-for-all
    packing flag   u8       0/1
    packing scale  f64      zero bytes when flag is 0
    packing offset f64      zero bytes when flag is 0
    post-pass id   u8       0=identity (only id implemented)
    variable count u16

Sections follow the header: per variable, a bit-field section then a payload
section, except that in ``one-for-all`` only the first variable has a
bit-field section and the others share it.

    bit-field section:  u32 byte length, then the level-wise refinement bits
    payload section:    u32 value count, then the values (value_kind, LE)

The header has exactly one encoding, as the bit-field has: the reader
re-encodes the header it parsed and rejects the bytes unless they are that
encoding, which also pins the initial level to the extents and the packing
fields to zero bytes when the flag is 0. No trailing bytes are accepted, and
all lengths are validated before any allocation, so ``write(read(b)) == b``
for every valid artifact ``b``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .codec import (
    ONE_FOR_ALL,
    ONE_FOR_ONE,
    VALUE_KIND_DTYPES,
    CompressedVariable,
    Packing,
)
from .criteria import ABSOLUTE, RELATIVE, Criterion
from .errors import (
    ConfigError,
    CorruptArtifactError,
    ShapeError,
    UnsupportedFeatureError,
)
from .mesh import GridShape

MAGIC = b"AMRC"
VERSION = 1

_VALUE_KIND_IDS = {"f32": 0, "f64": 1, "i16": 2, "i32": 3}
_VALUE_KINDS = {v: k for k, v in _VALUE_KIND_IDS.items()}
_CRITERION_IDS = {ABSOLUTE: 0, RELATIVE: 1}
_CRITERION_KINDS = {v: k for k, v in _CRITERION_IDS.items()}
_MODE_IDS = {ONE_FOR_ONE: 0, ONE_FOR_ALL: 1}
_MODES = {v: k for k, v in _MODE_IDS.items()}

# the header fields after the extents, from the initial level to the variable count
_FIELDS = struct.Struct("<BBBdBBddBH")


@dataclass(frozen=True)
class ArtifactHeader:
    shape: GridShape
    value_kind: str
    criterion: Criterion
    mode: str
    packing: Packing | None
    post_pass: int
    n_variables: int


def _header_bytes(h: ArtifactHeader) -> bytes:
    """The one encoding of an artifact header."""
    scale, offset = (0.0, 0.0) if h.packing is None else (h.packing.scale, h.packing.offset)
    return (MAGIC + struct.pack(f"<BB{h.shape.dim}Q", VERSION, h.shape.dim, *h.shape.extents)
            + _FIELDS.pack(h.shape.initial_level, _VALUE_KIND_IDS[h.value_kind],
                           _CRITERION_IDS[h.criterion.kind], h.criterion.bound,
                           _MODE_IDS[h.mode], h.packing is not None, scale, offset,
                           h.post_pass, h.n_variables))


def write_artifact(variables, post_pass: int = 0) -> bytes:
    """Serialize one or more compressed variables into a single byte stream."""
    if not variables:
        raise ConfigError("artifact needs at least one variable")
    if post_pass != 0:
        raise UnsupportedFeatureError(f"post-pass id {post_pass} is not implemented")
    first = variables[0]
    for v in variables:
        if (v.shape, v.value_kind, v.criterion, v.mode, v.packing) != (
            first.shape, first.value_kind, first.criterion, first.mode, first.packing
        ):
            raise ConfigError("variables in one artifact must share header fields")
    if first.mode == ONE_FOR_ALL:
        for v in variables[1:]:
            if v.mesh_bits != first.mesh_bits:
                raise ConfigError("one-for-all variables must share one mesh")
    if len(variables) > 0xFFFF:
        raise ConfigError("too many variables for one artifact")

    parts = [_header_bytes(ArtifactHeader(
        first.shape, first.value_kind, first.criterion, first.mode, first.packing,
        post_pass, len(variables)))]
    for i, v in enumerate(variables):
        if i == 0 or first.mode == ONE_FOR_ONE:
            parts += [struct.pack("<I", len(v.mesh_bits)), v.mesh_bits]
        parts += [struct.pack("<I", len(v.payload)), memoryview(v.payload)]
    return b"".join(parts)  # the one copy of the payloads


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise CorruptArtifactError(f"truncated while reading {what}", self.offset)
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def read_artifact(data: bytes):
    """Parse an artifact; returns ``(variables, header)``.

    Exact inverse of :func:`write_artifact`; any deviation from the format,
    including trailing bytes, raises :class:`CorruptArtifactError`. Each
    payload is a read-only view into ``bytes(data)``, not a copy.
    """
    r = _Reader(bytes(data))
    if r.take(4, "magic") != MAGIC:
        raise CorruptArtifactError("bad magic, not an AMRC artifact", 0)
    (version,) = r.unpack("<B", "version")
    if version != VERSION:
        raise CorruptArtifactError(f"unsupported version {version}", r.offset - 1)
    (dim,) = r.unpack("<B", "dim")
    if dim not in (2, 3):
        raise CorruptArtifactError(f"dim must be 2 or 3, got {dim}", r.offset - 1)
    extents = r.unpack(f"<{dim}Q", "extents")
    pack_at = r.offset + 12  # the packing flag follows 12 bytes of fields
    (level, kind_id, crit_id, bound, mode_id, pack_flag, scale, offs, post_pass,
     n_vars) = r.unpack(_FIELDS.format, "header fields")

    try:
        shape = GridShape(extents)
    except (ShapeError, OverflowError) as exc:
        raise CorruptArtifactError(f"invalid extents {extents}: {exc}", 6) from exc
    for ident, known, what in ((kind_id, _VALUE_KINDS, "value kind"),
                               (crit_id, _CRITERION_KINDS, "criterion"), (mode_id, _MODES, "mode")):
        if ident not in known:
            raise CorruptArtifactError(f"unknown {what} id {ident}")
    try:
        criterion = Criterion(_CRITERION_KINDS[crit_id], bound)
    except ConfigError as exc:
        raise CorruptArtifactError(str(exc)) from exc
    try:
        packing = Packing(scale, offs) if pack_flag else None
    except ConfigError as exc:
        raise CorruptArtifactError(str(exc), pack_at) from exc
    header = ArtifactHeader(shape, _VALUE_KINDS[kind_id], criterion, _MODES[mode_id], packing,
                            post_pass, n_vars)
    canonical = _header_bytes(header)
    if canonical != r.data[:r.offset]:
        at = next(i for i, (a, b) in enumerate(zip(canonical, r.data)) if a != b)
        raise CorruptArtifactError(
            "header is not canonical (initial level, packing flag or unset packing fields)", at)
    if post_pass != 0:
        raise UnsupportedFeatureError(f"post-pass id {post_pass} is not implemented")
    if n_vars < 1:
        raise CorruptArtifactError("artifact declares zero variables", r.offset - 2)

    dtype = np.dtype(VALUE_KIND_DTYPES[header.value_kind])
    variables = []
    for i in range(n_vars):
        if i == 0 or header.mode == ONE_FOR_ONE:
            (nbytes,) = r.unpack("<I", "bit-field length")
            bits = r.take(nbytes, "bit-field section")
        at = r.offset
        (count,) = r.unpack("<I", "payload count")
        if count * dtype.itemsize > len(r.data) - r.offset:
            raise CorruptArtifactError(
                f"payload section declares {count} values but only "
                f"{len(r.data) - r.offset} bytes remain", at)
        payload = np.frombuffer(r.data, dtype, count, r.offset)  # a read-only view
        r.offset += payload.nbytes
        variables.append(CompressedVariable(
            shape=shape, value_kind=header.value_kind, mesh_bits=bits, payload=payload,
            criterion=criterion, mode=header.mode, packing=packing))
    if r.offset != len(r.data):
        raise CorruptArtifactError(
            f"{len(r.data) - r.offset} trailing bytes after last section", r.offset)
    return variables, header
