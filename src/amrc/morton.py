"""Morton (Z-order) index arithmetic for quadtree/octree elements.

An element is identified by ``MortonIndex(code, level)``: ``code`` is the
bit-interleaved cell coordinate at refinement depth ``level`` (root = level 0).
Axis 0 is the least significant interleaved axis: bit ``i`` of the axis-0
coordinate lands in code bit ``dim*i``, axis 1 in ``dim*i + 1``, axis 2 in
``dim*i + 2``.

All bit-twiddling helpers accept plain Python ints or ``uint64`` numpy arrays.
"""

from __future__ import annotations

from typing import NamedTuple

# Codes must fit one 64-bit word: dim * level <= 62 (2D) / 60 (3D).
MAX_LEVEL = {2: 31, 3: 20}


class MortonIndex(NamedTuple):
    code: int
    level: int


def _part1by1(x):
    # spread a 32-bit value so its bits occupy even positions of 64
    x = (x | (x << 16)) & 0x0000FFFF0000FFFF
    x = (x | (x << 8)) & 0x00FF00FF00FF00FF
    x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0F
    x = (x | (x << 2)) & 0x3333333333333333
    x = (x | (x << 1)) & 0x5555555555555555
    return x


def _compact1by1(x):
    x = x & 0x5555555555555555
    x = (x ^ (x >> 1)) & 0x3333333333333333
    x = (x ^ (x >> 2)) & 0x0F0F0F0F0F0F0F0F
    x = (x ^ (x >> 4)) & 0x00FF00FF00FF00FF
    x = (x ^ (x >> 8)) & 0x0000FFFF0000FFFF
    x = (x ^ (x >> 16)) & 0x00000000FFFFFFFF
    return x


def _part1by2(x):
    # spread a 21-bit value so its bits occupy every third position of 64
    x = (x | (x << 32)) & 0x001F00000000FFFF
    x = (x | (x << 16)) & 0x001F0000FF0000FF
    x = (x | (x << 8)) & 0x100F00F00F00F00F
    x = (x | (x << 4)) & 0x10C30C30C30C30C3
    x = (x | (x << 2)) & 0x1249249249249249
    return x


def _compact1by2(x):
    x = x & 0x1249249249249249
    x = (x ^ (x >> 2)) & 0x10C30C30C30C30C3
    x = (x ^ (x >> 4)) & 0x100F00F00F00F00F
    x = (x ^ (x >> 8)) & 0x001F0000FF0000FF
    x = (x ^ (x >> 16)) & 0x001F00000000FFFF
    x = (x ^ (x >> 32)) & 0x00000000001FFFFF
    return x


def interleave(coords, dim: int):
    """Interleave per-axis coordinates (ints or uint64 arrays) into a code."""
    if dim == 2:
        x, y = coords
        return _part1by1(x) | (_part1by1(y) << 1)
    if dim == 3:
        x, y, z = coords
        return _part1by2(x) | (_part1by2(y) << 1) | (_part1by2(z) << 2)
    raise ValueError(f"dim must be 2 or 3, got {dim}")


def deinterleave(code, dim: int):
    """Inverse of :func:`interleave`; returns a tuple of per-axis coordinates."""
    if dim == 2:
        return _compact1by1(code), _compact1by1(code >> 1)
    if dim == 3:
        return _compact1by2(code), _compact1by2(code >> 1), _compact1by2(code >> 2)
    raise ValueError(f"dim must be 2 or 3, got {dim}")


def _check_level(level: int, dim: int) -> None:
    if dim not in MAX_LEVEL:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if not 0 <= level <= MAX_LEVEL[dim]:
        raise ValueError(f"level {level} outside [0, {MAX_LEVEL[dim]}] for dim {dim}")


def morton_encode(coords, level: int, dim: int) -> MortonIndex:
    """Encode per-axis cell indices at ``level`` into a Morton index."""
    _check_level(level, dim)
    if len(coords) != dim:
        raise ValueError(f"expected {dim} coordinates, got {len(coords)}")
    for c in coords:
        if not 0 <= c < (1 << level):
            raise ValueError(f"coordinate {c} out of range [0, 2^{level}) for level {level}")
    return MortonIndex(int(interleave(tuple(int(c) for c in coords), dim)), level)


def morton_decode(index: MortonIndex, dim: int) -> tuple[int, ...]:
    """Decode a Morton index back into per-axis cell indices."""
    code, level = index
    _check_level(level, dim)
    if not 0 <= code < (1 << (dim * level)):
        raise ValueError(f"code {code} out of range for level {level}, dim {dim}")
    return tuple(int(c) for c in deinterleave(int(code), dim))


def parent(index: MortonIndex, dim: int) -> MortonIndex:
    """Parent element, one level up. The root has no parent."""
    code, level = index
    if level < 1:
        raise ValueError("root element has no parent")
    return MortonIndex(int(code) >> dim, level - 1)


def family_of(index: MortonIndex, dim: int) -> list[MortonIndex]:
    """All 2^dim siblings sharing ``index``'s parent, in ascending code order."""
    code, level = index
    _check_level(level, dim)
    if level < 1:
        raise ValueError("root element has no family")
    if not 0 <= code < (1 << (dim * level)):
        raise ValueError(f"code {code} out of range for level {level}, dim {dim}")
    base = (int(code) >> dim) << dim
    return [MortonIndex(base + k, level) for k in range(1 << dim)]
