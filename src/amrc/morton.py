"""Morton (Z-order) codes of quadtree/octree elements.

An element at refinement depth ``level`` (root = level 0) is identified by
its level and its code, the bit-interleaved cell coordinate at that level.
Axis 0 is the least significant interleaved axis: bit ``i`` of the axis-0
coordinate lands in code bit ``dim*i``, axis 1 in ``dim*i + 1``, axis 2 in
``dim*i + 2``. The mesh keeps codes and levels as parallel arrays; the
artifact format never stores a code.

Both helpers accept plain Python ints or ``uint64`` numpy arrays.
"""

from __future__ import annotations

# Codes must fit one 64-bit word: dim * level <= 62 (2D) / 60 (3D).
MAX_LEVEL = {2: 31, 3: 20}


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

