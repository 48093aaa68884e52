"""Morton (Z-order) codes of quadtree/octree elements.

An element at refinement depth ``level`` (root = level 0) is identified by
its level and its code, the bit-interleaved cell coordinate at that level:
bit ``i`` of the axis-``a`` coordinate is code bit ``dim*i + a``, for
``i < MAX_LEVEL[dim]``. The artifact format never stores a code.

No round trip calls this coder: compression and decompression walk the
level grids in Morton child order instead (``mesh._walk``). Its callers
are ``criteria.resolve_bounds_batch``, ``tests/oracle.py`` and the
benchmark's per-layer probes, so it places the bits by a plain loop over
bit positions. Both helpers take Python ints or ``uint64`` numpy arrays.
"""

from __future__ import annotations

from .mesh import MAX_LEVEL


def _levels(dim: int) -> int:
    if dim not in MAX_LEVEL:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    return MAX_LEVEL[dim]


def interleave(coords, dim: int):
    """Interleave per-axis coordinates (ints or uint64 arrays) into a code."""
    code = 0
    for i in range(_levels(dim)):
        for a in range(dim):
            code |= ((coords[a] >> i) & 1) << (dim * i + a)
    return code


def deinterleave(code, dim: int):
    """Inverse of :func:`interleave`; returns a tuple of per-axis coordinates."""
    coords = [0] * dim
    for i in range(_levels(dim)):
        for a in range(dim):
            coords[a] |= ((code >> (dim * i + a)) & 1) << i
    return tuple(coords)
