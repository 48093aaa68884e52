"""Single-tree adaptive mesh over a rectangular grid of data points.

The grid is embedded in one refinement tree whose root spans
``[0, 2^initial_level)`` per axis, where ``initial_level`` is the smallest
depth at which every data point owns its own element. Elements that lie fully
outside the grid are "dummy" leaves; they are kept as coarse as possible,
carry no data, and are recomputed from the grid shape alone.

Conventions
-----------
- ``GridShape.extents`` follows numpy shape order; linear arrays are row-major
  with the last axis fastest.
- The last (fastest) extent axis is Morton axis 0, so spatial locality in
  memory matches locality on the curve.

A :class:`ForestMesh` is an immutable snapshot: the leaf set as parallel
arrays (Morton codes, levels, dummy flags) in ascending space-filling-curve
order. It has no operations that return new meshes; meshes come from the
level grids or from the bit-fields.

This module owns the tree geometry. The grid at level ``l`` has
``ceil(e / 2^(initial_level - l))`` cells per extent ``e``. Parent ``p``
of a level grid has its children at ``2p`` and ``2p + 1`` on every axis, in
Morton child order; on an odd axis the last parent's second child is a pad
cell outside the grid, a dummy leaf. :func:`_children` gives the cells and
pad flags of chosen families. A bottom-up level pass leaves one leaf-flag
grid per level, and :func:`_walk` turns them into the mesh top-down: from
the root it refines every element that is not a leaf, taking children in
Morton child order, so the elements stay in curve order without a sort.
Its refine flags per depth are the bit-fields, and each level's leaves,
met in curve order, take their place in the leaf list by a per-level mask
(:func:`_fill_leaves`). The initial mesh and its data mapping are that walk
with nothing accepted. The same families as a padded ``(n_parents, 2^dim)``
copy, for the reference checks, are built in ``tests/oracle.py``.
Expansion to the uniform grid is the level pass in reverse: top-down from
the root, each level's grid is upsampled into the next and that level's
leaves are written in place, so no cell is ever Morton-encoded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import morton
from .errors import CorruptArtifactError, ShapeError


@dataclass(frozen=True)
class GridShape:
    """Extents of the data grid, in numpy shape order."""

    extents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(int(e) for e in self.extents))
        if len(self.extents) not in (2, 3):
            raise ShapeError(f"grid must be 2D or 3D, got {len(self.extents)} axes")
        if any(e < 1 for e in self.extents):
            raise ShapeError(f"every extent must be >= 1, got {self.extents}")
        if self.initial_level > morton.MAX_LEVEL[self.dim]:
            raise ShapeError(
                f"extent {max(self.extents)} needs level {self.initial_level}, "
                f"maximum is {morton.MAX_LEVEL[self.dim]} in {self.dim}D"
            )

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def npoints(self) -> int:
        n = 1
        for e in self.extents:
            n *= e
        return n

    @property
    def initial_level(self) -> int:
        """Depth at which each data point has its own element: ceil(log2(max extent))."""
        return (max(self.extents) - 1).bit_length()

    @property
    def morton_extents(self) -> tuple[int, ...]:
        """Extents reordered so index 0 is Morton axis 0 (= last numpy axis)."""
        return self.extents[::-1]


@dataclass(frozen=True)
class ForestMesh:
    """Leaf set of one refinement tree, in ascending SFC order."""

    shape: GridShape
    codes: np.ndarray  # uint64 Morton codes, each at its own level
    levels: np.ndarray  # uint8 refinement levels
    dummy: np.ndarray  # bool, True for leaves fully outside the grid

    def __post_init__(self):
        for arr in (self.codes, self.levels, self.dummy):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.shape.dim

    @property
    def initial_level(self) -> int:
        return self.shape.initial_level

    @property
    def n_leaves(self) -> int:
        return len(self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ForestMesh):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.levels, other.levels)
            and np.array_equal(self.dummy, other.dummy)
        )

    def aligned_codes(self) -> np.ndarray:
        """Codes left-aligned to the initial level (strictly increasing)."""
        return _aligned(self.codes, self.levels, self.dim, self.initial_level)

    def level_histogram(self) -> dict[int, int]:
        lv, cnt = np.unique(self.levels, return_counts=True)
        return {int(a): int(b) for a, b in zip(lv, cnt)}


def _aligned(codes: np.ndarray, levels: np.ndarray, dim: int, l0: int) -> np.ndarray:
    shift = (dim * (l0 - levels.astype(np.int64))).astype(np.uint64)
    return codes.astype(np.uint64) << shift


def _dummy_flags(codes: np.ndarray, levels: np.ndarray, shape: GridShape) -> np.ndarray:
    """A leaf is dummy iff its covered cell box lies fully outside the grid.

    That is, one of its coordinates reaches the extent of its level's grid.
    Spreading an axis's bits into a code keeps their order, so each axis is
    compared on its own bits of the code, without deinterleaving.
    """
    l0, dim = shape.initial_level, shape.dim
    pad = (0,) * (dim - 1)  # spread a value to the code positions of Morton axis 0
    mask = morton.interleave(((1 << l0) - 1,) + pad, dim)
    codes, levels = codes.astype(np.uint64, copy=False), levels.astype(np.intp)
    dummy = np.zeros(len(codes), dtype=bool)
    for axis, ext in enumerate(shape.morton_extents):
        limits = np.array([morton.interleave((-(-ext >> (l0 - l)),) + pad, dim) << axis
                           for l in range(l0 + 1)], dtype=np.uint64)
        dummy |= (codes & np.uint64(mask << axis)) >= limits[levels]
    return dummy


def _children(grid: tuple[int, ...], rows: np.ndarray):
    """Cells of the families at ``rows`` of a level grid, and which are pads.

    ``rows`` are flat row-major indices into the parent grid. Returns two
    ``(len(rows), 2^dim)`` arrays in Morton child order: each child's flat
    index into ``grid``, and a flag that is set where the child is the pad
    cell of an odd axis, i.e. a dummy leaf. A pad child's index points at
    some cell of the grid; what it holds is not the pad's.
    """
    dim = len(grid)
    coords = np.unravel_index(rows, tuple((e + 1) // 2 for e in grid))
    k = np.arange(1 << dim)
    base = np.zeros(len(rows), dtype=np.intp)
    offset = np.zeros(1 << dim, dtype=np.intp)
    pad = np.zeros((len(rows), 1 << dim), dtype=bool)
    for j, e in enumerate(grid):
        bit = (k >> (dim - 1 - j)) & 1
        base = base * e + 2 * coords[j]
        offset = offset * e + bit
        if e % 2:
            pad |= (coords[j] == e // 2)[:, None] & (bit == 1)
    flat = base[:, None] + offset
    if pad.any():
        np.minimum(flat, int(np.prod(grid)) - 1, out=flat)
    return flat, pad


def _walk(shape: GridShape, leaves):
    """Bit-field and leaf order of the mesh that a bottom-up level pass leaves.

    ``leaves`` holds one flag grid per level, the initial level first, marking
    the cells that are leaves when their parent is refined (``None``: every
    cell); levels above the last grid hold no leaves but pad cells. The walk
    starts at the root and refines every element that is not a leaf, taking
    its children from :func:`_children` in Morton child order, so the element
    list stays in curve order without sorting. Like
    :func:`deserialize_refinement` it carries the whole truncated mesh along,
    and its refine flags per depth are the bit-field.

    Returns the bit-field, a key per leaf of the mesh in curve order (``2h``
    for a data leaf ``h`` levels above the initial level, ``2h + 1`` for a
    dummy), and per level of ``leaves`` the flat cell indices of its data
    leaves in curve order.
    """
    l0, fam = shape.initial_level, 1 << shape.dim
    key = np.full(1, 2 * l0, dtype=np.uint8)  # an element not yet classified at h holds 2h
    cells, pad = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=bool)
    bits, found = bytearray(), [cells[:0]] * len(leaves)
    for h in range(l0, -1, -1):
        if h >= len(leaves):
            leaf = pad
        elif leaves[h] is None:
            leaf = np.ones(len(cells), dtype=bool)
        else:
            leaf = pad | leaves[h].reshape(-1)[cells]
        data = leaf & ~pad
        if h < len(leaves):
            found[h] = cells if data.all() else cells[data]
        if data.all():  # nothing to mark or refine, mostly the initial level
            break
        opened = np.flatnonzero(key == 2 * h)
        key[opened[pad]] += 1
        if leaf.all():
            break
        refine = np.zeros(len(key), dtype=bool)
        refine[opened[~leaf]] = True
        bits += np.packbits(refine, bitorder="little").tobytes()
        key[refine] -= 2
        key = np.repeat(key, np.where(refine, fam, 1))
        grid = tuple(-(-e >> (h - 1)) for e in shape.extents)
        cells, pad = (a.reshape(-1) for a in _children(grid, cells[~leaf]))
    return bytes(bits), key, found


def _fill_leaves(out: np.ndarray, key: np.ndarray, cells, grids) -> np.ndarray:
    """Write per-level grid values into ``out``, one slot per key of :func:`_walk`.

    ``cells`` and ``grids`` run over the levels, the initial level first; a
    grid may be a scalar. Slots of other keys keep what ``out`` holds.
    """
    for h, (c, grid) in enumerate(zip(cells, grids)):
        if len(c):
            out[key == 2 * h] = grid if np.isscalar(grid) else grid.reshape(-1)[c]
    return out


def build_initial_mesh(shape: GridShape) -> ForestMesh:
    """Embed the grid in a single tree, one element per data point.

    Elements intersecting the grid are refined down to the initial level;
    elements fully outside are kept as coarse dummy leaves.
    """
    return deserialize_refinement(_walk(shape, [None])[0], shape)


def map_data(shape: GridShape, values, mesh: ForestMesh | None = None) -> np.ndarray:
    """Reorder a row-major linear array into per-leaf values on the initial mesh.

    Returns a float64 array aligned with the leaves of
    ``build_initial_mesh(shape)``, which ``mesh`` must be if given; dummy
    leaves carry NaN as the missing-value marker.
    """
    arr = np.asarray(values).reshape(-1)
    if arr.size != shape.npoints:
        raise ShapeError(f"expected {shape.npoints} values, got {arr.size}")
    _, key, cells = _walk(shape, [None])
    return _fill_leaves(np.full(len(key), np.nan), key, cells, [arr])


def _upsample(grid: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` with ``grid`` repeated twice along every axis, cropped to ``out``."""
    dim = grid.ndim
    for k in range(1 << dim):
        dst = out[tuple(slice((k >> a) & 1, None, 2) for a in range(dim))]
        dst[...] = grid[tuple(slice(0, n) for n in dst.shape)]


def _expand_into(out: np.ndarray, mesh: ForestMesh, data_values: np.ndarray) -> None:
    """Write the data leaves' values into ``out``, the grid at the initial level.

    ``data_values`` holds one value per non-dummy leaf, in curve order. The
    pass runs top-down from the ``(1,)*dim`` grid of level 0: each level's
    grid is the one above upsampled by 2 per axis and cropped to the level's
    extents, then that level's leaves are written at their coordinates. The
    initial level upsamples into ``out`` itself, the only grid of its size.
    """
    l0, dim = mesh.initial_level, mesh.dim
    data = ~mesh.dummy
    levels = mesh.levels[data]
    order = np.argsort(levels, kind="stable")
    ends = np.cumsum(np.bincount(levels, minlength=l0 + 1))
    coords = morton.deinterleave(mesh.codes[data][order], dim)[::-1]
    values = data_values[order]
    grid, start = None, 0
    for level, end in enumerate(ends[: l0 + 1]):
        extents = tuple(-(-e >> (l0 - level)) for e in out.shape)
        nxt = out if level == l0 else np.empty(extents, out.dtype)
        if grid is not None:
            _upsample(grid, nxt)
        grid = nxt
        grid[tuple(c[start:end] for c in coords)] = values[start:end]
        start = end


def expand_to_uniform(mesh: ForestMesh, leaf_values) -> np.ndarray:
    """Fan per-leaf values out to the full grid by constant interpolation.

    ``leaf_values`` holds one value per leaf, dummy leaves included; their
    values are never read. The expansion is the level pass in reverse: a
    top-down pass that upsamples each level's grid into the next and writes
    that level's leaves in place. Returns a float64 row-major linear array.
    """
    vals = np.asarray(leaf_values, dtype=np.float64)
    if vals.shape != (mesh.n_leaves,):
        raise ShapeError(f"expected {mesh.n_leaves} leaf values, got shape {vals.shape}")
    out = np.empty(mesh.shape.extents)
    _expand_into(out, mesh, vals[~mesh.dummy])
    return out.reshape(-1)


def complete_family_starts(mesh: ForestMesh) -> np.ndarray:
    """Positions of the first members of all complete same-level leaf families."""
    return _family_starts(mesh.codes, mesh.levels, mesh.dim)


def _family_starts(codes: np.ndarray, levels: np.ndarray, dim: int) -> np.ndarray:
    fam = 1 << dim
    n = len(codes)
    if n < fam:
        return np.empty(0, dtype=np.int64)
    m = n - fam + 1
    ok = (codes[:m] % fam == 0) & (levels[:m] >= 1)
    for k in range(1, fam):
        ok &= (codes[k : m + k] == codes[:m] + k) & (levels[k : m + k] == levels[:m])
    return np.nonzero(ok)[0].astype(np.int64)


def serialize_refinement(mesh: ForestMesh) -> bytes:
    """Encode the mesh as level-wise refinement bit-fields.

    For each depth below the deepest leaf, one bit per element of the mesh
    truncated at that depth, in SFC order: 1 = refined further, 0 = final.
    Bits are packed LSB-first; every level is padded to a byte boundary. A
    root-only mesh encodes to zero bytes.
    """
    aligned = mesh.aligned_codes()
    out = bytearray()
    for depth in range(int(mesh.levels.max())):
        # a truncated element is a leaf at level <= depth, or the depth-level
        # ancestor of a run of deeper leaves, met at the run's first leaf
        key = aligned >> np.uint64(mesh.dim * (mesh.initial_level - depth))
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        refine = mesh.levels[first] > depth
        out += np.packbits(refine, bitorder="little").tobytes()
    return bytes(out)


def deserialize_refinement(data: bytes, shape: GridShape) -> ForestMesh:
    """Rebuild a mesh from level-wise refinement bit-fields.

    Inverse of :func:`serialize_refinement` for meshes over ``shape``; dummy
    flags are recomputed from the grid geometry.
    """
    l0, dim = shape.initial_level, shape.dim
    fam = 1 << dim
    fcodes = np.zeros(1, dtype=np.uint64)
    flevels = np.zeros(1, dtype=np.int64)
    offset = depth = 0
    while offset < len(data):
        n = len(fcodes)
        nbytes = (n + 7) // 8
        if offset + nbytes > len(data):
            raise CorruptArtifactError(
                f"bit-field truncated: level needs {nbytes} bytes, "
                f"{len(data) - offset} remain", offset)
        bits = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=offset),
            bitorder="little",
        )
        if bits[n:].any():
            raise CorruptArtifactError("nonzero padding bits in bit-field", offset)
        refine = bits[:n].astype(bool)
        if not refine.any():
            raise CorruptArtifactError("bit-field level refines nothing (over-long stream)", offset)
        if int(flevels[refine].min()) < depth:
            raise CorruptArtifactError(
                f"bit-field refines an element coarser than depth {depth} (non-canonical)", offset)
        if depth == l0:
            raise CorruptArtifactError(
                f"bit-field refines beyond initial level {l0}", offset)
        counts = np.where(refine, fam, 1)
        base = np.repeat(np.where(refine, fcodes << np.uint64(dim), fcodes), counts)
        offsets = np.arange(len(base)) - np.repeat(np.cumsum(counts) - counts, counts)
        fcodes = base + offsets.astype(np.uint64)
        flevels = np.repeat(flevels + refine, counts)
        offset += nbytes
        depth += 1
    levels = flevels.astype(np.uint8)
    return ForestMesh(shape, fcodes, levels, _dummy_flags(fcodes, levels, shape))
