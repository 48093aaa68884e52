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
``ceil(e / 2^(initial_level - l))`` cells per extent ``e``; :func:`_families`
cuts a level grid into sibling families in Morton child order, with the pad
cell of each odd axis as a dummy leaf, and :func:`_assemble` turns the leaves
a bottom-up level pass leaves behind into a mesh in curve order. The initial
mesh and its data mapping are that pass with nothing accepted.
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

    def validate(self) -> None:
        """Check the partition, ordering, and dummy-flag invariants; raise on failure."""
        l0, dim = self.initial_level, self.dim
        if self.n_leaves == 0:
            raise ShapeError("mesh has no leaves")
        if int(self.levels.max(initial=0)) > l0:
            raise ShapeError("leaf level exceeds initial level")
        aligned = self.aligned_codes()
        if not np.all(aligned[1:] > aligned[:-1]):
            raise ShapeError("leaves are not strictly ascending in SFC order")
        measure = sum(1 << (dim * (l0 - int(l))) for l in self.levels)
        if measure != 1 << (dim * l0):
            raise ShapeError("leaves do not partition the root domain")
        if not np.array_equal(self.dummy, _dummy_flags(self.codes, self.levels, self.shape)):
            raise ShapeError("dummy flags do not match the grid geometry")


def _aligned(codes: np.ndarray, levels: np.ndarray, dim: int, l0: int) -> np.ndarray:
    shift = (dim * (l0 - levels.astype(np.int64))).astype(np.uint64)
    return codes.astype(np.uint64) << shift


def _dummy_flags(codes: np.ndarray, levels: np.ndarray, shape: GridShape) -> np.ndarray:
    """A leaf is dummy iff its covered cell box lies fully outside the grid."""
    l0 = shape.initial_level
    coords = morton.deinterleave(codes.astype(np.uint64), shape.dim)
    shift = (l0 - levels.astype(np.int64)).astype(np.uint64)
    dummy = np.zeros(len(codes), dtype=bool)
    for axis, ext in enumerate(shape.morton_extents):
        dummy |= (coords[axis] << shift) >= ext
    return dummy


def _families(grid: np.ndarray, fill) -> np.ndarray:
    """``(n_parents, 2^dim)`` copy of one level's grid, one row per family.

    Each odd axis is first padded by one ``fill`` cell. Rows follow the
    parent grid in row-major order; within a row, child ``k = x | y<<1 | z<<2``
    with x the last numpy axis, which is Morton child order.
    """
    dim = grid.ndim
    pad = [(0, e % 2) for e in grid.shape]
    if any(p for _, p in pad):
        grid = np.pad(grid, pad, constant_values=fill)
    split = grid.reshape([n for e in grid.shape for n in (e // 2, 2)])
    order = list(range(0, 2 * dim, 2)) + list(range(1, 2 * dim, 2))
    return np.ascontiguousarray(split.transpose(order)).reshape(-1, 1 << dim)


def _child_codes(mask: np.ndarray, parents: tuple[int, ...]) -> np.ndarray:
    """Morton codes of the children selected by a ``(n_parents, 2^dim)`` mask."""
    dim = len(parents)
    rows = np.flatnonzero(mask.any(axis=1))
    coords = np.unravel_index(rows, parents)
    pcodes = morton.interleave(
        tuple(coords[dim - 1 - a].astype(np.uint64) for a in range(dim)), dim)
    sel, k = np.nonzero(mask[rows])
    return (pcodes[sel] << np.uint64(dim)) | k.astype(np.uint64)


def _assemble(shape: GridShape, parts, fills, root=None):
    """Mesh and per-leaf columns, in curve order, from the leaves of a level pass.

    A bottom-up pass visits the level grids from the initial level upward and
    leaves behind, at each level, the leaves that no accepted parent absorbed.
    ``parts`` holds one ``(emit, columns)`` per visited level, finest first:
    ``emit`` masks the level's :func:`_families` rows for those leaves, and
    each column holds one value per leaf, in mask order. ``root`` holds the
    root's columns when the pass absorbed everything up to the root (always
    so for a 1x1 grid). Otherwise every level above the last part is refined
    and only its pad cells are leaves there: dummy leaves whose columns hold
    ``fills``. A leaf is dummy iff it is a pad cell of its level's grid.

    Returns the mesh and each column concatenated in the mesh's leaf order.
    """
    l0, dim = shape.initial_level, shape.dim
    codes, levels, dummy, cols = [], [], [], []
    for i, level in enumerate(range(l0, 0, -1)):
        grid = tuple(-(-e >> i) for e in shape.extents)
        pad = _families(np.zeros(grid, dtype=bool), True)
        if i < len(parts):
            emit, columns = parts[i]
        else:
            emit = pad
            columns = [np.full(int(pad.sum()), f) for f in fills]
        codes.append(_child_codes(emit, tuple((e + 1) // 2 for e in grid)))
        levels.append(np.full(len(codes[-1]), level, dtype=np.uint8))
        dummy.append(pad[emit])
        cols.append(columns)
    if root is not None:
        codes.append(np.zeros(1, dtype=np.uint64))
        levels.append(np.zeros(1, dtype=np.uint8))
        dummy.append(np.zeros(1, dtype=bool))
        cols.append(root)
    levels = np.concatenate(levels)
    codes = np.concatenate(codes)
    order = np.argsort(_aligned(codes, levels, dim, l0))
    mesh = ForestMesh(shape, codes[order], levels[order], np.concatenate(dummy)[order])
    return mesh, [np.concatenate(c)[order] for c in zip(*cols)]


def _initial_leaves(shape: GridShape, arrays):
    """The level pass with nothing accepted: one leaf per cell, columns from ``arrays``."""
    if shape.initial_level == 0:  # a 1x1 grid: the root is the only leaf
        return _assemble(shape, [], [], root=[a.reshape(-1) for a in arrays])
    emit = _families(np.ones(shape.extents, dtype=bool), True)
    columns = [_families(a.reshape(shape.extents), np.nan).reshape(-1) for a in arrays]
    return _assemble(shape, [(emit, columns)], [np.nan] * len(arrays))


def build_initial_mesh(shape: GridShape) -> ForestMesh:
    """Embed the grid in a single tree, one element per data point.

    Elements intersecting the grid are refined down to the initial level;
    elements fully outside are kept as coarse dummy leaves.
    """
    return _initial_leaves(shape, [])[0]


def _cell_codes(shape: GridShape) -> np.ndarray:
    """Morton codes of all grid cells, in row-major enumeration order."""
    idx = np.indices(shape.extents).reshape(shape.dim, -1)
    coords = tuple(idx[shape.dim - 1 - k].astype(np.uint64) for k in range(shape.dim))
    return morton.interleave(coords, shape.dim)


def map_data(shape: GridShape, values, mesh: ForestMesh | None = None) -> np.ndarray:
    """Reorder a row-major linear array into per-leaf values on the initial mesh.

    Returns a float64 array aligned with the leaves of
    ``build_initial_mesh(shape)``, which ``mesh`` must be if given; dummy
    leaves carry NaN as the missing-value marker.
    """
    arr = np.asarray(values).reshape(-1)
    if arr.size != shape.npoints:
        raise ShapeError(f"expected {shape.npoints} values, got {arr.size}")
    return _initial_leaves(shape, [arr.astype(np.float64)])[1][0]


def expand_to_uniform(mesh: ForestMesh, leaf_values) -> np.ndarray:
    """Fan per-leaf values out to the full grid by constant interpolation.

    Returns a float64 row-major linear array; dummy regions are dropped.
    """
    vals = np.asarray(leaf_values, dtype=np.float64)
    if vals.shape != (mesh.n_leaves,):
        raise ShapeError(f"expected {mesh.n_leaves} leaf values, got shape {vals.shape}")
    pos = np.searchsorted(mesh.aligned_codes(), _cell_codes(mesh.shape), side="right") - 1
    return vals[pos]


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


def leaf_box(code: int, level: int, shape: GridShape) -> tuple[tuple[int, int], ...]:
    """Covered cell box of an element, in grid index space (numpy axis order).

    Half-open ``(lo, hi)`` per axis, unclipped against the extents.
    """
    size = 1 << (shape.initial_level - level)
    coords = morton.deinterleave(int(code), shape.dim)
    return tuple((c * size, (c + 1) * size) for c in reversed(coords))
