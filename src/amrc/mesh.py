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
cell outside the grid, a dummy leaf. That layout has two forms here:
:func:`_blocks` gives the families of a whole level grid as strided child
slices, which the level pass reads and decoding writes, and
:func:`_children` gives the flat cells and pad flags of chosen families,
which the walk follows.

One top-down walk, :func:`_walk`, is the only bridge between the bit-fields
and the level grids, in both directions. From the root it refines every
element that is not a leaf, taking children in Morton child order, so the
elements stay in curve order without a sort, and its refine flags per
depth are the bit-fields. On compression the leaves are the leaf-flag grids
that the bottom-up level pass leaves, and the walk writes the bit-fields;
on decoding it reads them. Either way it gives each leaf in curve order a
key (its height above the initial level, and whether it is a dummy) and
each level above the initial one the cells of its data leaves. The initial
level is final, so it is held as whole families, one refined level-1 cell
each, and the walk stops after level 1. Compression gathers the payload
from the level grids (:func:`_fill_leaves`), level by level and, within a
level, a chunk of keys at a time, computing the initial level's cells from
its families a chunk at a time, once for all the variables of a shared
mesh, so it holds no level-sized temporary;
decompression is the mirror image (:func:`_fill_grids`): top-down from the
root, each parent's value is written into its present children, and each
level's leaves are written in place. Level 1 lies over the head of the
output and is upsampled into the rest of it in place, so the output is the
only grid decoding holds beyond the levels from 2 up. Neither side computes
a Morton code. The grid shape alone decides the width of the cell indices
(:func:`_walk`).
A :class:`ForestMesh` is built from the keys alone, since the leaves tile
the root in curve order. The initial mesh and its data mapping are the walk
with nothing accepted. The same families as a padded ``(n_parents, 2^dim)``
copy, for the reference checks, are built in ``tests/oracle.py``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CorruptArtifactError, ShapeError

# The deepest initial level: a level-l Morton code takes dim*l bits of one
# 64-bit word, so this cap on the code width fixes a grid's largest extent.
MAX_LEVEL = {2: 31, 3: 20}


@dataclass(frozen=True)
class GridShape:
    """Extents of the data grid, in numpy shape order."""

    extents: tuple[int, ...]

    def __post_init__(self):
        try:
            extents = tuple(operator.index(e) for e in self.extents)
        except TypeError:
            raise ShapeError(f"every extent must be an integer, got {self.extents}") from None
        object.__setattr__(self, "extents", extents)
        if len(self.extents) not in (2, 3):
            raise ShapeError(f"grid must be 2D or 3D, got {len(self.extents)} axes")
        if any(e < 1 for e in self.extents):
            raise ShapeError(f"every extent must be >= 1, got {self.extents}")
        if self.initial_level > MAX_LEVEL[self.dim]:
            raise ShapeError(
                f"extent {max(self.extents)} needs level {self.initial_level}, "
                f"maximum is {MAX_LEVEL[self.dim]} in {self.dim}D"
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


@dataclass(frozen=True, eq=False)
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

    def aligned_codes(self) -> np.ndarray:
        """Codes left-aligned to the initial level (strictly increasing)."""
        shift = (self.dim * (self.initial_level - self.levels.astype(np.int64))).astype(np.uint64)
        return self.codes.astype(np.uint64) << shift


def _mesh(shape: GridShape, key: np.ndarray) -> ForestMesh:
    """The mesh of the leaf keys of :func:`_walk`, in curve order.

    The leaves tile the root in curve order, so each one starts where the
    one before ends: its code is the sum of the sizes of the leaves before
    it, ``2^(dim * (l0 - level))`` cells each at the initial level, shifted
    down to its own level. That sum is at most ``2^62``.
    """
    height = (key >> 1).astype(np.uint64)
    shift = np.uint64(shape.dim) * height
    size = np.uint64(1) << shift
    codes = (np.cumsum(size) - size) >> shift
    levels = (shape.initial_level - height).astype(np.uint8)
    return ForestMesh(shape, codes, levels, (key & 1).astype(bool))


@functools.lru_cache(maxsize=128)
def _blocks(extents: tuple[int, ...]) -> tuple:
    """The families of a level grid, as blocks of the parent grid and child slices.

    Splitting each odd axis into full parents and the last one, whose
    second child is the pad, cuts the parent grid into blocks in which
    every child is present throughout or a pad throughout. Returns
    ``(parent slices, child slices)`` per block, with the children in Morton
    child order and ``None`` for a pad child. The blocks are kept per shape:
    the level kernel and the fills ask for the same few shapes over and
    over, and building the slices costs more than copying a small level.
    """
    dim = len(extents)
    axes = []
    for e in extents:
        h = e // 2
        options = [(slice(0, h), (slice(0, 2 * h, 2), slice(1, 2 * h, 2)))] if h else []
        if e % 2:
            options.append((slice(h, h + 1), (slice(e - 1, e), None)))
        axes.append(options)
    blocks = []
    for combo in itertools.product(*axes):
        children = []
        for k in range(1 << dim):
            sl = tuple(c[1][(k >> (dim - 1 - j)) & 1] for j, c in enumerate(combo))
            children.append(None if None in sl else sl)
        blocks.append((tuple(c[0] for c in combo), tuple(children)))
    return tuple(blocks)


def _children(grid: tuple[int, ...], rows: np.ndarray):
    """Cells of the families at ``rows`` of a level grid, and which are pads.

    ``rows`` are flat row-major indices into the parent grid. Returns two
    ``(len(rows), 2^dim)`` arrays in Morton child order: each child's flat
    index into ``grid``, and a flag that is set where the child is the pad
    cell of an odd axis, i.e. a dummy leaf. A pad child's index points at
    some cell of the grid; what it holds is not the pad's.

    The indices are in the dtype of ``rows`` (:func:`_walk`): the
    coordinates come from ``np.divmod`` in that dtype, as
    ``np.unravel_index`` would return ``intp``.
    """
    dim = len(grid)
    coords, rest = [], rows
    for e in grid[:0:-1]:
        rest, c = np.divmod(rest, (e + 1) // 2)
        coords.insert(0, c)
    coords.insert(0, rest)
    k = np.arange(1 << dim, dtype=rows.dtype)
    base = np.zeros(len(rows), dtype=rows.dtype)
    offset = np.zeros(1 << dim, dtype=rows.dtype)
    pad = np.zeros((len(rows), 1 << dim), dtype=bool)
    for j, e in enumerate(grid):
        bit = (k >> (dim - 1 - j)) & 1
        base = base * e + 2 * coords[j]
        offset = offset * e + bit
        if e % 2:
            pad |= (coords[j] == e // 2)[:, None] & (bit == 1)
    flat = base[:, None] + offset
    if pad.any():
        np.minimum(flat, math.prod(grid) - 1, out=flat)
    return flat, pad


# keys per chunk of a level's slots: bounds the mask, the values and the
# initial level's cells that a fill holds at once
_CHUNK = 1 << 16


def _walk(shape: GridShape, leaves=None, bits: bytes | None = None):
    """Walk the mesh top-down from the root, from level grids or from a bit-field.

    The walk refines every element that is not a leaf, taking its children
    from :func:`_children` in Morton child order, so the element list stays
    in curve order without sorting. Its refine flags per depth, one per
    element of the mesh truncated there, are the bit-field. Only where the
    leaves come from depends on the direction:

    - compression passes ``leaves``, one flag grid per level that the
      bottom-up level pass reached, the initial level first, marking the
      cells that are leaves when their parent is refined (``None``: every
      cell); levels above the last grid hold no leaves but pad cells;
    - decoding passes ``bits`` and reads the flags from it. A pad cell is a
      dummy leaf and the initial level is final whatever the bits say, and
      the walk re-encodes what it reads: a stream that differs from its own
      encoding (truncated, over-long, or refining a leaf, a dummy or past
      the initial level) raises :class:`CorruptArtifactError`.

    Returns the bit-field, a key per leaf of the mesh in curve order (``2h``
    for a data leaf ``h`` levels above the initial level, ``2h + 1`` for a
    dummy), and per level, the initial level first, the flat cell indices of
    its data leaves in curve order. The initial level is the exception: it
    is final, so every child of a refined level-1 cell is a leaf there, a
    data leaf or a pad, and the walk stops after level 1's refine flags. Its
    entry holds the refined level-1 cells in curve order, one per family;
    the fills compute the children a chunk at a time (:func:`_level_slots`).
    A single-cell grid has no level 1, and its entry holds the one cell as
    the family of row 0 of a one-cell parent grid. Initial-level families
    hold pad children only where an extent is odd, and only then does the
    walk compute their pad flags, a chunk of families at a time, to mark
    them as dummies in the keys.

    The cell indices are ``int32`` when the finest grid, each odd extent
    rounded up to even, has fewer than ``2^31`` cells, and ``intp``
    otherwise; the grid shape alone decides. They are the largest arrays the
    walk holds, so their width sets its memory. Every level grid, padded so,
    is no larger, so no index of :func:`_children` overflows, pads included.
    """
    l0, fam = shape.initial_level, 1 << shape.dim
    padded = math.prod(e + e % 2 for e in shape.extents)
    index = np.int32 if padded < 1 << 31 else np.intp
    key = np.full(1, 2 * l0, dtype=np.uint8)  # an element not yet classified at h holds 2h
    cells, pad = np.zeros(1, dtype=index), np.zeros(1, dtype=bool)
    out, found = bytearray(), [cells[:0]] * (l0 + 1)
    if l0 == 0:
        found[0] = cells
    for h in range(l0, 0, -1):
        opened = None  # positions of the keys 2h, found once per level
        if bits is not None:
            level = bits[len(out):len(out) + (len(key) + 7) // 8]
            # len(level) is load-bearing: an empty slice reads as all leaves,
            # and np.unpackbits of an empty buffer with a count returns
            # uninitialized bytes, not zeros (numpy 2.4.6)
            if len(level):
                opened = np.flatnonzero(key == 2 * h)
                flags = np.unpackbits(np.frombuffer(level, dtype=np.uint8),
                                      count=len(key), bitorder="little")
                leaf = pad | (flags[opened] == 0)
            else:
                leaf = np.ones(len(cells), dtype=bool)
        elif h >= len(leaves):
            leaf = pad
        elif leaves[h] is None:
            leaf = np.ones(len(cells), dtype=bool)
        else:
            leaf = pad | leaves[h].reshape(-1)[cells]
        data = leaf & ~pad
        found[h] = cells if data.all() else cells[data]
        if data.all():  # nothing to mark or refine
            break
        if opened is None:
            opened = np.flatnonzero(key == 2 * h)
        key[opened[pad]] += 1
        if leaf.all():
            break
        refine = np.zeros(len(key), dtype=bool)
        refine[opened[~leaf]] = True
        out += np.packbits(refine, bitorder="little").tobytes()
        key[refine] -= 2
        key = np.repeat(key, np.where(refine, fam, 1))
        rows, cells = cells[~leaf], None  # this level's cells go before the next level's come
        if h > 1:
            grid = tuple(-(-e >> (h - 1)) for e in shape.extents)
            cells, pad = (a.reshape(-1) for a in _children(grid, rows))
            continue
        found[0] = rows
        if any(e % 2 for e in shape.extents):
            # only a family on the last parent of an odd axis holds pads; the
            # j-th refined family starts at pos[j] + (fam - 1) * j of the new keys
            pos, step = opened[~leaf], max(_CHUNK // fam, 1)
            parents = tuple((e + 1) // 2 for e in shape.extents)
            for a in range(0, len(rows), step):
                r, stride = rows[a:a + step], 1
                edge = np.zeros(len(r), dtype=bool)
                for e, p in zip(shape.extents[::-1], parents[::-1]):
                    if e % 2:
                        edge |= r // stride % p == p - 1
                    stride *= p
                j = a + np.flatnonzero(edge)
                i, k = np.nonzero(_children(shape.extents, rows[j])[1])
                key[pos[j[i]] + (fam - 1) * j[i] + k] += 1
    if bits is not None and out != bits:
        at = next((i for i, (a, b) in enumerate(zip(out, bits)) if a != b),
                  min(len(out), len(bits)))
        raise CorruptArtifactError(
            "bit-field is truncated or not canonical (over-long, or refines a leaf, "
            f"a dummy or past initial level {l0})", at)
    return bytes(out), key, found


def _level_slots(key: np.ndarray, h: int, cells: np.ndarray, extents=None):
    """The slots of key ``2h`` (data leaves ``h`` levels up) and their cells, by chunk of keys.

    Yields ``(at, mask, c)`` per chunk of ``_CHUNK`` keys that holds any:
    the chunk's slice of ``key``, the slots' mask within it, and the flat
    cells of those slots in the level grid, in curve order. Above the
    initial level ``c`` is a slice of the level's :func:`_walk` cells. The
    initial level's ``cells`` are whole families, one level-1 cell each:
    ``c`` is made for the chunk from :func:`_children` of the families it
    covers, with the pads dropped, and the data children of a family that
    the chunk boundary cuts are carried into the next chunk. That takes the
    grid's ``extents``; without them ``c`` is ``None`` on the initial level.
    """
    fam = 1 << len(extents or ())
    s, left = 0, cells[:0]  # cells (above: leaves, initial: families) taken, data children left
    for a in range(0, len(key), _CHUNK):
        if s == len(cells) and not len(left):
            break
        mask = key[a:a + _CHUNK] == 2 * h
        n = int(np.count_nonzero(mask))
        if not n:
            continue
        if h:
            c, s = cells[s:s + n], s + n
        elif extents:
            # a family holds at most fam data children and at least one, so
            # a second take, sized for one each, always makes up the pads
            for per in (fam, 1):
                if len(left) < n:
                    k = -(-(n - len(left)) // per)
                    flat, pad = _children(extents, cells[s:s + k])
                    flat = flat[~pad] if pad.any() else flat.reshape(-1)
                    del pad  # not held while the chunk is written
                    left = np.concatenate((left, flat)) if len(left) else flat
                    s += k
            c, left = left[:n], left[n:]
        else:
            c = None
        yield slice(a, a + _CHUNK), mask, c


def _fill_leaves(outs, key: np.ndarray, cells, grids) -> list[np.ndarray]:
    """Write per-level grid values into one slot per key of :func:`_walk`, for variables
    that share one mesh.

    ``outs`` yields one output per variable and is read one variable at a
    time, so a generator allocates each output only when its variable
    starts. ``grids`` holds one list of level grids per variable, the
    initial level first; a grid may be a scalar, and the initial level's
    grids have the grid's extents. Each variable's levels above the initial
    one are written top level first, as in :func:`_fill_grids`, each a
    chunk of keys at a time (:func:`_level_slots`), and popped off its list
    once written. The initial level is written last, for every variable at
    once, so each chunk's cells are made once. No level's values or
    initial-level cells are gathered at once. Slots of other keys keep what
    an output holds. Returns the outputs.
    """
    done = []
    for out, levels in zip(outs, grids):
        for h in range(len(levels) - 1, 0, -1):
            grid = levels.pop()
            for at, mask, c in _level_slots(key, h, cells[h]):
                out[at][mask] = grid if np.isscalar(grid) else grid.reshape(-1)[c]
        done.append(out)
    extents = None if np.isscalar(grids[0][0]) else grids[0][0].shape
    for at, mask, c in _level_slots(key, 0, cells[0], extents):
        for out, (grid,) in zip(done, grids):
            out[at][mask] = grid if extents is None else grid.reshape(-1)[c]
    return done


def _upsample(parent: np.ndarray, child: np.ndarray) -> None:
    """Write each cell of ``parent`` into its present children in ``child`` (:func:`_blocks`)."""
    for parents, children in _blocks(child.shape):
        for sl in children:
            if sl is not None:
                child[sl] = parent[parents]


def _expand_head(head: np.ndarray, out: np.ndarray) -> None:
    """:func:`_upsample` of the level-1 grid ``head``, the head of ``out``, into ``out`` in place.

    With ``E1`` rows in ``head``, and ``R`` and ``R1`` cells per row of
    ``out`` and of ``head``, rows ``a0:E1``, ``a0 = ceil(E1 * R1 / 2R)``,
    go to output rows ``2*a0:``, which start past every cell of ``head``;
    the even start keeps the family layout of :func:`_blocks`. Rows
    ``0:a0`` are copied first and then go to output rows ``0:2*a0``. Where
    ``E1`` is large the copy is about ``R1 / 2R`` of ``head``, a quarter in
    2D and an eighth in 3D, the size of the level-2 grid, which is gone by
    then; a grid of one level-1 row copies all of it, as much as a level-1
    grid of its own would take.
    """
    r, r1 = math.prod(out.shape[1:]), math.prod(head.shape[1:])
    a0 = -(-head.shape[0] * r1 // (2 * r))
    _upsample(head[a0:], out[2 * a0:])
    _upsample(head[:a0].copy(), out[:2 * a0])


def _fill_grids(outs, key: np.ndarray, cells, values) -> list[np.ndarray]:
    """Mirror of :func:`_fill_leaves`: write one value per key into the level grids.

    ``outs`` and ``values`` run over variables that share one mesh: each
    ``out`` is a C-contiguous grid of the initial level, and its values
    hold one per key. Top-down from the ``(1,)*dim`` grid of the root, each
    parent's value is written into its present children of
    :func:`_blocks`, and the values of the level's keys are written at its
    cells, a chunk of keys at a time (:func:`_level_slots`). Levels 2 and up
    have grids of their own, one variable at a time; level 1 lies over the
    head of ``out`` and is upsampled into ``out`` in place
    (:func:`_expand_head`). The initial level is written last, for every
    variable at once, so each chunk's cells are made once. The last
    variable pops each level's cells off the end of ``cells`` as it writes
    the level, so they go once it is. Values of odd keys are never read.
    """
    for i, (out, vals) in enumerate(zip(outs, values)):
        levels = cells if i == len(outs) - 1 else list(cells)
        head = tuple(-(-e >> 1) for e in out.shape)
        grid = None
        for h in range(len(levels) - 1, 0, -1):
            if h > 1:
                nxt = np.empty(tuple(-(-e >> h) for e in out.shape), out.dtype)
            else:
                nxt = out.reshape(-1)[:math.prod(head)].reshape(head)
            if grid is not None:
                _upsample(grid, nxt)
            grid = nxt
            for at, mask, c in _level_slots(key, h, levels.pop()):
                grid.reshape(-1)[c] = vals[at][mask]
        if grid is not None:
            _expand_head(grid, out)
    for at, mask, c in _level_slots(key, 0, cells.pop(), outs[0].shape):
        for out, vals in zip(outs, values):
            out.reshape(-1)[c] = vals[at][mask]
    return outs


def build_initial_mesh(shape: GridShape) -> ForestMesh:
    """Embed the grid in a single tree, one element per data point.

    Elements intersecting the grid are refined down to the initial level;
    elements fully outside are kept as coarse dummy leaves.
    """
    return _mesh(shape, _walk(shape, [None])[1])


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
    return _fill_leaves([np.full(len(key), np.nan)], key, cells, [[arr.reshape(shape.extents)]])[0]


def expand_to_uniform(mesh: ForestMesh, leaf_values) -> np.ndarray:
    """Fan per-leaf values out to the full grid by constant interpolation.

    ``leaf_values`` holds one value per leaf, dummy leaves included; their
    values are never read. The expansion is decompression's: the decode
    walk over ``serialize_refinement(mesh)`` finds each level's leaves, and
    a top-down pass upsamples each level's grid into the next and writes
    that level's leaves in place. Returns a float64 row-major linear array.
    """
    vals = np.asarray(leaf_values, dtype=np.float64)
    if vals.shape != (mesh.n_leaves,):
        raise ShapeError(f"expected {mesh.n_leaves} leaf values, got shape {vals.shape}")
    _, key, cells = _walk(mesh.shape, bits=serialize_refinement(mesh))
    return _fill_grids([np.empty(mesh.shape.extents)], key, cells, [vals])[0].reshape(-1)


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

    Inverse of :func:`serialize_refinement` for meshes over ``shape``. The
    decode walk of :func:`_walk` reads the refine flags and rejects every
    stream that is not the one encoding of a mesh; the dummy flags follow
    from the grid geometry, and the codes from the leaf sizes.
    """
    return _mesh(shape, _walk(shape, bits=data)[1])
