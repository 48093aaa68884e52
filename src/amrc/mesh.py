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
each level above level 1 the cells of its data leaves. Levels 1 and 0 are
held as whole families, one cell of the level above each: level 1 as the
refined level-2 cells with one bit per level-1 cell, set where it is
refined, and the initial level as the refined level-1 cells, which the
fills collect while they write level 1. So neither side holds a level-1 or
initial-level cell array. Compression gathers the payload from the level
grids (:func:`_fill_leaves`), level by level and, within a level, a chunk
of keys at a time, making the cells of levels 1 and 0 from their families a
piece at a time, once for all the variables of a shared mesh, so it holds
no level-sized temporary; decompression is the mirror image
(:func:`_fill_grids`): top-down from the root, each parent's value is
written into its present children, and each level's leaves are written in
place. Every level lies in the output, level 1 over its head and each
level above after the one below it, and level 1 is upsampled into the rest
of the output in place, so decoding holds no grid beyond the output.
Neither side computes a Morton code. The grid shape alone decides the width
of the cell indices (:func:`_walk`).
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


def _child_cells(grid: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
    """Flat indices into ``grid`` of the children of the families at ``rows``, pads unclamped.

    A ``(len(rows), 2^dim)`` array in Morton child order, in the dtype of
    ``rows``. Parent ``r`` at ``c_j`` has its first child at ``2 * sum_j
    c_j * T_j``, with ``T_j`` the cells per step of axis ``j`` of ``grid``.
    That is ``2 * (r + D)``, with ``D`` the sum over the axes ``j > 0`` of
    ``(e_j // 2) * (r // S_j) * T_j``, where ``S_j``, the product of the
    parent extents from axis ``j`` on, is the parents per step of axis ``j -
    1``: one integer division per axis past the first gives it.
    """
    parents = [(e + 1) // 2 for e in grid]
    base = np.zeros_like(rows)
    for j in range(1, len(grid)):
        base *= grid[j]
        base += rows // math.prod(parents[j:]) * (grid[j] // 2)
    base += rows
    base += base
    offset = [0]
    for e in grid:
        offset = [o * e + b for o in offset for b in (0, 1)]
    flat = np.empty((len(rows), len(offset)), dtype=rows.dtype)
    for k, o in enumerate(offset):  # a column at a time: numpy broadcasts a short last axis slowly
        np.add(base, o, out=flat[:, k])
    return flat


def _edges(grid: tuple[int, ...], rows: np.ndarray):
    """Per odd axis ``j`` of ``grid``, ``(j, flags)``: which families at ``rows`` sit on its last
    parent, whose second child on that axis is the pad."""
    stride = math.prod((e + 1) // 2 for e in grid)
    for j, e in enumerate(grid):
        stride //= (e + 1) // 2
        if e % 2:
            yield j, rows // stride % ((e + 1) // 2) == e // 2


def _children(grid: tuple[int, ...], rows: np.ndarray):
    """Cells of the families at ``rows`` of a level grid, and which are pads.

    ``rows`` are flat row-major indices into the parent grid. Returns two
    ``(len(rows), 2^dim)`` arrays in Morton child order: each child's flat
    index into ``grid`` (:func:`_child_cells`), and a flag that is set where
    the child is the pad cell of an odd axis, i.e. a dummy leaf. A pad
    child's index points at some cell of the grid; what it holds is not the
    pad's. The indices are in the dtype of ``rows`` (:func:`_walk`).
    """
    dim = len(grid)
    flat = _child_cells(grid, rows)
    pad = np.zeros(flat.shape, dtype=bool)
    for j, edge in _edges(grid, rows):
        for k in range(1 << dim):
            if k >> (dim - 1 - j) & 1:
                pad[:, k] |= edge
    if pad.any():
        np.minimum(flat, math.prod(grid) - 1, out=flat)
    return flat, pad


def _data_children(grid: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
    """The cells of :func:`_children`, pads dropped, in curve order."""
    if not any(e % 2 for e in grid):
        return _child_cells(grid, rows).reshape(-1)
    flat, pad = _children(grid, rows)
    return flat[~pad] if pad.any() else flat.reshape(-1)


# keys per chunk of a level's slots: bounds the mask and the values that a
# fill holds at once
_CHUNK = 1 << 16
# families per piece of level 1 or of the initial level: bounds the cells that
# the walk and the fills make of them at once; each piece costs a few numpy
# calls, so smaller pieces cost decode time
_FAMILIES = 1 << 12


def _family_cells(extents, families):
    """The cells of ``families``, rows of the parent grid of ``extents``, pads dropped.

    Yields them in curve order, :func:`_children` of ``_FAMILIES`` families
    at a time.
    """
    for a in range(0, len(families), _FAMILIES):
        yield _data_children(extents, families[a:a + _FAMILIES])


def _level1(extents, families, refined, initial):
    """The cells of the level-1 data leaves of :func:`_walk`'s level-1 entry, a piece at a time.

    ``families`` and ``refined`` are the entry (:func:`_walk`), ``extents``
    the level-1 grid's. Each piece of :func:`_family_cells` is split by its
    bits: the refined cells go, in order, into ``initial``, which must hold
    one per set bit, and the leaves are yielded.
    """
    o = r = 0
    for c in _family_cells(extents, families):
        refine = np.unpackbits(refined[o >> 3:-(-(o + len(c)) >> 3)],
                               bitorder="little")[o & 7:(o & 7) + len(c)].view(bool)
        k = int(np.count_nonzero(refine))
        initial[r:r + k] = c[refine]  # np.compress would take an intp index per refined cell
        r, o = r + k, o + len(c)
        leaves = c[np.logical_not(refine, out=refine)]
        del c, refine  # not held while the leaves are written
        yield leaves
        del leaves  # not held while the next piece is made


def _where(pieces, flags):
    """Each of ``pieces`` where ``flags``, which runs on across the pieces, is set."""
    o = 0
    for c in pieces:
        yield c[flags[o:o + len(c)]]
        o += len(c)


def _pads(extents, pieces):
    """The families in ``pieces`` that hold pad children, and which children they are.

    ``pieces`` yields the families, rows of the parent grid of ``extents``,
    in order. Only a family on the last parent of an odd axis holds pads.
    Returns their positions among all the families, and their pad flags of
    :func:`_children`.
    """
    at, pads, o = [], [], 0
    for rows in pieces:
        j = np.flatnonzero(functools.reduce(np.logical_or, (e for _, e in _edges(extents, rows))))
        at.append(j + o)
        pads.append(_children(extents, rows[j])[1])
        o += len(rows)
    return np.concatenate(at), np.concatenate(pads)


def _refine(key: np.ndarray, refine: np.ndarray, fam: int, pads) -> np.ndarray:
    """The keys of the next depth: each key where ``refine`` is set, repeated ``fam`` times.

    Works on ``_CHUNK / fam`` keys at a time, writing into one new ``uint8``
    array, so the repeat counts (``np.repeat`` casts them to ``intp``) and a
    chunk's new keys exist for one chunk only. ``pads``, if given, is
    :func:`_pads` of the refined keys' families, and the keys of their pad
    children are raised to the dummy key: the ``j``-th refined family of a
    chunk starts at its key's position plus ``(fam - 1) * j`` among the
    chunk's new keys.
    """
    new = np.empty(len(key) + (fam - 1) * int(np.count_nonzero(refine)), dtype=np.uint8)
    o = j0 = 0
    step = max(_CHUNK // fam, 1)
    for a in range(0, len(key), step):
        mask = refine[a:a + step]
        part = np.repeat(key[a:a + step], np.where(mask, fam, 1))
        if pads is not None:
            pos = np.flatnonzero(mask)
            lo, hi = np.searchsorted(pads[0], (j0, j0 + len(pos)))
            j = pads[0][lo:hi] - j0
            i, k = np.nonzero(pads[1][lo:hi])
            part[pos[j[i]] + (fam - 1) * j[i] + k] += 1
            j0 += len(pos)
        new[o:o + len(part)] = part
        o += len(part)
    return new


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
    dummy), and one entry per level, the initial level first. Above level
    1 the entry holds the flat cell indices of the level's data leaves in
    curve order. Levels 1 and 0 are held as families instead, one cell of
    the level above each, whose children the fills make a piece at a time
    (:func:`_level1`, :func:`_family_cells`): level 1's entry is the pair
    of the refined level-2 cells in curve order, its families, and one
    packed bit per level-1 cell met, set where that cell is refined. The
    refined level-1 cells are the initial level's families, and the fills
    collect them while they write level 1, so the initial level's entry is
    ``None``. The initial level is final: every child of a refined level-1
    cell is a leaf, a data leaf or a pad. A single-cell grid has no level 1,
    and its initial level's entry holds the one cell as the family of row 0
    of a one-cell parent grid. Families hold pad children only where their
    children's grid has an odd extent, and only then does the walk find
    them (:func:`_pads`), to mark them as dummies in the keys; the walk
    meets the other children only.

    At each depth the elements met at that height are a bool mask over the
    keys, which indexes the flags and then turns into the refine flags in
    place; the keys change in place under it, the walk holds no ``intp``
    position per element, and a depth's leaf flags and cells go before the
    next depth's keys are made, a chunk at a time (:func:`_refine`). At
    level 1 the walk reads the cells met, to look up their leaf flags or to
    find their pads, a piece of families at a time, and holds no level-1
    cell array. Beside the ``uint8`` keys, the mask and the unpacked flags,
    one byte per element each, the largest arrays it holds are the cell
    indices. They are ``int32`` when the finest grid, each odd extent
    rounded up to even, has fewer than ``2^31`` cells, and ``intp``
    otherwise; the grid shape alone decides. Every level grid, padded so, is
    no larger, so no index of :func:`_children` overflows, pads included.
    """
    l0, fam = shape.initial_level, 1 << shape.dim
    padded = math.prod(e + e % 2 for e in shape.extents)
    index = np.int32 if padded < 1 << 31 else np.intp
    key = np.full(1, 2 * l0, dtype=np.uint8)  # an element not yet classified at h holds 2h
    cells = np.zeros(1, dtype=index)  # the cells met at height h; at h = 1, their families
    out, found = bytearray(), [cells[:0]] * (l0 + 1)
    if l0:
        found[:2] = None, (cells[:0], np.zeros(0, dtype=np.uint8))
    else:
        found[0] = cells
    for h in range(l0, 0, -1):
        sel = key == 2 * h  # the elements met at height h, in the order of cells
        grid = tuple(-(-e >> h) for e in shape.extents)
        n = len(cells) if h > 1 else int(np.count_nonzero(sel))
        if bits is not None:
            level = bits[len(out):len(out) + (len(key) + 7) // 8]
            # len(level) is load-bearing: an empty slice reads as all leaves,
            # and np.unpackbits of an empty buffer with a count returns
            # uninitialized bytes, not zeros (numpy 2.4.6)
            if len(level):
                flags = np.unpackbits(np.frombuffer(level, dtype=np.uint8),
                                      count=len(key), bitorder="little")
                leaf = flags[sel] == 0
                del flags  # not held while the next keys are made
            else:
                leaf = np.ones(n, dtype=bool)
        elif h >= len(leaves):
            leaf = np.zeros(n, dtype=bool)
        elif leaves[h] is None:
            leaf = np.ones(n, dtype=bool)
        elif h > 1:
            leaf = leaves[h].reshape(-1)[cells]
        else:
            leaf = np.concatenate([leaves[1].reshape(-1)[c] for c in _family_cells(grid, cells)])
        if h > 1:
            found[h] = cells if leaf.all() else cells[leaf]
        refine = np.invert(leaf, out=leaf)
        if h == 1:
            found[1] = (cells, np.packbits(refine, bitorder="little"))
        if not refine.any():
            break
        sel[sel] = refine  # now the refine flags
        out += np.packbits(sel, bitorder="little").tobytes()
        np.subtract(key, 2, out=key, where=sel)
        kids = tuple(-(-e >> (h - 1)) for e in shape.extents)  # the children's grid
        if h > 1:
            rows = cells[refine]
            pieces = [rows]
        else:
            pieces = _where(_family_cells(grid, cells), refine)
        pads = _pads(kids, pieces) if any(e % 2 for e in kids) else None
        del leaf, refine, cells, pieces  # this level's go before the next level's come
        key = _refine(key, sel, fam, pads)
        del pads
        if h > 1:
            cells = _data_children(kids, rows) if h > 2 else rows  # at h = 2, level 1's families
            del rows  # not held at the next depth
    if bits is not None and out != bits:
        at = next((i for i, (a, b) in enumerate(zip(out, bits)) if a != b),
                  min(len(out), len(bits)))
        raise CorruptArtifactError(
            "bit-field is truncated or not canonical (over-long, or refines a leaf, "
            f"a dummy or past initial level {l0})", at)
    return bytes(out), key, found


def _level_slots(key: np.ndarray, h: int, cells):
    """The slots of key ``2h`` (data leaves ``h`` levels up) and their cells, by chunk of keys.

    ``cells`` yields the slots' cells in curve order, in pieces. Per chunk
    of ``_CHUNK`` keys that holds any slot, yields ``(at, mask, part, c)``
    for each run of its slots that one piece covers: the chunk's slice of
    ``key``, the slots' mask within it, the run's slice of the chunk's
    slots, and its cells, a view of the piece. A piece is made once the one
    before is used up, so while a consumer drops each ``c`` before it asks
    for the next, one piece and one chunk's mask are held at a time. The
    stream runs to its end, so a stream that writes as it goes
    (:func:`_level1`) writes everything.
    """
    pieces = (c for c in cells if len(c))
    left = None  # the cells of the last piece not yet given out
    for a in range(0, len(key), _CHUNK):
        if left is None and (left := next(pieces, None)) is None:
            return
        mask = key[a:a + _CHUNK] == 2 * h
        n, o = int(np.count_nonzero(mask)), 0
        while o < n:
            if left is None:
                left = next(pieces)
            c = left[:n - o]
            left = left[len(c):] if len(c) < len(left) else None
            yield slice(a, a + _CHUNK), mask, slice(o, o + len(c)), c
            o += len(c)
            del c
        del mask
    for _ in pieces:
        pass


def _take(slots, outs, grids) -> None:
    """Gather each grid's cells of :func:`_level_slots` into the slots of its output."""
    for at, mask, part, c in slots:
        if not part.start:
            vs = None  # the last chunk's go first
            vs = [np.empty(int(np.count_nonzero(mask)), g.dtype) for g in grids]
        for i, g in enumerate(grids):
            np.take(g.reshape(-1), c, out=vs[i][part], mode="clip")
        if part.stop == len(vs[0]):
            for i, out in enumerate(outs):
                out[at][mask] = vs[i]
        del at, mask, c


def _put(slots, flats, values) -> None:
    """Write the values of the slots of :func:`_level_slots` at their cells, for each variable."""
    for at, mask, part, c in slots:
        if not part.start:
            vs = None  # the last chunk's go first
            vs = [vals[at][mask] for vals in values]
        for i, flat in enumerate(flats):
            flat[c] = vs[i][part]
        del at, mask, c


def _fill_leaves(outs, key: np.ndarray, cells, grids) -> list[np.ndarray]:
    """Write per-level grid values into one slot per key of :func:`_walk`, for variables
    that share one mesh.

    ``outs`` yields one output per variable and is read one variable at a
    time, so a generator allocates each output only when its variable
    starts. ``grids`` holds one list of level grids per variable, the
    initial level first, whose grids have the grid's extents, and ``cells``
    the walk's entries. Each variable's levels from 2 up are written top
    level first, as in :func:`_fill_grids`, each a chunk of keys at a time
    (:func:`_level_slots`), and popped off its list once written; the last
    variable pops each level's entry off ``cells``. Levels 1 and 0 are
    written last, for every variable at once, from their families a piece
    at a time: level 1's cells are made once, and its refined cells are
    collected as the initial level's families as it is written
    (:func:`_level1`). No level's values or level-1 and initial-level cells
    are gathered at once. Slots of other keys keep what an output holds.
    Returns the outputs.
    """
    done, extents = [], grids[0][0].shape
    for i, (out, levels) in enumerate(zip(outs, grids)):
        found = cells if i == len(grids) - 1 else list(cells)
        for h in range(len(found) - 1, 1, -1):
            if h < len(levels):
                _take(_level_slots(key, h, [found.pop()]), [out], [levels.pop()])
            else:  # above the levels reached: no data leaves
                found.pop()
        done.append(out)
    slots, initial = _level1_slots(key, cells, extents)
    _take(slots, done, [levels.pop() if len(levels) > 1 else None for levels in grids])
    del slots
    _take(_level_slots(key, 0, _family_cells(extents, initial)), done,
          [levels[0] for levels in grids])
    return done


def _level1_slots(key: np.ndarray, cells, extents, spare=None):
    """The :func:`_level_slots` of level 1, and the initial level's families they collect.

    Pops the entries of levels 1 and 0 off the walk's ``cells`` over a grid
    of ``extents``. The families are made as the slots are read
    (:func:`_level1`), into an array sized from the count of refined
    level-1 cells: in the bytes ``spare`` if they have room, else an array
    of its own. A one-cell grid has no level 1, and its families are the
    initial level's entry.
    """
    if len(cells) == 1:
        return (), cells.pop()
    families, refined = cells.pop()
    cells.pop()
    n, item = int(np.count_nonzero(np.unpackbits(refined))), families.itemsize
    if spare is not None and len(spare) >= (n + 1) * item:
        o = -spare.ctypes.data % item  # aligned
        initial = spare[o:o + n * item].view(families.dtype)
    else:
        initial = np.empty(n, families.dtype)
    head = tuple(-(-e >> 1) for e in extents)
    return _level_slots(key, 1, _level1(head, families, refined, initial)), initial


def _upsample(parent: np.ndarray, child: np.ndarray) -> None:
    """Write each cell of ``parent`` into its present children in ``child`` (:func:`_blocks`)."""
    for parents, children in _blocks(child.shape):
        for sl in children:
            if sl is not None:
                child[sl] = parent[parents]


def _expand_head(head: np.ndarray, out: np.ndarray) -> None:
    """:func:`_upsample` of the level-1 grid ``head``, the head of ``out``, into ``out`` in place.

    With ``R`` and ``R1`` cells per row of ``out`` and of ``head``, rows
    ``a:b`` of ``head`` go to output rows ``2a:2b``, which start past
    every cell of those rows and of the rows before them where ``2a * R >=
    b * R1``; the even start keeps the family layout of :func:`_blocks`.
    So the rows go in runs from the last one down, each from the first row
    that this allows, which leaves about a quarter of the rows before it in
    2D and an eighth in 3D. Where a run would be empty, the rows left, one
    row of ``head``, are copied first.
    """
    r, r1 = math.prod(out.shape[1:]), math.prod(head.shape[1:])
    b = head.shape[0]
    while b:
        a = -(-b * r1 // (2 * r))
        if a < b:
            _upsample(head[a:b], out[2 * a:2 * b])
        else:  # the rows left overlap their own children
            a = 0
            _upsample(head[:b].copy(), out[:2 * b])
        b = a


def _stacked(out: np.ndarray, top: int) -> list[np.ndarray]:
    """The grids of levels 1 to ``top`` of ``out``, each in ``out`` after the one below it.

    Level 1 is the head of ``out``; a level that ``out`` has no room left
    for, as in a grid of a few cells, gets an array of its own.
    """
    flat, o, grids = out.reshape(-1), 0, []
    for h in range(1, top + 1):
        shape = tuple(-(-e >> h) for e in out.shape)
        n = math.prod(shape)
        grids.append(flat[o:o + n].reshape(shape) if o + n <= len(flat)
                     else np.empty(shape, out.dtype))
        o += n
    return grids


def _fill_grids(outs, key: np.ndarray, cells, values) -> list[np.ndarray]:
    """Mirror of :func:`_fill_leaves`: write one value per key into the level grids.

    ``outs`` and ``values`` run over variables that share one mesh: each
    ``out`` is a C-contiguous grid of the initial level, and its values
    hold one per key. Top-down from the ``(1,)*dim`` grid of the root, each
    parent's value is written into its present children of
    :func:`_blocks`, and the values of the level's keys are written at its
    cells, a chunk of keys at a time (:func:`_level_slots`). Every level
    lies in ``out`` (:func:`_stacked`): level 1 over its head and the
    levels above one after another past it, so decoding holds no grid
    beyond the output. Levels 2 and up are written one variable at a time;
    levels 1 and 0 for every variable at once, from their families a piece
    at a time, as in :func:`_fill_leaves`. Level 1 is upsampled into
    ``out`` in place (:func:`_expand_head`) before the initial level is
    written. The last variable pops each level's entry off ``cells`` as it
    writes the level, so it goes once it is. Values of odd keys are never
    read.
    """
    top = len(cells) - 1
    for i, (out, vals) in enumerate(zip(outs, values)):
        found = cells if i == len(outs) - 1 else list(cells)
        grids = _stacked(out, top)  # grids[h - 1] is level h's
        for h in range(top, 1, -1):
            if h < top:
                _upsample(grids[h], grids[h - 1])
            _put(_level_slots(key, h, [found.pop()]), [grids[h - 1].reshape(-1)], [vals])
        if top > 1:
            _upsample(grids[1], grids[0])
        del grids
    n1 = math.prod(tuple(-(-e >> 1) for e in outs[0].shape))
    heads = [out.reshape(-1)[:n1] for out in outs]
    # past level 1, the first output is free until level 1 is upsampled into it
    spare = outs[0].reshape(-1)[n1:].view(np.uint8)
    slots, initial = _level1_slots(key, cells, outs[0].shape, spare)
    _put(slots, heads, values)
    del slots, spare
    if np.may_share_memory(initial, outs[0]):
        initial = initial.copy()  # before level 1 is upsampled over it
    if top:
        for out, head in zip(outs, heads):
            _expand_head(head.reshape(tuple(-(-e >> 1) for e in out.shape)), out)
    del heads
    _put(_level_slots(key, 0, _family_cells(outs[0].shape, initial)),
         [out.reshape(-1) for out in outs], values)
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
