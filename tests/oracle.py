"""Brute-force reference implementations used only by the tests.

Everything here is deliberately naive and independent of the production code
paths it checks: the scalar per-family criteria and per-element bound
resolution that define the contract, bit-by-bit Morton coding, recursive
mesh construction, a leaf-by-leaf check of the mesh invariants, and exact
per-leaf deviations computed from retained initial data. The one
exception is :func:`reference_coarsen`, the original Jacobi-sweep engine.
It checks families with the batched criteria of :mod:`amrc.criteria`
(:func:`reference_check`), which the level kernel of the codec reproduces
on strided views without calling them, and serves as the differential
reference for the level-pass engine; :func:`capped_coarsen` stops that
engine after a given number of accepting levels, as the reference's
``max_iterations`` stops the sweep. Its family collapse,
:func:`coarsen_marked`, also builds the random meshes of the mesh tests.
:func:`reference_expand`, the original per-cell expansion, is the
differential reference for the top-down expansion of decompression.
:func:`check_level` is no reference: it runs the codec's level kernel
over one whole level, the entry point of the kernel's tests.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from amrc import morton
from amrc.codec import CoarsenResult, _arenas, _check_rows, _level_pass, _slab_rows
from amrc.criteria import (
    ABSOLUTE,
    Criterion,
    ErrorSpec,
    batch_check_absolute,
    batch_check_relative,
    family_means,
    resolve_bounds_batch,
)
from amrc.errors import DataError, ShapeError
from amrc.mesh import (
    ForestMesh,
    GridShape,
    _children,
    _family_starts,
    _fill_leaves,
    _mesh,
    _walk,
    build_initial_mesh,
    complete_family_starts,
    map_data,
)


def check_absolute(values, trackers, candidate: float, bound: float):
    """Absolute-criterion compliance check for one family.

    Returns ``(accept, new_tracker)`` where the tracker is the bound on the
    deviation of ``candidate`` from any initial data point under the family.
    """
    new = 0.0
    for v, t in zip(values, trackers):
        if not math.isfinite(v):
            raise DataError(f"non-finite value {v} in family")
        new = max(new, abs(candidate - v) + t)
    return new <= bound, new


def check_relative(values, trackers, candidate: float, bound: float):
    """Relative-criterion compliance check for one family.

    Returns ``(accept, new_tracker)``; the stored tracker is the absolute
    deviation bound, as with the absolute criterion.
    """
    worst = 0.0
    new = 0.0
    for v, t in zip(values, trackers):
        if not math.isfinite(v):
            raise DataError(f"non-finite value {v} in family")
        num = t + abs(v - candidate)
        den = min(abs(v - t), abs(v), abs(v + t))
        if den == 0.0:
            worst = max(worst, 0.0 if num == 0.0 else math.inf)
        else:
            worst = max(worst, num / den)
        new = max(new, abs(candidate - v) + t)
    return worst <= bound, new


def _leaf_box(code: int, level: int, shape: GridShape) -> tuple[tuple[int, int], ...]:
    """Covered cell box of an element, half-open per axis in numpy axis order, unclipped."""
    size = 1 << (shape.initial_level - level)
    coords = naive_decode(code, level, shape.dim)
    return tuple((c * size, (c + 1) * size) for c in reversed(coords))


def _is_dummy(code: int, level: int, shape: GridShape) -> bool:
    """An element is dummy iff its cell box lies fully outside the grid on some axis."""
    return any(lo >= e for (lo, _), e in zip(_leaf_box(code, level, shape), shape.extents))


def dummy_flags(codes, levels, shape: GridShape) -> np.ndarray:
    """Dummy flag of each leaf, from its cell box."""
    return np.array([_is_dummy(c, l, shape) for c, l in zip(codes.tolist(), levels.tolist())],
                    dtype=bool)


def resolve_bound(code: int, level: int, spec: ErrorSpec, shape: GridShape) -> Criterion:
    """Most restrictive criterion applying to an element.

    The minimum of the default bound and the bounds of every domain whose box
    intersects the element's covered cell box.
    """
    box = _leaf_box(code, level, shape)
    bound = spec.default.bound
    for dom in spec.domains:
        if all(lo < dhi and hi > dlo for (lo, hi), (dlo, dhi) in zip(box, dom.box)):
            bound = min(bound, dom.criterion.bound)
    return Criterion(spec.kind, bound)


def families(grid: np.ndarray, fill) -> np.ndarray:
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


def mesh_equal(a: ForestMesh, b: ForestMesh) -> bool:
    """Whether two meshes have the same grid and the same leaves."""
    return a.shape == b.shape and all(
        np.array_equal(x, y) for x, y in [(a.codes, b.codes), (a.levels, b.levels),
                                          (a.dummy, b.dummy)])


def validate_mesh(mesh: ForestMesh) -> None:
    """Check a mesh's partition, ordering and dummy flags leaf by leaf; raise on failure.

    The leaves must tile the root in curve order, each one starting where the
    one before ends, and a leaf is dummy iff its cell box lies fully outside
    the grid.
    """
    l0, dim = mesh.initial_level, mesh.dim
    end = 0
    for code, level, dummy in zip(mesh.codes.tolist(), mesh.levels.tolist(),
                                  mesh.dummy.tolist()):
        if level > l0:
            raise ShapeError("leaf level exceeds initial level")
        size = 1 << (dim * (l0 - level))
        if code * size != end:
            raise ShapeError("leaves do not tile the root in curve order")
        end += size
        if dummy != _is_dummy(code, level, mesh.shape):
            raise ShapeError("dummy flags do not match the grid geometry")
    if end != 1 << (dim * l0):
        raise ShapeError("leaves do not partition the root domain")


def _collapse(codes, levels, dummy, starts, dim):
    """Replace each family starting at ``starts`` by its parent; returns new arrays
    plus the keep-mask over old positions (True at surviving rows, with the start
    row rewritten as the parent)."""
    fam = 1 << dim
    keep = np.ones(len(codes), dtype=bool)
    for k in range(1, fam):
        keep[starts + k] = False
    members = starts[:, None] + np.arange(fam)
    new_codes = codes.copy()
    new_codes[starts] = codes[starts] >> np.uint64(dim)
    new_levels = levels.copy()
    new_levels[starts] = levels[starts] - 1
    new_dummy = dummy.copy()
    new_dummy[starts] = dummy[members].all(axis=1)
    return new_codes[keep], new_levels[keep], new_dummy[keep], keep


def coarsen_marked(mesh: ForestMesh, marks) -> ForestMesh:
    """Replace the marked families by their parent leaves.

    ``marks`` are leaf positions of the first member of each family. Each mark
    must address a complete family of current leaves at equal level >= 1; the
    parent of an all-dummy family is itself a dummy.
    """
    starts = np.asarray(sorted(set(int(m) for m in marks)), dtype=np.int64)
    if starts.size == 0:
        return mesh
    fam = 1 << mesh.dim
    if starts[0] < 0 or starts[-1] + fam > mesh.n_leaves:
        raise ShapeError("mark out of range")
    valid = np.zeros(mesh.n_leaves, dtype=bool)
    valid[complete_family_starts(mesh)] = True
    if not valid[starts].all():
        bad = starts[~valid[starts]][0]
        raise ShapeError(f"mark {bad} does not address a complete same-level family")
    if np.any(np.diff(starts) < fam):
        raise ShapeError("marks address overlapping families")
    codes, levels, dummy, _ = _collapse(mesh.codes, mesh.levels, mesh.dummy, starts, mesh.dim)
    return ForestMesh(mesh.shape, codes, levels, dummy)


def _quantize(means, value_kind):
    """Round float64 candidates into the storage type (f32, or nearest-even
    for integer kinds) and back to float64."""
    if value_kind == "f64":
        return means
    if value_kind == "f32":
        return means.astype(np.float32).astype(np.float64)
    return np.rint(means)


def reference_check(vals, trs, dmask, bounds, kind, value_kind):
    """Accept flags, candidates and trackers of ``(n, 2^dim)`` family rows.

    The family check of both coarsening engines, composed from the batched
    criteria: mean, quantization, bound check, and the directed rounding
    that pads a tracker with prior inaccuracy by a few ulps.
    """
    check = batch_check_absolute if kind == ABSOLUTE else batch_check_relative
    means, _ = family_means(vals, dmask)
    cand = _quantize(means, value_kind)
    acc, ntr = check(vals, trs, dmask, cand, bounds)
    prior = np.where(dmask, 0.0, trs).max(axis=1) > 0.0
    ntr = np.where(prior, ntr + 4.0 * np.spacing(ntr), ntr)
    if kind == ABSOLUTE:
        acc = ntr <= bounds
    return acc, cand, ntr


def reference_worst(vals, trs, dmask, cand):
    """Relative error estimate of ``(n, 2^dim)`` family rows, the value that
    ``batch_check_relative`` accepts iff it is at most the bound."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        absdev = np.abs(cand[:, None] - vals) + trs
        den = np.minimum(np.abs(vals - trs), np.minimum(np.abs(vals), np.abs(vals + trs)))
        contrib = np.where(den == 0.0, np.where(absdev == 0.0, 0.0, np.inf), absdev / den)
    worst = np.where(dmask, -np.inf, contrib).max(axis=1)
    return np.where(np.isneginf(worst), 0.0, worst)


def reference_coarsen(variables, shape, spec, value_kind, max_iterations=None):
    """Jacobi-sweep coarsening over explicit Morton leaf arrays.

    Each iteration gathers every complete same-level leaf family, checks them
    all against the bounds, and commits every accepted collapse at once, so
    a new parent only becomes eligible in the next iteration. Iteration
    stops when nothing is accepted. Input validation is left to the caller.
    """
    arrays = [np.asarray(v) for v in variables]
    mesh0 = build_initial_mesh(shape)
    codes = mesh0.codes.copy()
    levels = mesh0.levels.copy()
    dummy = mesh0.dummy.copy()
    work = [map_data(shape, arr, mesh0) for arr in arrays]
    trackers = [np.zeros(mesh0.n_leaves) for _ in arrays]
    dim = shape.dim
    fam = 1 << dim

    iterations = 0
    while max_iterations is None or iterations < max_iterations:
        starts = _family_starts(codes, levels, dim)
        if starts.size == 0:
            break
        members = starts[:, None] + np.arange(fam)
        dmask = dummy[members]
        bounds = resolve_bounds_batch(
            codes[starts] >> np.uint64(dim), levels[starts] - 1, spec, shape)
        ok = np.ones(starts.size, dtype=bool)
        cands, newtrs = [], []
        for vals_leaf, trk_leaf in zip(work, trackers):
            acc, cand, ntr = reference_check(
                vals_leaf[members], trk_leaf[members], dmask, bounds, spec.kind, value_kind)
            ok &= acc
            cands.append(cand)
            newtrs.append(ntr)
        acc = starts[ok]
        if acc.size == 0:
            break
        new_codes, new_levels, new_dummy, keep = _collapse(codes, levels, dummy, acc, dim)
        for v in range(len(work)):
            work[v][acc] = cands[v][ok]
            trackers[v][acc] = newtrs[v][ok]
            work[v] = work[v][keep]
            trackers[v] = trackers[v][keep]
        codes, levels, dummy = new_codes, new_levels, new_dummy
        iterations += 1

    return CoarsenResult(ForestMesh(shape, codes, levels, dummy), work, trackers, iterations)


def capped_coarsen(variables, shape, spec, value_kind, cap) -> CoarsenResult:
    """``coarsen_forest`` stopped after ``cap`` accepting levels.

    Takes the initial level and the next ``cap`` levels of the level pass and
    finishes them as ``coarsen_forest`` does: the walk over their leaf flags,
    then the leaf values and trackers gathered from their grids.
    """
    levels = itertools.islice(_level_pass(variables, shape, spec, value_kind,
                                          whole_trackers=True), cap + 1)
    leaves, vals, trks, _ = zip(*levels)
    _, key, cells = _walk(shape, leaves)
    n = len(key)
    values = _fill_leaves((np.full(n, np.nan) for _ in vals[0]), key, list(cells),
                          [list(g) for g in zip(*vals)])
    zero = np.broadcast_to(0.0, shape.extents)  # the initial level's trackers
    trackers = _fill_leaves((np.zeros(n) for _ in trks[0]), key, cells,
                            [[zero, *g[1:]] for g in zip(*trks)])
    return CoarsenResult(_mesh(shape, key), values, trackers, len(leaves) - 1)


def check_level(vals, trks, bounds, kind: str, value_kind: str):
    """The level kernel over one whole level, for each variable, as its tests call it.

    ``vals`` and ``trks`` hold one level grid per variable (``trks`` entries
    may be the scalar ``0.0``) and ``bounds`` each parent's bound on the
    parent grid. Allocates the accept flags, each variable's candidate
    (float32 for f32 data, else float64) and tracker grids and the slab
    buffers, then checks the level in slabs of ``codec._SLAB`` families
    (``codec._check_rows``). Returns the three; those of a family that is
    not accepted are arbitrary.
    """
    parents = bounds.shape
    ok = np.ones(parents, dtype=bool)
    cands = [np.empty(parents, np.float32 if value_kind == "f32" else np.float64) for _ in vals]
    ntrs = [np.empty(parents) for _ in vals]
    n = min(_slab_rows(parents), parents[0]) * math.prod(parents[1:])
    arenas = _arenas(len(parents), value_kind == "f32",
                     (n, np.result_type(*vals), np.isscalar(trks[0])))
    _check_rows(vals, trks, bounds, 0, kind, value_kind, ok, cands, ntrs, arenas)
    return ok, cands, ntrs


def naive_encode(coords, level: int, dim: int) -> int:
    code = 0
    for i in range(level):
        for a in range(dim):
            code |= ((coords[a] >> i) & 1) << (dim * i + a)
    return code


def naive_decode(code: int, level: int, dim: int):
    coords = [0] * dim
    for i in range(level):
        for a in range(dim):
            coords[a] |= ((code >> (dim * i + a)) & 1) << i
    return tuple(coords)


def walk_levels(shape: GridShape, found) -> list[np.ndarray]:
    """The entries of ``mesh._walk`` as one cell array per level, the initial level first.

    Above level 1 an entry already is the cells of the level's data leaves.
    Level 1's entry, its families and one bit per level-1 cell met, set
    where the cell is refined, is unfolded here with ``_children`` of every
    family at once: the cells without their bit are level 1's data leaves,
    and those with it are the initial level's families. The bits past the
    last cell must be clear.
    """
    levels = list(found)
    if shape.initial_level:
        families, refined = found[1]
        flat, pad = _children(tuple(-(-e >> 1) for e in shape.extents), families)
        cells = flat[~pad]
        bits = np.unpackbits(refined, bitorder="little")
        assert len(bits) == -(-len(cells) // 8) * 8 and not bits[len(cells):].any()
        refine = bits[:len(cells)].astype(bool)
        levels[1], levels[0] = cells[~refine], cells[refine]
    return levels


def expected_initial_leaves(extents):
    """Recursive reference construction of the initial mesh.

    Returns (code, level, dummy) triples in depth-first order: descend into
    every element that intersects the grid until the per-point level; keep
    fully-outside elements as dummy leaves.
    """
    dim = len(extents)
    ext_m = tuple(reversed(extents))
    l0 = (max(extents) - 1).bit_length()
    out = []

    def visit(code, level):
        size = 2 ** (l0 - level)
        origin = [c * size for c in naive_decode(code, level, dim)]
        if any(o >= e for o, e in zip(origin, ext_m)):
            out.append((code, level, True))
        elif level == l0:
            out.append((code, level, False))
        else:
            for k in range(2 ** dim):
                visit(code * 2 ** dim + k, level + 1)

    visit(0, 0)
    return out


def dfs_leaf_order(mesh):
    """Depth-first traversal order of a mesh's leaves, independent of sorting."""
    leafset = {(int(c), int(l)) for c, l in zip(mesh.codes, mesh.levels)}
    order = []

    def visit(code, level):
        if (code, level) in leafset:
            order.append((code, level))
            return
        assert level < mesh.initial_level, "element is neither leaf nor refinable"
        for k in range(2 ** mesh.dim):
            visit((code << mesh.dim) + k, level + 1)

    visit(0, 0)
    return order


def exact_leaf_deviations(mesh, leaf_values, original: np.ndarray) -> np.ndarray:
    """Exact max |leaf value - initial data| per leaf, from the retained data.

    ``original`` is the uncompressed array shaped like the grid. Dummy leaves
    report 0. This is the quantity the production trackers must bound.
    """
    extents = mesh.shape.extents
    l0, dim = mesh.initial_level, mesh.dim
    out = np.zeros(mesh.n_leaves)
    for i in range(mesh.n_leaves):
        if mesh.dummy[i]:
            continue
        size = 2 ** (l0 - int(mesh.levels[i]))
        coords = naive_decode(int(mesh.codes[i]), int(mesh.levels[i]), dim)
        region = original[tuple(
            slice(c * size, min((c + 1) * size, e))
            for c, e in zip(reversed(coords), extents)
        )]
        out[i] = np.abs(leaf_values[i] - region).max()
    return out


def reference_expand(mesh: ForestMesh, leaf_values) -> np.ndarray:
    """Per-cell expansion: look up every grid cell's leaf by its Morton code.

    Interleaves the code of each cell in row-major order and finds the leaf
    covering it with ``searchsorted`` over the aligned leaf codes. Returns
    ``leaf_values`` gathered per cell, in their own dtype.
    """
    shape = mesh.shape
    idx = np.indices(shape.extents).reshape(shape.dim, -1)
    cells = morton.interleave(
        tuple(idx[shape.dim - 1 - k].astype(np.uint64) for k in range(shape.dim)), shape.dim)
    pos = np.searchsorted(mesh.aligned_codes(), cells, side="right") - 1
    return np.asarray(leaf_values)[pos]
