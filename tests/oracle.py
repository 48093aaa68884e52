"""Brute-force reference implementations used only by the tests.

Everything here is deliberately naive and independent of the production code
paths it checks: bit-by-bit Morton coding, recursive mesh construction, and
exact per-leaf deviations computed from retained initial data. The one
exception is :func:`reference_coarsen`, the original Jacobi-sweep engine,
which shares the bound checks with production and serves as the
differential reference for the level-pass engine. Its family collapse,
:func:`coarsen_marked`, also builds the random meshes of the mesh tests.
"""

from __future__ import annotations

import numpy as np

from amrc.codec import CoarsenResult, _quantize
from amrc.criteria import (
    ABSOLUTE,
    batch_check_absolute,
    batch_check_relative,
    family_means,
    resolve_bounds_batch,
)
from amrc.errors import ShapeError
from amrc.mesh import (
    ForestMesh,
    _family_starts,
    build_initial_mesh,
    complete_family_starts,
    map_data,
)


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
    check = batch_check_absolute if spec.kind == ABSOLUTE else batch_check_relative
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
            vals = vals_leaf[members]
            trs = trk_leaf[members]
            means, _ = family_means(vals, dmask)
            cand = _quantize(means, value_kind)
            acc, ntr = check(vals, trs, dmask, cand, bounds)
            prior = np.where(dmask, 0.0, trs).max(axis=1) > 0.0
            ntr = np.where(prior, ntr + 4.0 * np.spacing(ntr), ntr)
            if spec.kind == ABSOLUTE:
                acc = ntr <= bounds
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
