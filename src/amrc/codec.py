"""Compression driver: coarsen bottom-up, one tree level at a time, then package.

Coarsening works on grid-index arrays, one per tree level. At each level
the grid, padded by one dummy cell on each odd axis, is reshaped into
families of 2^dim siblings. Every complete family (all members still leaves)
gets a candidate parent value, the mean of its data members, which is
checked against the most restrictive bound of any error domain the parent
meets. Accepted parents become the leaves of the next level up; the leaves
of rejected or incomplete families stay in the final mesh. The pass stops
at the first level that accepts nothing.

This reproduces a Jacobi-style sweep over the whole leaf set (check every
complete family, commit all accepted collapses at once, repeat until
nothing is accepted) exactly; ``tests/oracle.py`` keeps that sweep as the
reference. No all-dummy family exists at the start, and a rejected family
never changes, so re-checking it rejects it again. Sweep iteration ``i``
can therefore only accept families whose parents sit at level ``l0 - i``,
which is what the level pass checks at its ``i``-th level.
``CompressStats.iterations`` counts the levels that accepted something, and
``max_iterations`` caps that count. Of the coarsening, this module decides
only which families meet their bounds: the level grids, their families and
the Morton encoding of the surviving leaves into curve order live in
:mod:`amrc.mesh`.

The initial data is discarded level by level; only per-leaf inaccuracy
trackers persist, and they guarantee the end-to-end point-wise bound of the
decompressed output.

Candidate values are rounded into the storage type (f32, or nearest-even for
integer kinds) *before* the compliance check, so the tracker bounds the
deviation of the value that is actually stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import (
    ABSOLUTE,
    Criterion,
    ErrorSpec,
    batch_check_absolute,
    batch_check_relative,
    family_means,
)
from .errors import ConfigError, CorruptArtifactError, DataError, ShapeError
from .mesh import (
    ForestMesh,
    GridShape,
    _assemble,
    _expand_into,
    _families,
    deserialize_refinement,
    serialize_refinement,
)

ONE_FOR_ONE = "one-for-one"
ONE_FOR_ALL = "one-for-all"

# storage kinds: little-endian on disk, float64 as the working type
VALUE_KIND_DTYPES = {"f32": "<f4", "f64": "<f8", "i16": "<i2", "i32": "<i4"}
_KIND_BY_DTYPE = {("f", 4): "f32", ("f", 8): "f64", ("i", 2): "i16", ("i", 4): "i32"}


def value_kind_of(dtype) -> str:
    dt = np.dtype(dtype)
    try:
        return _KIND_BY_DTYPE[(dt.kind, dt.itemsize)]
    except KeyError:
        raise ConfigError(f"unsupported value dtype {dt}; use f32/f64/i16/i32") from None


@dataclass(frozen=True)
class Packing:
    """Affine record for integer-packed data: value = scale * packed + offset."""

    scale: float
    offset: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ConfigError(f"scale factor must be positive, got {self.scale}")


@dataclass(frozen=True)
class CompressionConfig:
    spec: ErrorSpec
    mode: str = ONE_FOR_ONE
    split_axis: int | None = None
    packing: Packing | None = None

    def __post_init__(self):
        if self.mode not in (ONE_FOR_ONE, ONE_FOR_ALL):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.split_axis is not None and self.split_axis < 0:
            raise ConfigError("split_axis must be a non-negative axis index")


@dataclass
class CompressStats:
    iterations: int
    leaf_count: int
    max_tracker: float


@dataclass
class CompressedVariable:
    """One compressed variable: encoded mesh plus non-dummy leaf payload."""

    shape: GridShape
    value_kind: str
    mesh_bits: bytes
    payload: np.ndarray
    criterion: Criterion
    mode: str = ONE_FOR_ONE
    packing: Packing | None = None
    stats: CompressStats | None = None  # not serialized


@dataclass
class CoarsenResult:
    """Full engine state after coarsening; values/trackers are per variable."""

    mesh: ForestMesh
    values: list[np.ndarray]
    trackers: list[np.ndarray]
    iterations: int


def _quantize(means: np.ndarray, value_kind: str) -> np.ndarray:
    if value_kind == "f64":
        return means
    if value_kind == "f32":
        return means.astype(np.float32).astype(np.float64)
    return np.rint(means)


def packed_bound(eps_unpacked: float, scale_factor: float) -> float:
    """Transform an absolute bound into packed-data units."""
    if not scale_factor > 0:
        raise ConfigError(f"scale factor must be positive, got {scale_factor}")
    return eps_unpacked / scale_factor


def _parent_bounds(spec: ErrorSpec, parents: tuple[int, ...], size: int) -> np.ndarray:
    """Most restrictive bound per parent of ``size`` cells per axis.

    Parent ``p`` meets a domain box iff ``p*size < hi`` and
    ``p*size + size > lo`` on every axis, a box slice of the parent grid.
    """
    bounds = np.full(parents, spec.default.bound)
    for dom in spec.domains:
        box = tuple(slice(max(lo // size, 0), max(-(-hi // size), 0)) for lo, hi in dom.box)
        bounds[box] = np.minimum(bounds[box], dom.criterion.bound)
    return bounds


def coarsen_forest(
    variables,
    shape: GridShape,
    spec: ErrorSpec,
    value_kind: str,
    max_iterations: int | None = None,
) -> CoarsenResult:
    """Coarsen one shared mesh under ``spec`` until no family is accepted.

    A family collapses only if the check passes for *every* variable; trackers
    are maintained per variable. Pass a single-element list for solo
    compression. ``max_iterations`` caps the number of accepting levels.
    """
    if value_kind not in VALUE_KIND_DTYPES:
        raise ConfigError(f"unknown value kind {value_kind!r}")
    arrays = [np.asarray(v).reshape(-1) for v in variables]
    if not arrays:
        raise ConfigError("no variables given")
    for arr in arrays:
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise DataError("input contains non-finite values")
        if arr.size != shape.npoints:
            raise ShapeError(f"expected {shape.npoints} values, got {arr.size}")

    check = batch_check_absolute if spec.kind == ABSOLUTE else batch_check_relative
    l0 = shape.initial_level
    # the current level's grid: leaf flags, values and trackers per variable
    level = l0
    leaf = np.ones(shape.extents, dtype=bool)
    vals = [arr.astype(np.float64, copy=False).reshape(shape.extents) for arr in arrays]
    trks = [np.zeros(shape.extents) for _ in arrays]
    parts = []  # (leaves left behind, their values then trackers) per level
    root = None

    iterations = 0
    while level > 0:
        parents = tuple((e + 1) // 2 for e in leaf.shape)
        fleaf = _families(leaf, True)  # pad cells are dummy leaves
        fdummy = _families(np.zeros(leaf.shape, dtype=bool), True)
        fvals = [_families(v, np.nan) for v in vals]
        ftrks = [_families(t, 0.0) for t in trks]
        ok = np.zeros(len(fleaf), dtype=bool)
        cands, newtrs = [], []
        if max_iterations is None or iterations < max_iterations:
            complete = fleaf.all(axis=1)
            if complete.all():  # a view, not a copy, on the finest level
                complete = slice(None)
            dmask = fdummy[complete]
            bounds = _parent_bounds(spec, parents, 1 << (l0 - level + 1)).reshape(-1)[complete]
            acc_all = np.ones(len(dmask), dtype=bool)
            for fv, ft in zip(fvals, ftrks):
                vals_c = fv[complete]
                trs = ft[complete]
                means, _ = family_means(vals_c, dmask)
                cand = _quantize(means, value_kind)
                acc, ntr = check(vals_c, trs, dmask, cand, bounds)
                # Directed rounding: once prior inaccuracy enters the sum, pad the
                # stored tracker by a few ulps so it upper-bounds the deviation in
                # float arithmetic too, not only in exact arithmetic. First-level
                # trackers stay bit-exact (no prior term, single rounded op).
                prior = np.where(dmask, 0.0, trs).max(axis=1) > 0.0
                ntr = np.where(prior, ntr + 4.0 * np.spacing(ntr), ntr)
                if spec.kind == ABSOLUTE:
                    acc = ntr <= bounds  # the stored tracker itself meets the bound
                acc_all &= acc
                cands.append(cand)
                newtrs.append(ntr)
            ok[complete] = acc_all
        # leaves and pad dummies of this level that no accepted parent absorbed
        emit = fleaf & ~ok[:, None]
        parts.append((emit, [f[emit] for f in fvals + ftrks]))
        if not ok.any():
            break
        iterations += 1
        level -= 1
        leaf = ok.reshape(parents)
        vals, trks = [], []
        for cand, ntr in zip(cands, newtrs):
            v = np.full(len(ok), np.nan)
            t = np.zeros(len(ok))
            v[complete], t[complete] = cand, ntr
            vals.append(v.reshape(parents))
            trks.append(t.reshape(parents))
    else:  # every family up to the root collapsed
        root = [a.reshape(-1) for a in vals + trks]

    n = len(arrays)
    mesh, columns = _assemble(shape, parts, [np.nan] * n + [0.0] * n, root)
    return CoarsenResult(mesh, columns[:n], columns[n:], iterations)


def _package(res: CoarsenResult, index: int, value_kind: str,
             config: CompressionConfig, mesh_bits: bytes) -> CompressedVariable:
    nondummy = ~res.mesh.dummy
    payload = res.values[index][nondummy].astype(VALUE_KIND_DTYPES[value_kind])
    trk = res.trackers[index]
    stats = CompressStats(
        iterations=res.iterations,
        leaf_count=res.mesh.n_leaves,
        max_tracker=float(trk[nondummy].max()) if nondummy.any() else 0.0,
    )
    return CompressedVariable(
        shape=res.mesh.shape,
        value_kind=value_kind,
        mesh_bits=mesh_bits,
        payload=payload,
        criterion=config.spec.default,
        mode=config.mode,
        packing=config.packing,
        stats=stats,
    )


def compress(values, shape: GridShape, config: CompressionConfig) -> CompressedVariable:
    """Compress one linear row-major array under the configured error bounds."""
    arr = np.asarray(values)
    kind = value_kind_of(arr.dtype)
    res = coarsen_forest([arr], shape, config.spec, kind)
    return _package(res, 0, kind, config, serialize_refinement(res.mesh))


def compress_many(variables, shape: GridShape, config: CompressionConfig) -> list[CompressedVariable]:
    """Compress several same-shape variables.

    ``one-for-all`` coarsens a single shared mesh (a family collapses only if
    every variable tolerates it); ``one-for-one`` is a loop of solo runs.
    """
    arrays = [np.asarray(v) for v in variables]
    if not arrays:
        raise ConfigError("no variables given")
    kinds = {value_kind_of(a.dtype) for a in arrays}
    if len(kinds) != 1:
        raise ConfigError(f"variables must share one value kind, got {sorted(kinds)}")
    kind = kinds.pop()
    if config.mode == ONE_FOR_ONE:
        return [compress(a, shape, config) for a in arrays]
    res = coarsen_forest(arrays, shape, config.spec, kind)
    bits = serialize_refinement(res.mesh)
    return [_package(res, i, kind, config, bits) for i in range(len(arrays))]


def decompress(var: CompressedVariable) -> np.ndarray:
    """Reconstruct the full row-major array by constant interpolation.

    Values are reported in stored (packed) space; unpacking via the affine
    record is the caller's transform. The output, in the storage dtype, is
    allocated before any per-level work, so a grid too large to allocate
    raises :class:`CorruptArtifactError` before anything else is built.
    """
    mesh = deserialize_refinement(var.mesh_bits, var.shape)
    n_data = int((~mesh.dummy).sum())
    if len(var.payload) != n_data:
        raise CorruptArtifactError(
            f"payload holds {len(var.payload)} values, mesh has {n_data} data leaves")
    dtype = np.dtype(VALUE_KIND_DTYPES[var.value_kind])
    try:
        out = np.empty(var.shape.extents, dtype)
    except (MemoryError, ValueError):  # ValueError: the size overflows the address width
        n = var.shape.npoints
        raise CorruptArtifactError(
            f"grid of {n} points ({n * dtype.itemsize} bytes) cannot be allocated") from None
    _expand_into(out, mesh, var.payload.astype(dtype, copy=False))
    return out.reshape(-1)


def split_axis(values: np.ndarray, axis: int) -> list[np.ndarray]:
    """Slice a 3D array into independent 2D arrays along ``axis``."""
    arr = np.asarray(values)
    if arr.ndim != 3:
        raise ShapeError(f"split_axis needs a 3D array, got {arr.ndim}D")
    if not 0 <= axis < 3:
        raise ShapeError(f"axis {axis} out of range for 3D data")
    return [np.ascontiguousarray(np.take(arr, i, axis=axis)) for i in range(arr.shape[axis])]


def stack_axis(slices, axis: int) -> np.ndarray:
    """Inverse of :func:`split_axis`."""
    return np.stack(slices, axis=axis)
