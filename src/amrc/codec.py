"""Compression driver: coarsen bottom-up, one tree level at a time, then package.

Coarsening works on grid-index arrays, one per tree level. At each level a
family of 2^dim siblings is read through the child views that
:func:`amrc.mesh._blocks` gives, ``grid[o0::2, o1::2]`` per Morton child,
one slab of parent rows at a time. Every family gets a candidate parent
value, the mean of its data members, which is checked against the most
restrictive bound of any error domain the parent meets. A cell that is not
a leaf carries a ``+inf`` tracker, so an incomplete family fails its bound
like any other: the bound check is the only reject. The sums, extremes and
deviations are reduced elementwise across the children, in the order that
makes them bit-identical to :func:`~amrc.criteria.family_means` and the
``batch_check_*`` functions of :mod:`amrc.criteria`, which
``tests/oracle.py`` keeps as the reference. The relative check is
evaluated member by member only where it has to be: two one-sided tests on
a family's extremes, a certain reject and, for a family of one strict sign,
a certain accept, decide most families, and they are exact because IEEE
subtraction, addition and division round monotonically, so no member's
term can fall outside the range the extremes give. Accepted
parents become the leaves of the next level up; the leaves of rejected or
incomplete families stay in the final mesh. The pass stops at the first
level that accepts nothing.

This reproduces a Jacobi-style sweep over the whole leaf set (check every
complete family, commit all accepted collapses at once, repeat until
nothing is accepted) exactly; ``tests/oracle.py`` keeps that sweep as the
reference. No all-dummy family exists at the start, and a rejected family
never changes, so re-checking it rejects it again. Sweep iteration ``i``
can therefore only accept families whose parents sit at level ``l0 - i``,
which is what the level pass checks at its ``i``-th level.
``CompressStats.iterations`` counts the levels that accepted something.
Of the coarsening, this module decides only which families meet their
bounds. The pass keeps each level's leaf flags and candidates as grids,
and the trackers of the upper height of each pair (below) as whole grids;
:mod:`amrc.mesh` walks the leaf grids top-down from the root into the
refinement bit-field and the leaf order, so compression writes the
bit-field and the payload straight from the grids and never sorts leaves
or builds a :class:`ForestMesh`. Decompression runs
the same walk on the stored bit-field, once for each run of variables that
share it (:func:`decompress_many`), which gives the cells of each level's
data leaves, levels 1 and 0 as whole families (one refined level-2 cell
each and one bit per level-1 cell, and the refined level-1 cells, collected
while level 1 is written), and writes the payload into the level grids
top-down. Every level lies in the output, so decoding holds the output and
index arrays only: a key per data leaf, one index per family of levels 1
and 0, and the cells of the data leaves above level 1. Neither side of the
round trip computes a Morton code.

Levels above the initial one never read the initial data again; per-leaf
inaccuracy trackers stand in for it, and they guarantee the end-to-end
point-wise bound of the decompressed output.

The initial level is read in the caller's storage dtype, with no float64
copy, and each level is checked in cache-sized slabs of at most ``_SLAB``
(2^14) families (:func:`_check_rows`), whose domain bounds are made a slab
at a time; a slab that meets no domain box reads the default bound as a
broadcast. The first height also checks the input: every data cell is a
member of one initial-level family, so a NaN or an infinity shows in the
family extremes, and :class:`DataError` is raised there. Heights run in
pairs, ``(1, 2), (3, 4), ...``, over one slab of about ``_SLAB / 2``
families of the upper level at a time (:func:`_check_bottom`): the lower
height's float64 trackers live in one slab buffer, never as a whole grid,
and both heights share one set of slab buffers. Candidate values are
rounded into the storage type (f32, or nearest-even for integer kinds)
*before* the compliance check, so the tracker bounds the deviation of the
value that is actually stored, and f32 candidates are kept in float32
grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from itertools import groupby

import numpy as np

from .criteria import ABSOLUTE, Criterion, ErrorSpec
from .errors import ConfigError, CorruptArtifactError, DataError, ShapeError
from .mesh import ForestMesh, GridShape, _blocks, _fill_grids, _fill_leaves, _mesh, _walk

ONE_FOR_ONE = "one-for-one"
ONE_FOR_ALL = "one-for-all"

# storage kinds: little-endian on disk; above the initial level, f32 values
# stay float32 and the others are float64
VALUE_KIND_DTYPES = {"f32": "<f4", "f64": "<f8", "i16": "<i2", "i32": "<i4"}
_KIND_BY_DTYPE = {("f", 4): "f32", ("f", 8): "f64", ("i", 2): "i16", ("i", 4): "i32"}

# families per slab of a level in _check_rows: small enough that a slab's
# member copies and scratch stay in L2
_SLAB = 1 << 14


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
        if not (0 < self.scale < np.inf and abs(self.offset) < np.inf):
            raise ConfigError("packing needs a finite scale > 0 and a finite offset, "
                              f"got scale={self.scale} offset={self.offset}")


@dataclass(frozen=True)
class CompressionConfig:
    """Error bounds and packaging of a compression.

    :func:`compress` and :func:`compress_many` ignore ``split_axis``, which is
    only validated and stored: callers split with :func:`split_axis` and pass
    the slices to :func:`compress_many`, as the CLI does.
    """

    spec: ErrorSpec
    mode: str = ONE_FOR_ONE
    split_axis: int | None = None
    packing: Packing | None = None

    def __post_init__(self):
        if self.mode not in (ONE_FOR_ONE, ONE_FOR_ALL):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.split_axis is not None and self.split_axis < 0:
            raise ConfigError("split_axis must be a non-negative axis index")


@dataclass(frozen=True)
class CompressStats:
    iterations: int
    leaf_count: int
    max_tracker: float


@dataclass(frozen=True, eq=False)
class CompressedVariable:
    """One compressed variable: encoded mesh plus non-dummy leaf payload.

    The payload's dtype must be of the variable's value kind, in either byte
    order; it is kept as the format writes it, little-endian and contiguous.
    Immutable: build a changed variable with :func:`dataclasses.replace`.
    Variables compare and hash by identity.
    """

    shape: GridShape
    value_kind: str
    mesh_bits: bytes
    payload: np.ndarray
    criterion: Criterion
    mode: str = ONE_FOR_ONE
    packing: Packing | None = None
    stats: CompressStats | None = None  # not serialized

    def __post_init__(self):
        kind, payload = self.value_kind, self.payload
        if value_kind_of(payload.dtype) != kind:
            raise ConfigError(f"{payload.dtype} payload does not match value kind {kind!r}")
        object.__setattr__(self, "payload", np.ascontiguousarray(payload, VALUE_KIND_DTYPES[kind]))


@dataclass
class CoarsenResult:
    """Full engine state after coarsening; values/trackers are per variable."""

    mesh: ForestMesh
    values: list[np.ndarray]
    trackers: list[np.ndarray]
    iterations: int


def packed_bound(eps_unpacked: float, scale_factor: float) -> float:
    """Transform an absolute bound into packed-data units."""
    if not 0 < scale_factor < np.inf:
        raise ConfigError(f"scale factor must be finite and positive, got {scale_factor}")
    return eps_unpacked / scale_factor


@dataclass(frozen=True)
class _LevelBounds:
    """Most restrictive bound per parent of ``size`` cells per axis, made a slab at a time.

    ``bounds[a:b]`` holds those of parent rows ``a:b`` of the parent grid
    ``shape``. Parent ``p`` meets a domain box iff ``p*size < hi`` and
    ``p*size + size > lo`` on every axis, a box slice of the parent grid.
    A slab that meets no domain box is a read-only broadcast of the default
    bound.
    """

    spec: ErrorSpec
    shape: tuple[int, ...]
    size: int

    def __getitem__(self, rows: slice) -> np.ndarray:
        a, b, _ = rows.indices(self.shape[0])
        slab, spec = (b - a,) + self.shape[1:], self.spec
        boxes = []
        for dom in spec.domains:
            box = tuple(slice(max(lo // self.size - o, 0), max(-(-hi // self.size) - o, 0))
                        for (lo, hi), o in zip(dom.box, (a,) + (0,) * (len(slab) - 1)))
            if all(s.start < min(s.stop, e) for s, e in zip(box, slab)):
                boxes.append((box, dom.criterion.bound))
        if not boxes:
            return np.broadcast_to(np.float64(spec.default.bound), slab)
        bounds = np.full(slab, spec.default.bound)
        for box, bound in boxes:
            bounds[box] = np.minimum(bounds[box], bound)
        return bounds


def _row_sum(terms, out, a, b):
    """Sum of one family's members into ``out``, in numpy's order for a contiguous row.

    ``x.sum(axis=1)`` of a contiguous ``(n, 4)`` row adds left to right and of
    an ``(n, 8)`` row pairwise; a dummy member enters as ``0.0``. Writing the
    order out keeps every mean bit-identical to :func:`family_means`. Each
    addition first converts to float64, which is exact, so members may be in
    their storage dtype; ``a`` and ``b`` are float64 scratch. numpy also adds
    the row onto ``+0.0``, which only turns a sum of negative zeros into
    ``+0.0``; such a family is constant and takes its value from its maximum
    instead, so that addition is left out.
    """
    add = partial(np.add, dtype=np.float64)
    if len(terms) == 4:
        return add(add(add(terms[0], terms[1], out=out), terms[2], out=out), terms[3], out=out)
    left = add(add(terms[0], terms[1], out=out), add(terms[2], terms[3], out=a), out=out)
    right = add(add(terms[4], terms[5], out=a), add(terms[6], terms[7], out=b), out=a)
    return add(left, right, out=out)


def _worst(members, trks, cand):
    """Relative error estimate of each family, member by member.

    ``members`` yields one float64 array per data member and ``trks`` one
    array of its trackers, or the scalar ``0.0`` on the initial level. A zero
    tracker leaves every term bit for bit what ``|cand - v| / |v|`` gives.
    ``batch_check_relative`` reads a zero denominator as 0 or inf; ``d / den``
    gives inf there too except for 0 / 0, a member met exactly, which is NaN:
    fmax skips it, and a family of such members gets NaN, which the accept
    test ``~(worst > bound)`` passes like the 0 it stands for.
    """
    return reduce(np.fmax, (  # one member's term at a time
        (np.abs(cand - v) + t) / np.minimum(np.abs(v - t), np.minimum(np.abs(v), np.abs(v + t)))
        for v, t in zip(members, trks)))


def _relative_accept(members, trks, cand, vmin, vmax, tmax, ntr, bounds, tmp):
    """Accept flags of the relative criterion, bit for bit those of :func:`_worst`.

    Two one-sided tests decide most families from their extremes. IEEE
    subtraction, addition and division round monotonically, so for every
    member ``v`` with tracker ``t <= tmax`` the rounded results keep the order
    of the exact ones:

    - certain reject, ``ntr / max(|vmin|, |vmax|) > bound``: the member whose
      ``|cand - v| + t`` is ``ntr`` has a denominator of at most ``|v| <=
      max(|vmin|, |vmax|)``, so its term is at least as large (inf on a zero
      denominator), and ``fmax`` returns it or more;
    - certain accept, ``ntr / lo <= bound`` with ``lo = max(vmin - tmax,
      -(vmax + tmax)) > 0``: ``lo > 0`` holds only for a family of one strict
      sign whose every member clears its tracker, and then every
      denominator is at least ``lo``, every numerator at most ``ntr``, and no
      term is NaN.

    The rest (zero or NaN ratios, mixed signs, the band between the tests)
    takes the exact per-member pass of :func:`_worst`, which gathers one
    member at a time, by flat index from contiguous block arrays and by
    unravelled index from strided ones, such as the tracker views, which
    ``reshape(-1)`` would copy whole.
    Values enter it as float64, where the magnitude of an integer minimum
    does not wrap. The tests run in ``tmp``, float64 scratch of the block,
    one bound at a time: ``ntr / max(|vmin|, |vmax|)`` is the smaller of
    ``ntr / |vmin|`` and ``ntr / |vmax|``, and ``ntr / lo`` the smaller of
    the quotients of ``vmin - tmax`` and ``-(vmax + tmax)``, of which at
    most one is positive, since division rounds monotonically too. So they
    allocate bool masks only.
    """
    def ratio(x):  # ntr / x in tmp, x in float64
        return np.divide(ntr, x, out=x)

    reject = ratio(np.abs(vmin, out=tmp, dtype=np.float64)) > bounds
    reject &= ratio(np.abs(vmax, out=tmp, dtype=np.float64)) > bounds
    accept = np.subtract(vmin, tmax, out=tmp, dtype=np.float64) > 0.0
    accept &= ratio(tmp) <= bounds
    np.negative(np.add(vmax, tmax, out=tmp, dtype=np.float64), out=tmp)
    other = tmp > 0.0
    other &= ratio(tmp) <= bounds
    accept |= other
    del other
    decided = np.logical_or(reject, accept, out=reject)
    if decided.all():
        return accept
    flat = np.flatnonzero(~decided)
    at = np.unravel_index(flat, decided.shape)

    def undecided(a):  # the undecided families of a block array
        return a.reshape(-1).take(flat) if a.flags.c_contiguous else a[at]

    worst = _worst((np.asarray(undecided(v), np.float64) for v in members),
                   (t if np.isscalar(t) else undecided(t) for t in trks), undecided(cand))
    np.put(accept, flat, ~(worst > undecided(bounds)))
    return accept


def _check_families(vals, trks, bounds, kind: str, value_kind: str, cand, ntr, scratch):
    """Accept flag of every family of one block; writes its candidates and trackers.

    ``vals`` holds the family members in Morton child order, one contiguous
    array per child (a copy of its view of the level grid, of the block's
    shape), with ``None`` for a child that is a dummy throughout the block.
    ``trks`` holds the float64 child views of the trackers the same way, or
    is the scalar ``0.0`` on the initial level. ``cand`` and ``ntr`` are the
    block's float64 output, and ``scratch`` the block's share of the
    level's slab buffers (:func:`_check_rows`). Computes
    :func:`family_means`, the rounding into the storage type and
    ``batch_check_*`` with the directed rounding of later levels,
    elementwise across the children: the same values bit for bit, without
    gathering each family into a row. The conversion to float64 is exact
    and monotone, so the sums and the extremes, taken in the storage dtype,
    are those of a float64 copy. Only f64 data can overflow a sum: every
    other value lies in its storage range, candidates included. The relative
    check is :func:`_relative_accept`. On the initial level a NaN member
    reaches both extremes and an infinite one either, so a non-finite float
    raises :class:`DataError` there.
    """
    lo, hi, tmp, tbuf = scratch
    real = [k for k, v in enumerate(vals) if v is not None]
    members = [vals[k] for k in real]
    terms = [0.0 if v is None else v for v in vals]
    initial = np.isscalar(trks)
    # left folds, as numpy's max runs over a row: a constant family of zeros
    # of both signs takes the same zero from vmax as in family_means
    vmin = reduce(lambda m, v: np.minimum(m, v, out=lo), members)
    vmax = reduce(lambda m, v: np.maximum(m, v, out=hi), members)
    if initial and vmin.dtype.kind == "f" and not (
            math.isfinite(vmin.min()) and math.isfinite(vmax.max())):
        # every input cell is a member here: a NaN reaches both folds, an infinity one
        raise DataError("input contains non-finite values")
    means = _row_sum(terms, cand, ntr, tmp)
    means /= len(real)
    if value_kind == "f64":
        big = ~np.isfinite(means)
        if big.any():
            # as in family_means: average the overflowing rows pre-scaled by 2^-dim
            scale = 1.0 / len(vals)
            rows = np.stack([np.broadcast_to(t, means.shape)[big] for t in terms], axis=1)
            means[big] = (rows * scale).sum(axis=1) / len(real) / scale
    np.copyto(cand, vmax, where=vmin == vmax)
    if value_kind == "f32":  # to the nearest f32 and back, through the loop's casts
        np.positive(cand, out=cand, dtype=np.float32)
    elif value_kind != "f64":
        np.rint(cand, out=cand)
    if initial:
        # rounding is monotone, so the extreme deviations sit at vmin and vmax
        trks, tmax = [0.0] * len(members), 0.0
        np.abs(np.subtract(cand, vmin, out=ntr), out=ntr)
        np.maximum(ntr, np.abs(np.subtract(cand, vmax, out=tmp), out=tmp), out=ntr)
    else:
        trks = [trks[k] for k in real]
        tmax = reduce(lambda m, t: np.maximum(m, t, out=tbuf), trks)
        for i, (v, t) in enumerate(zip(members, trks)):
            dev = tmp if i else ntr
            np.add(np.abs(np.subtract(cand, v, out=dev), out=dev), t, out=dev)
            if i:
                np.maximum(ntr, dev, out=ntr)
    accept = None if kind == ABSOLUTE else _relative_accept(
        members, trks, cand, vmin, vmax, tmax, ntr, bounds, tmp)
    if not initial:
        # Directed rounding: once prior inaccuracy enters the sum, pad the
        # stored tracker by a few ulps so it upper-bounds the deviation in
        # float arithmetic too, not only in exact arithmetic. First-level
        # trackers stay bit-exact (no prior term, single rounded op).
        pad = np.multiply(np.spacing(ntr, out=tmp), 4.0, out=tmp)
        np.copyto(ntr, np.add(ntr, pad, out=tmp), where=tmax > 0.0)
    # the absolute bound holds on the stored tracker itself
    return ntr <= bounds if accept is None else accept


def _slab_rows(parents) -> int:
    """Parent rows per slab of the level kernel: at most ``_SLAB`` families, or one row."""
    return max(_SLAB // math.prod(parents[1:]), 1)


def _arenas(dim: int, narrow: bool, *heights) -> list[np.ndarray]:
    """Byte buffers for the slab buffers of :func:`_check_rows`, shared by ``heights``.

    Each height is ``(families per slab, the values' dtype, initial)``. Each
    buffer (member copies and extremes in the values' dtype, float64 scratch,
    tracker maxima above the initial level, an f32 variable's float64
    candidates) gets the bytes of the height that needs the most of it.
    """
    sizes = [0] * ((1 << dim) + 5)
    for n, dtype, initial in heights:
        item = np.dtype(dtype).itemsize
        need = [n * item] * ((1 << dim) + 2) + [8 * n, 0 if initial else 8 * n, 8 * n * narrow]
        sizes = [max(s, x) for s, x in zip(sizes, need)]
    return [np.empty(s, np.uint8) for s in sizes]


def _rows(grids, a: int, b: int) -> list:
    """Rows ``a:b`` of each grid; a scalar stands for every row."""
    return [g if np.isscalar(g) else g[a:b] for g in grids]


def _check_rows(vals, trks, bounds, first: int, kind: str, value_kind: str,
                ok, cands, ntrs, arenas):
    """Check the families of parent rows ``first:first + len(ok)`` of one level, in slabs.

    ``vals`` and ``trks`` hold each variable's level grid from row
    ``2 * first`` on (a ``trks`` entry may be the scalar ``0.0``), and
    ``ok``, ``cands`` and ``ntrs`` the parent rows from ``first`` on; ``ok``
    must be all set, and is cleared where a family fails for some variable.
    ``bounds`` is read as ``bounds[a:b]`` in the level's own rows. Each slab
    of :func:`_slab_rows` parent rows ``a:b`` reads the level grid rows
    ``2a:2b``, whose even start keeps the family layout, so it is cut into
    the :func:`~amrc.mesh._blocks` of its own shape. Every block's members
    are copied into contiguous buffers in their dtype, its trackers are
    read in place, and all of the kernel's scratch lies in ``arenas``
    (:func:`_arenas`), so its passes run on contiguous data that stays in
    cache.
    """
    fam, dtype, rows = 1 << ok.ndim, np.result_type(*vals), _slab_rows(ok.shape)
    initial = np.isscalar(trks[0])
    n = min(rows, len(ok)) * math.prod(ok.shape[1:])  # the cells of the largest slab

    def buf(k, dt):  # the first n cells of arena k, in dt
        return arenas[k][:n * np.dtype(dt).itemsize].view(dt)

    copies = [buf(k, dtype) for k in range(fam)]
    scratch = (buf(fam, dtype), buf(fam + 1, dtype), buf(fam + 2, np.float64),
               None if initial else buf(fam + 3, np.float64),
               buf(fam + 4, np.float64) if value_kind == "f32" else None)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for a in range(0, len(ok), rows):
            b = a + rows
            slab, oks = bounds[first + a:first + b], ok[a:b]
            level, ts = _rows(vals, 2 * a, 2 * b), _rows(trks, 2 * a, 2 * b)
            for pslices, children in _blocks(level[0].shape):
                shape = tuple(s.stop - s.start for s in pslices)
                acc = oks[pslices]  # a view: clearing it clears ok
                m = math.prod(shape)
                *block, wide = [None if s is None else s[:m].reshape(shape) for s in scratch]
                for v, t, cand, ntr in zip(level, ts, cands, ntrs):
                    members = [None if sl is None else c[:m].reshape(shape)
                               for c, sl in zip(copies, children)]
                    for dst, sl in zip(members, children):
                        if sl is not None:
                            dst[...] = v[sl]
                    trackers = t if initial else [None if sl is None else t[sl] for sl in children]
                    out = cand[a:b][pslices]
                    acc &= _check_families(members, trackers, slab[pslices], kind, value_kind,
                                           out if wide is None else wide, ntr[a:b][pslices], block)
                    if wide is not None:  # f32-rounded already, so the narrowing is exact
                        out[...] = wide


def _close(leaf, trks, peaks) -> None:
    """Fold each variable's largest leaf tracker into ``peaks``, and give the other cells ``+inf``.

    A stored tracker is >= its members', so the largest is a final leaf's;
    the ``+inf`` fails an incomplete family of the next level. The other
    cells hold ``-inf`` while the largest is taken, which two masked copies
    and a plain maximum do faster than a masked maximum.
    """
    rejected = ~leaf
    for i, t in enumerate(trks):
        np.copyto(t, -np.inf, where=rejected)
        peaks[i] = max(peaks[i], t.max())
        np.copyto(t, np.inf, where=rejected)


def _check_bottom(vals, trks, spec: ErrorSpec, value_kind: str, h0: int, top: int, whole: bool):
    """Heights ``h0`` to ``top`` (``h0`` or ``h0 + 1``) of the level pass, a slab at a time.

    ``vals`` and ``trks`` are the grids and trackers of level ``h0 - 1``, the
    trackers the scalar ``0.0`` on the initial level. Level-``top`` rows
    ``a:b`` cover rows ``a*2^(top-h):b*2^(top-h)`` of level ``h``, so each
    height checks its share of a slab (:func:`_check_rows`) before the next
    reads it. A slab holds about ``_SLAB / 2`` families of height ``top``,
    8192 at the default, and ``2^dim`` times as many of height ``h0``, which
    :func:`_check_rows` checks in slabs of ``_SLAB``: smaller slabs pay the
    kernel's fixed cost per call more often, larger ones hold more trackers
    and larger slab buffers. On the initial level (``h0 == 1``) the first
    height raises :class:`DataError` at a non-finite input value. Leaf
    flags, candidates and level ``top``'s trackers go into whole grids;
    level ``h0``'s trackers, below ``top``, live in one slab buffer that
    the next slab reuses, unless ``whole`` is set. Both heights share one
    set of slab buffers, and a level's grids are made at its first slab, so
    a level that one slab covers is checked before the next level's grids
    exist. Per slab, each level's trackers
    get ``+inf`` where a cell is not a leaf and its largest leaf tracker is
    folded. A slab in which height ``h0`` accepts nothing has only ``+inf``
    trackers above it: its families of height ``top`` are rejected
    unchecked, with ``0`` candidates, finite like every rejected candidate
    and never read as a leaf's value.

    Returns ``(leaf, candidates, trackers, peaks)`` per height, ``trackers``
    ``None`` below ``top`` unless ``whole`` is set, and ``peaks`` each
    variable's largest leaf tracker.
    """
    narrow = value_kind == "f32"
    cdt = np.float32 if narrow else np.float64
    grids = [vals[0].shape]  # levels h0 - 1 to top
    for _ in range(h0, top + 1):
        grids.append(tuple((e + 1) // 2 for e in grids[-1]))
    rows = max((_SLAB >> 1) // math.prod(grids[-1][1:]), 1)  # level-top rows per slab
    spans = [min(rows << (top - h), g[0]) for h, g in enumerate(grids[1:], h0)]  # level-h rows
    arenas = _arenas(len(grids[0]), narrow, *[
        (min(_slab_rows(g), span) * math.prod(g[1:]), cdt if h > h0 else np.result_type(*vals),
         h == 1) for h, (g, span) in enumerate(zip(grids[1:], spans), h0)])
    levels = []
    for a in range(0, grids[-1][0], rows):
        lo, hi = a << (top - h0 + 1), (a + rows) << (top - h0 + 1)  # level h0 - 1 rows
        below, ts, live = _rows(vals, lo, hi), _rows(trks, lo, hi), True
        for k, h in enumerate(range(h0, top + 1)):
            if len(levels) == k:  # at its first slab
                g, keep = grids[k + 1], whole or h == top
                levels.append((np.ones(g, dtype=bool), [np.empty(g, cdt) for _ in vals],
                               [np.empty(g if keep else (spans[k],) + g[1:]) for _ in vals],
                               _LevelBounds(spec, g, 1 << h), keep, [0.0] * len(vals)))
            leaf, cands, ntrs, bounds, keep, peaks = levels[k]
            first = a << (top - h)
            ok = leaf[first:(a + rows) << (top - h)]
            cs = _rows(cands, first, first + len(ok))
            rs = _rows(ntrs, first, first + len(ok)) if keep else _rows(ntrs, 0, len(ok))
            if live:
                _check_rows(below, ts, bounds, first, spec.kind, value_kind, ok, cs, rs, arenas)
            else:
                ok[...] = False
                for c in cs:
                    c[...] = 0
            _close(ok, rs, peaks)
            below, ts, live = cs, rs, live and ok.any()
    return [(leaf, cands, ntrs if keep else None, peaks)
            for leaf, cands, ntrs, _, keep, peaks in levels]


def _level_pass(arrays, shape: GridShape, spec: ErrorSpec, value_kind: str, *,
                whole_trackers: bool = False):
    """Coarsen bottom-up, one level grid at a time, until no family is accepted.

    Yields the levels reached one at a time, the initial level first, each
    as ``(leaf, values, trackers, peaks)``: the leaf flags (``None``: all
    cells), one value and one tracker grid per variable, and each
    variable's largest leaf tracker on the level. The initial level holds
    the caller's arrays in their own dtype and ``0.0`` trackers, later
    levels the candidates of the kernel and float64 trackers. Cells that
    are not leaves hold rejected candidates and ``+inf`` trackers. Heights
    are computed in pairs, ``(1, 2), (3, 4), ...``, a slab at a time
    (:func:`_check_bottom`), with one height in the last pair when the
    initial level is odd. The lower height of a pair yields ``None``
    trackers unless ``whole_trackers`` is set; the upper one yields whole
    tracker grids. Each pair is computed when its lower level is asked
    for, and the arguments are checked at the first one, apart from the
    finiteness of float input: the first height of the kernel raises
    :class:`DataError` at a NaN or an infinity, and a one-cell grid, which
    has no family, is checked here.
    """
    if any(len(dom.box) != shape.dim for dom in spec.domains):
        raise ConfigError(f"error-domain boxes need {shape.dim} ranges for {shape.dim}D data")
    arrays = [np.asarray(v).reshape(-1) for v in arrays]
    if not arrays:
        raise ConfigError("no variables given")
    for arr in arrays:
        # also rejects an unknown kind; the kernel relies on every value
        # lying in the storage range of its kind
        if value_kind_of(arr.dtype) != value_kind:
            raise ConfigError(f"{arr.dtype} values do not match value kind {value_kind!r}")
        if arr.size != shape.npoints:
            raise ShapeError(f"expected {shape.npoints} values, got {arr.size}")
        # one cell has no family for the kernel to check
        if shape.npoints == 1 and arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise DataError("input contains non-finite values")

    vals, trks = [arr.reshape(shape.extents) for arr in arrays], [0.0] * len(arrays)
    yield None, vals, trks, [0.0] * len(arrays)
    l0 = shape.initial_level
    for h0 in range(1, l0 + 1, 2):
        for leaf, vals, trks, peaks in _check_bottom(vals, trks, spec, value_kind, h0,
                                                     min(h0 + 1, l0), whole_trackers):
            if not leaf.any():
                return
            yield leaf, vals, trks, peaks


def coarsen_forest(variables, shape: GridShape, spec: ErrorSpec, value_kind: str) -> CoarsenResult:
    """Coarsen one shared mesh under ``spec`` until no family is accepted.

    A family collapses only if the check passes for *every* variable; trackers
    are maintained per variable. Pass a single-element list for solo
    compression. Dummy leaves hold NaN values and zero trackers.
    """
    leaves, vals, trks, _ = zip(*_level_pass(variables, shape, spec, value_kind,
                                             whole_trackers=True))
    _, key, cells = _walk(shape, leaves)
    n = len(key)
    values = _fill_leaves((np.full(n, np.nan) for _ in vals[0]), key, list(cells),
                          [list(g) for g in zip(*vals)])
    zero = np.broadcast_to(0.0, shape.extents)  # the initial level's trackers
    trackers = _fill_leaves((np.zeros(n) for _ in trks[0]), key, cells,
                            [[zero, *g[1:]] for g in zip(*trks)])
    return CoarsenResult(_mesh(shape, key), values, trackers, len(leaves) - 1)


def _compress(arrays, shape: GridShape, config: CompressionConfig,
              value_kind: str) -> list[CompressedVariable]:
    """Compress variables onto one shared mesh, straight from the level grids.

    A level's trackers go once read, the leaf keys once the data keys are
    taken, and a variable's grids above the initial level once they are
    written into its payload; the initial level is written last, for every
    variable at once (:func:`~amrc.mesh._fill_leaves`).
    """
    leaves, grids, peaks = [], [], [0.0] * len(arrays)
    for leaf, vals, trks, level_peaks in _level_pass(arrays, shape, config.spec, value_kind):
        peaks = [max(p, q) for p, q in zip(peaks, level_peaks)]  # the leaves' largest tracker
        leaves.append(leaf)
        grids.append(vals)
    del leaf, vals, trks  # the last level's, which the loop leaves bound
    bits, key, cells = _walk(shape, leaves)
    stats = [CompressStats(len(leaves) - 1, len(key), float(p)) for p in peaks]
    del leaves
    data = key[(key & 1) == 0]  # the keys of the data leaves, in curve order
    del key
    grids = [list(g) for g in zip(*grids)]  # per variable
    payloads = _fill_leaves((np.empty(len(data), VALUE_KIND_DTYPES[value_kind]) for _ in stats),
                            data, cells, grids)
    return [CompressedVariable(shape, value_kind, bits, payload, config.spec.default,
                               config.mode, config.packing, stat)
            for payload, stat in zip(payloads, stats)]


def compress(values, shape: GridShape, config: CompressionConfig) -> CompressedVariable:
    """Compress one linear row-major array under the configured error bounds."""
    return compress_many([values], shape, config)[0]


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
        return [_compress([a], shape, config, kind)[0] for a in arrays]
    return _compress(arrays, shape, config, kind)


def decompress(var: CompressedVariable) -> np.ndarray:
    """Reconstruct the full row-major array by constant interpolation.

    Values are reported in stored (packed) space; unpacking via the affine
    record is the caller's transform. The decode walk reads the bit-field
    into each level's data-leaf cells, and the payload is written into the
    level grids top-down, every level in the output. The output, in the
    storage dtype, is allocated before the expansion starts, so a grid too
    large to allocate raises :class:`CorruptArtifactError` first.
    """
    return decompress_many([var])[0]


def decompress_many(variables) -> list[np.ndarray]:
    """:func:`decompress` of each variable, in order, walking a shared bit-field once.

    Consecutive variables with the same shape and bit-field, as all the
    variables of a ``one-for-all`` artifact are, form a run: they share one
    decode walk, which holds levels 1 and 0 as families, and one fill
    (:func:`~amrc.mesh._fill_grids`), which makes the cells of levels 1 and
    0 once for the run and lays every level in the outputs. So decoding
    holds no grid beyond the outputs, and every output of a run is
    allocated before the fill.
    """
    out = []
    for (shape, bits), run in groupby(variables, lambda v: (v.shape, v.mesh_bits)):
        run = list(run)
        _, key, cells = _walk(shape, bits=bits)
        data = key[(key & 1) == 0]  # the keys of the data leaves, in curve order
        del key
        grids = []
        for var in run:
            if len(var.payload) != len(data):
                raise CorruptArtifactError(
                    f"payload holds {len(var.payload)} values, mesh has {len(data)} data leaves")
            try:
                grids.append(np.empty(shape.extents, var.payload.dtype))
            except (MemoryError, ValueError):  # ValueError: the size overflows the address width
                n = shape.npoints
                raise CorruptArtifactError(f"grid of {n} points ({n * var.payload.itemsize} "
                                           "bytes) cannot be allocated") from None
        grids = _fill_grids(grids, data, cells, [var.payload for var in run])
        out += [g.reshape(-1) for g in grids]
    return out


def _slices(values: np.ndarray, axis: int) -> list[np.ndarray]:
    """The 2D slices of a 3D array along ``axis``, as views of it."""
    arr = np.asarray(values)
    if arr.ndim != 3 or not 0 <= axis < 3:
        raise ShapeError(f"split_axis needs 3D data and an axis in 0..2, got {arr.ndim}D, {axis}")
    return list(np.moveaxis(arr, axis, 0))


def split_axis(values: np.ndarray, axis: int) -> list[np.ndarray]:
    """Slice a 3D array into independent 2D arrays along ``axis``, each a copy."""
    return [s.copy() for s in _slices(values, axis)]


def stack_axis(slices, axis: int) -> np.ndarray:
    """Inverse of :func:`split_axis`."""
    return np.stack(slices, axis=axis)
